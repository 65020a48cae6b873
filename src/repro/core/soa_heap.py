"""Lazy-deletion pair heap shared by the structure-of-arrays kernels.

Section 2.1.1's FINDMIN heap, built on the C-implemented :mod:`heapq`
over plain tuples plus *lazy deletion*: nothing is ever removed or
resifted in place; key changes simply push a fresh entry and stale ones
are discarded when they surface at the top.  An addressable heap with
interpreted sift loops (:class:`repro.structures.heap.AddressableMinHeap`)
costs several times more per item.

Entry format
------------
Every entry is the tuple ``(err, beg, slot)`` where ``slot`` indexes the
kernel's columns, ``beg`` is that bucket's start index and ``err`` the
merge error of the adjacent pair ``(slot, nxt[slot])`` at push time.
The ``(err, beg)`` prefix is a unique key, so the minimum *valid* entry
names the leftmost cheapest pair: FINDMIN is a pure function of the
bucket list, independent of the heap's push history.

Validity rule
-------------
An entry ``(err, b, s)`` is current iff::

    nxt[s] >= 0 and beg[s] == b and pkey[s] == err

* ``nxt[s] >= 0`` -- the slot is live and not the tail, i.e. the pair
  ``(s, nxt[s])`` exists (``-1`` marks the tail, ``-2`` a freed slot).
* ``beg[s] == b`` -- the slot was not recycled: bucket start indices are
  strictly increasing over a bucket's lifetime and never reused (a merge
  keeps the *left* start; new starts are fresh stream positions), so a
  recycled slot can never reproduce a dead entry's ``beg``.
* ``pkey[s] == err`` -- the key did not change since the push.  The
  kernels maintain ``pkey[s]`` as the pair's current merge error and
  push on every change, so each live pair always has at least one
  current entry.

A current entry may be a duplicate (e.g. a key changed and later changed
back), but any current entry equals the pair's true key, so popping one
is always correct.

Compaction
----------
Stale entries accumulate at one per key change.  The kernels call
:func:`compact` when the heap grows past ``4x`` the live-pair count
(and past a small floor), rebuilding it in place from the columns --
in place because the ingest hot loops hold aliases to the heap list.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

# Compaction floor: below this many entries the stale fraction cannot
# cost enough to be worth a rebuild.
COMPACT_FLOOR = 64
# Rebuild once stale entries outnumber live pairs by this factor.
COMPACT_RATIO = 4


def pop_min_valid(heap: list, nxt: list, beg: list, pkey: list) -> tuple:
    """Pop and return the minimum current entry ``(err, b, s)``.

    Discards stale entries on the way.  The caller guarantees at least
    one pair exists (every live pair has a current entry), so the heap
    cannot run dry here.
    """
    while True:
        entry = heap[0]
        err, b, s = entry
        heappop(heap)
        if nxt[s] >= 0 and beg[s] == b and pkey[s] == err:
            return entry


def static_min_excluding(
    heap: list, nxt: list, beg: list, pkey: list, excl: int
) -> float:
    """Minimum current pair key over every pair except ``(excl, nxt[excl])``.

    The batched ingest certificate needs the cheapest merge among the
    pairs a tail absorption run cannot change.  Current entries for the
    excluded slot are popped aside and pushed back; stale entries are
    dropped for good.  Returns ``inf`` when no other pair exists.
    """
    aside = []
    result = inf
    while heap:
        err, b, s = heap[0]
        if nxt[s] < 0 or beg[s] != b or pkey[s] != err:
            heappop(heap)
            continue
        if s == excl:
            aside.append(heappop(heap))
            continue
        result = err
        break
    for entry in aside:
        heappush(heap, entry)
    return result


def compact(heap: list, nxt: list, beg: list, pkey: list) -> None:
    """Rebuild the heap **in place** with one current entry per pair."""
    heap[:] = [(pkey[s], beg[s], s) for s, nx in enumerate(nxt) if nx >= 0]
    heapify(heap)


def check_heap(heap: list, nxt: list, beg: list, pkey: list) -> None:
    """Assert the lazy heap's invariants (used by the test suite).

    * heap order holds (every child >= its parent);
    * every live pair is represented by at least one current entry;
    * every current entry carries that pair's true ``pkey``;
    * staleness is bounded by the compaction policy (with slack for the
      pushes since the last merge checked it).
    """
    for k in range(1, len(heap)):
        if heap[k] < heap[(k - 1) >> 1]:
            raise AssertionError(f"heap order violated at index {k}")
    pairs = {s for s, nx in enumerate(nxt) if nx >= 0}
    current = set()
    for err, b, s in heap:
        if nxt[s] >= 0 and beg[s] == b and pkey[s] == err:
            current.add(s)
    if current != pairs:
        missing = sorted(pairs - current)
        raise AssertionError(f"pairs without a current heap entry: {missing}")
    bound = max(COMPACT_FLOOR, COMPACT_RATIO * len(pairs)) + COMPACT_FLOOR
    if len(heap) > bound:
        raise AssertionError(
            f"lazy heap holds {len(heap)} entries for {len(pairs)} pairs "
            f"(compaction bound {bound})"
        )
