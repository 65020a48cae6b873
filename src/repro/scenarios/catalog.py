"""The bundled scenario catalog: the repo's enumerable workload library.

Every ``*.yaml`` file under ``repro/scenarios/bundled/`` is one
:class:`~repro.scenarios.ScenarioSpec` (see ``docs/SCENARIOS.md`` for the
catalog table).  The conformance suite (:mod:`repro.scenarios.conformance`,
``tests/test_scenarios.py``) runs every bundled scenario through the
differential matrix, so adding a YAML file here automatically widens the
standing correctness harness -- no test edits required.
"""

from __future__ import annotations

import os
from typing import Tuple

from repro.exceptions import InvalidParameterError
from repro.scenarios.spec import ScenarioSpec

#: Directory holding the bundled scenario YAML files.
BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bundled")


def bundled_scenarios() -> Tuple[str, ...]:
    """Names of every bundled scenario, sorted."""
    return tuple(
        sorted(
            name[: -len(".yaml")]
            for name in os.listdir(BUNDLED_DIR)
            if name.endswith(".yaml")
        )
    )


def bundled_path(name: str) -> str:
    """Absolute path of one bundled scenario's YAML file."""
    base = name[: -len(".yaml")] if name.endswith(".yaml") else name
    path = os.path.join(BUNDLED_DIR, base + ".yaml")
    if not os.path.exists(path):
        raise InvalidParameterError(
            f"no bundled scenario {name!r}; bundled: "
            f"{', '.join(bundled_scenarios())}"
        )
    return path


def load_bundled(name: str) -> ScenarioSpec:
    """Load one bundled scenario by name (``.yaml`` suffix optional)."""
    return ScenarioSpec.load(bundled_path(name))


def resolve_spec(ref: str) -> ScenarioSpec:
    """A spec from a file path or a bundled scenario name.

    Existing paths win (so a local ``drift.yaml`` shadows nothing
    silently only if it actually exists); anything else is looked up in
    the bundled catalog.
    """
    if os.path.exists(ref):
        return ScenarioSpec.load(ref)
    return load_bundled(ref)


def conformance_scenarios() -> Tuple[str, ...]:
    """Bundled scenarios eligible for the full conformance matrix.

    Windowed scenarios are excluded: the sliding-window variants have no
    mergeable (parallel) form, so they run the serial-only conformance
    cells instead.
    """
    return tuple(
        name
        for name in bundled_scenarios()
        if load_bundled(name).window is None
    )
