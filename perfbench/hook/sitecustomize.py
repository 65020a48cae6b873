"""Start-up hook for traced benchmark runs (a no-op unless asked for).

The traced run puts this directory first on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR``.  Python then imports this module while it
starts every process of the system under test -- the server, the
cluster router, and each worker the router spawns -- and each of them
records spans around the program's public functions and writes them to
``$PERFBENCH_TRACE_DIR/<pid>.json`` when it exits.
"""

import os

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    import atexit
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    _tracer = tracing.Tracer()
    tracing.install_service_spans(_tracer)
    atexit.register(
        lambda: _tracer.dump(os.path.join(_TRACE_DIR, f"{os.getpid()}.json"))
    )
