"""The benchmark's tracer wraps named program functions from outside; a
renamed or deleted one stops every traced run.  This guard fails first."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")

# functions and methods perfbench/tracing.py:install wraps
TRACED_FUNCTIONS = 38


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises TraceError on a missing function
    finally:
        tracer.uninstall()
    assert len(tracer.names) == TRACED_FUNCTIONS, tracer.names
