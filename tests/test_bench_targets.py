"""Every function the benchmark traces still exists where it is looked up.

``bench/spans.py`` wraps the names in its ``TARGETS`` by reading ``vars()``
of their module or class; a target that was deleted, renamed or moved to a
base class is reported in ``Tracer.missing`` and its span silently reads 0.
"""

import importlib.util
from pathlib import Path

import thagkl  # noqa: F401  (imports every module but the CLI)
import thagkl.cli  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_found():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
