"""The benchmark tracer wraps library entry points by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_entry_points_exist():
    # `bench/run.py --trace 1` getattrs every entry point when it starts, so
    # deleting or renaming one of these functions breaks the traced bench
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRY_POINTS
    for module, func, _ in tracer.ENTRY_POINTS:
        assert hasattr(importlib.import_module(f"jetorders.{module}"), func), (module, func)
