"""The benchmark tracer wraps functions by (module, attribute) name; every
pair it names must exist, or a traced run fails only when it installs."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_hook_resolves():
    spec = importlib.util.spec_from_file_location("boxdistill_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"boxdistill.{module}.{attr}"
        for module, attr, _, _ in spans.HOOKS
        if not callable(getattr(importlib.import_module(f"boxdistill.{module}"), attr, None))
    ]
    assert spans.HOOKS and not missing, missing
