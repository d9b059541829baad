"""The benchmark tracer wraps functions by (module, attribute) name; every
pair it names must exist, or a traced run fails only when it installs."""
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

from boxdistill import anchors, config, experiments, geometry, sim

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


def test_names_read_outside_hooks_resolve():
    """Besides its hooks, ``benchmarks/run.py`` reads the loss history of
    its ``distill`` and ``baseline`` passes, and its traced ``distill``
    summary builds Monte-Carlo pairs from a scene's ``gts``; a name missing
    here fails only those runs."""

    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"total", "ori", "xgd", "cld"} <= field_names(sim.EpochStats)
    assert isinstance(getattr(sim.Scene, "gts", None), property)
    assert {"cx", "l", "yaw"} <= field_names(geometry.Box3D)
    assert callable(getattr(geometry, "iou3d_mc_oracle", None))


def _workload_pass(monkeypatch, name):
    """One build and one train-and-evaluate pass of the benchmark's workload
    ``name`` at seed 0, through the package's current API."""
    bench = SPANS.parent
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("boxdistill_bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    # The script's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, run)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.modules.pop("spans", None)
    work = run.Workload(name, 0, (anchors, config, experiments, geometry, sim))
    ops = run.Ops()
    datasets = work.build(ops)
    result = work.train_and_evaluate(datasets, ops)
    return ops, result


def test_dense_eval_workload_pass(monkeypatch):
    """One pass of the benchmark's ``dense_eval`` workload: no failed
    operation, and the CSV it has always hashed to."""
    ops, result = _workload_pass(monkeypatch, "dense_eval")
    assert (ops.attempted, ops.failed) == (6, 0), ops.failures
    assert result["csv_sha256"].startswith("fc7f124b7b2f")


def test_baseline_workload_pass(monkeypatch):
    """One pass of the benchmark's ``baseline`` workload, which trains: a
    change that breaks the training path fails here, not only in a
    benchmark run.  The CSV hash is the same under the SkylakeX, Haswell
    and Sandybridge OpenBLAS kernels."""
    ops, result = _workload_pass(monkeypatch, "baseline")
    assert (ops.attempted, ops.failed) == (3, 0), ops.failures
    assert result["csv_sha256"].startswith("6af726542c4f")
