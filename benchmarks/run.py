"""boxdistill benchmark: end-to-end workload timings and a traced per-layer breakdown.

Run from the repository root:

    python3 benchmarks/run.py --workload distill --seed 0 --seconds 10 --trace 0

Workloads (all through ``experiments.build_dataset``, ``train_on_dataset`` and
``evaluate_params``):

* ``distill``: default config, ``xgd_cld`` arm. The step is dominated by the
  XGD IoU gradient, which is what the exact-gradient and array-first XGD work
  targets.
* ``baseline``: the same config and datasets, hard-label arm. It never reaches
  ``xgd`` or ``cld``, so a gradient or gate change must leave it unchanged.
* ``dense_eval``: 16-24 objects per scene, three dataset seeds, no training;
  the teacher-substituted detector (``replace_mode="both"``) is scored.
  Target assignment dominates; NMS and AP matching see twice the objects.

Each run is one process and a closed loop with one client. It builds the
workload's datasets ``SETUP_REPEATS`` times (set-up), then trains and
evaluates on them pass after pass until ``--seconds`` have elapsed (at least
one pass). Times are medians over repeats. ``--trace 1`` instead runs one
untraced pass and two traced passes (build, train, evaluate) and reports the
per-layer metrics; see ``spans.py``.

Every run checks its outputs: loss histories are finite, every AP lies in
[0, 1], and every pass with a seed yields the same ``csv_text()`` hash as every
earlier pass with that seed, in this process and in earlier runs of the same
code (hashes kept under ``benchmarks/out/``). A raising operation (dataset
build, training run, evaluation) counts as failed and the run goes on.

Standard output: one ``env`` line, one line per pass, summary lines, and as the
last line a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The full result, and the spans of a traced run, are written
to ``benchmarks/out/``.
"""
from __future__ import annotations

import time

_T_SCRIPT = time.perf_counter()

import os

# A second OpenBLAS thread spins a whole core during training for no wall-clock
# gain on these small matmuls, and doubles the run's exposure to neighbours
# on a shared machine. Set before numpy is imported; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

from spans import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3
# Untraced passes time each evaluation this many times and keep the median;
# one evaluation is short next to a training run.
EVAL_REPEATS = 5
TRACED_PASSES = 2
# Do not start another pass when it would end past this many seconds.
RUN_BUDGET_S = 150.0

WORKLOADS = {
    # name: (arm from default_arm_matrix or None, dataset seeds per --seed,
    #        n_train, n_val, objects per scene or None for the default,
    #        replace_mode)
    "distill": ("xgd_cld", 1, 16, 16, None, "none"),
    "baseline": ("baseline", 1, 16, 16, None, "none"),
    # About twice the default density; the single training scene is required
    # by DataConfig and never trained on.
    "dense_eval": (None, 3, 1, 8, (16, 24), "both"),
}

# Every end-to-end metric must hold its spread across seeds within its bound
# on every workload. Training throughput does not exist on dense_eval, and
# the AP and evaluation throughput of a trained student change by more than
# 25% from seed to seed (each seed trains a different detector), so those
# three are reported by the traced run instead (see per_layer_units).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_share": "fraction",
}

_CALLS = (
    "geometry.iou3d_grad_fd",
    "geometry.iou3d",
    "geometry.bev_iou.anchors",
    "geometry.bev_iou.sim",
    "geometry.bev_iou.evaluation",
    "anchors.assign_targets",
    "anchors.decode_deltas",
    "sim.generate_scene",
    "sim.teacher_predict",
    "sim.student_forward",
    "sim.total_loss_and_grad",
    "sim.train",
    "xgd.gate_decisions",
    "xgd.positive_component_update",
    "xgd.xgd_loss",
    "xgd.xgd_loss_grad",
    "cld.unified_distribution",
    "cld.cld_loss",
    "cld.cld_grad",
    "evaluation.decode_and_nms",
    "evaluation.evaluate_class",
)
_COUNTS = ("xgd.positives", "evaluation.detections")
_ROOTS = ("experiments.build_dataset", "experiments.train_on_dataset", "experiments.evaluate_params")
_GATE_KEEP = ("center", "size", "angle")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for name in _CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in _COUNTS:
        units[name] = "count"
    for comp in _GATE_KEEP:
        units[f"xgd.gate_keep.{comp}"] = "ratio"
    for name in _ROOTS:
        units[f"{name}.s"] = "s"
    for layer in LAYERS:
        units[f"train_step.{layer}.share"] = "fraction"
    # Measured on the traced run's untraced pass.
    units["sim.train.steps_per_s"] = "1/s"
    units["evaluation.scenes_per_s"] = "1/s"
    units["evaluation.map3d"] = "AP"
    units["trace.overhead_s"] = "s"
    return units


def seconds_since_start() -> float:
    """Seconds since this process started: /proc's 10 ms clock, or the time
    since this script began where that is not available."""
    since_script = time.perf_counter() - _T_SCRIPT
    try:
        stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, IndexError, ValueError):
        return since_script
    return max(since_script, uptime - int(stat[19]) / os.sysconf("SC_CLK_TCK"))


def import_boxdistill():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "boxdistill" / "__init__.py").is_file():
        raise ImportError(f"no boxdistill package under {SRC}")
    sys.path.insert(0, str(SRC))
    import boxdistill

    if Path(boxdistill.__file__).resolve().parent != SRC / "boxdistill":
        raise ImportError(f"boxdistill imported from {boxdistill.__file__}, not {SRC}")
    from boxdistill import anchors, config, experiments, geometry, sim

    return anchors, config, experiments, geometry, sim


# ---------------------------------------------------------------- environment


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "boxdistill").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ
        },
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
    }


# ------------------------------------------------------------------- workload


@dataclasses.dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


class Workload:
    """One named workload at one ``--seed``: its config, arm and dataset seeds."""

    def __init__(self, name: str, seed: int, mods):
        self.anchors, config, self.experiments, self.geometry, self.sim = mods
        arm, n_seeds, n_train, n_val, n_objects, self.replace_mode = WORKLOADS[name]
        base = config.default_config()
        scene = base.scene if n_objects is None else dataclasses.replace(base.scene, n_objects=n_objects)
        self.name = name
        self.seed = seed
        self.seeds = [seed * n_seeds + i for i in range(n_seeds)]
        self.config = dataclasses.replace(
            base,
            name=f"bench-{name}",
            scene=scene,
            data=config.DataConfig(n_train_scenes=n_train, n_val_scenes=n_val),
            seeds=tuple(self.seeds),
        )
        arms = {a.name: a for a in config.default_arm_matrix()}
        self.arm = arms[arm] if arm is not None else None
        self.arm_name = arm or f"replace_{self.replace_mode}"
        self.errors = (self.sim.SceneTooDenseError, self.sim.TrainingDivergedError)

    def _op(self, ops: Ops, what: str, fn, *args, **kwargs):
        ops.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.errors as exc:
            ops.fail(f"{what}: {type(exc).__name__}: {exc}")
        except Exception:  # any other raise is a failed operation too; keep going
            traceback.print_exc()
            ops.fail(f"{what}: unexpected error")
        return None

    def build(self, ops: Ops) -> dict:
        grid = self.anchors.build_anchor_grid(self.config.grid)
        datasets = {}
        for s in self.seeds:
            ds = self._op(ops, f"build_dataset seed {s}", self.experiments.build_dataset, self.config, s, grid)
            if ds is not None:
                datasets[s] = ds
        return datasets

    def train_and_evaluate(self, datasets: dict, ops: Ops, eval_repeats: int = 1) -> dict:
        """One pass over the built datasets; returns its timings and outputs.

        ``eval_s`` is the sum over seeds of the median of ``eval_repeats``
        timed evaluations.
        """
        ex = self.experiments
        result = ex.ExperimentResult(config=self.config)
        train_s = eval_s = 0.0
        steps = scenes = 0
        for s, ds in datasets.items():
            train_result = None
            if self.arm is not None:
                t = time.perf_counter()
                train_result = self._op(ops, f"train seed {s}", ex.train_on_dataset, ds, self.arm.loss, self.config)
                train_s += time.perf_counter() - t
                if train_result is None:
                    continue
                steps += self.config.optimizer.epochs * len(ds.train_scenes)
                losses = [v for h in train_result.history for v in (h.total, h.ori, h.xgd, h.cld)]
                if not all(math.isfinite(v) for v in losses):
                    ops.fail(f"train seed {s}: non-finite loss history")
                params = train_result.params
            else:
                params = self.sim.DetectorParams.init(
                    ds.seed, ds.train_scenes[0].features.shape[1], ds.grid.k_a, ds.grid.k_c
                )
            times = []
            for _ in range(eval_repeats):
                t = time.perf_counter()
                report = self._op(
                    ops,
                    f"evaluate seed {s}",
                    ex.evaluate_params,
                    params,
                    ds,
                    self.config,
                    replace_mode=self.replace_mode,
                    metadata={"arm": self.arm_name},
                )
                times.append(time.perf_counter() - t)
                if report is None:
                    break
            if report is None:
                continue
            eval_s += statistics.median(times)
            scenes += len(ds.val_scenes)
            aps = [v for c in report.per_class for v in (c.ap3d, c.ap_bev)]
            if not all(0.0 <= v <= 1.0 for v in aps):
                ops.fail(f"evaluate seed {s}: AP outside [0, 1]: {aps}")
            result.records.append(ex.RunRecord(self.arm_name, s, report, train_result))
        csv = result.csv_text()
        return {
            "train_s": train_s,
            "steps": steps,
            "eval_s": eval_s,
            "scenes": scenes,
            "csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
            "map3d": result.seed_mean_map3d(self.arm_name) if result.records else float("nan"),
            "gate_keep": [r.gate_keep() for r in result.records],
        }


class CsvLedger:
    """csv_text() hashes per (workload, seed, config, source), kept across runs."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        self.expected = None
        try:
            self.expected = json.loads(path.read_text()).get(key)
        except (OSError, ValueError):
            pass

    def check(self, digest: str, ops: Ops, where: str) -> None:
        if self.expected is None:
            self.expected = digest
            self._save()
        elif digest != self.expected:
            ops.fail(f"{where}: csv_text() differs from an earlier repetition with this seed")

    def _save(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            data = {}
        data[self.key] = self.expected
        self.path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- runs


def timed_build(work: Workload, ops: Ops) -> tuple[float, dict]:
    t = time.perf_counter()
    datasets = work.build(ops)
    return time.perf_counter() - t, datasets


def log_pass(label: str, p: dict) -> None:
    parts = [f"{label}:"]
    if "setup_s" in p:
        parts.append(f"build {p['setup_s']:.3f} s")
    if p["steps"]:
        parts.append(f"train {p['train_s']:.3f} s ({p['steps'] / p['train_s']:.2f} steps/s)")
    if p["scenes"]:
        parts.append(f"eval {p['eval_s']:.3f} s ({p['scenes'] / p['eval_s']:.2f} scenes/s)")
    parts.append(f"map3d {p['map3d']:.6f} csv {p['csv_sha256'][:12]}")
    print(" ".join(parts), flush=True)


def untraced_run(work: Workload, seconds: float, ops: Ops, ledger: CsvLedger, startup_s: float) -> dict:
    builds = []
    for i in range(SETUP_REPEATS):
        build_s, datasets = timed_build(work, ops)
        builds.append(build_s)
        print(f"setup {i + 1}: build {build_s:.3f} s", flush=True)
    passes = []
    t_loop = time.perf_counter()
    while True:
        p = work.train_and_evaluate(datasets, ops, EVAL_REPEATS)
        # What one user-visible training and evaluation takes.
        p["pass_s"] = p["train_s"] + p["eval_s"]
        ledger.check(p["csv_sha256"], ops, f"pass {len(passes) + 1}")
        passes.append(p)
        log_pass(f"pass {len(passes)}", p)
        elapsed = time.perf_counter() - t_loop
        if elapsed >= seconds or time.perf_counter() - _T_SCRIPT + elapsed / len(passes) > RUN_BUDGET_S:
            break
    setup_s = startup_s + statistics.median(builds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": setup_s + statistics.median(p["pass_s"] for p in passes),
        "peak_rss_mb": rss_mb(),
        "ops_ok_share": (ops.attempted - ops.failed) / max(1, ops.attempted),
    }
    detail = {
        "startup_s": startup_s,
        "builds_s": builds,
        "passes": passes,
    }
    return {"metrics": metrics, "detail": detail}


def traced_run(work: Workload, ops: Ops, ledger: CsvLedger) -> dict:
    build_s, datasets = timed_build(work, ops)
    p = work.train_and_evaluate(datasets, ops, EVAL_REPEATS)
    p["setup_s"] = build_s
    untraced_wall = build_s + p["train_s"] + p["eval_s"]
    ledger.check(p["csv_sha256"], ops, "untraced pass")
    log_pass("untraced pass", p)

    tracers, walls, traced = [], [], []
    for i in range(TRACED_PASSES):
        tracer = Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            build_s, datasets = timed_build(work, ops)
            q = work.train_and_evaluate(datasets, ops)
            walls.append(time.perf_counter() - t)
        finally:
            tracer.restore()
        q["setup_s"] = build_s
        ledger.check(q["csv_sha256"], ops, f"traced pass {i + 1}")
        log_pass(f"traced pass {i + 1}", q)
        tracers.append(tracer)
        traced.append(q)
        tracer.write_jsonl(OUT / f"{work.name}-seed{work.seed}-spans{i + 1}.jsonl")

    checks = trace_checks(work, tracers)
    for problem in checks:
        ops.fail(problem)

    totals = [tr.totals() for tr in tracers]
    metrics = {}
    for name in _CALLS:
        metrics[f"{name}.calls"] = totals[0].get(name, [0, 0.0])[0]
        metrics[f"{name}.self_s"] = statistics.median(t.get(name, [0, 0.0])[1] for t in totals)
    for name in _COUNTS:
        metrics[name] = tracers[0].counts.get(name, 0)
    keeps = [k for k in traced[0]["gate_keep"] if k]
    for comp in _GATE_KEEP:
        # No gated box (baseline, dense_eval): reported as 0.
        metrics[f"xgd.gate_keep.{comp}"] = statistics.fmean(k[comp] for k in keeps) if keeps else 0.0
    for name in _ROOTS:
        metrics[f"{name}.s"] = statistics.median(sum(r.duration for r in tr.roots(name)) for tr in tracers)
    layer_shares = []
    for tr in tracers:
        roots = tr.roots("experiments.train_on_dataset")
        step_total = sum(r.duration for r in roots)
        by_layer = tr.layer_self_s({r.id for r in roots})
        layer_shares.append({k: v / step_total if step_total else 0.0 for k, v in by_layer.items()})
    for layer in LAYERS:
        metrics[f"train_step.{layer}.share"] = statistics.median(s[layer] for s in layer_shares)
    metrics["sim.train.steps_per_s"] = p["steps"] / p["train_s"] if p["steps"] else 0.0
    metrics["evaluation.scenes_per_s"] = p["scenes"] / p["eval_s"] if p["scenes"] else 0.0
    metrics["evaluation.map3d"] = p["map3d"] if math.isfinite(p["map3d"]) else 0.0
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced_wall

    summary = summarize(work, tracers[0], p, datasets, metrics)
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_walls_s": walls,
        "passes": [p, *traced],
        "exact_counts": {k: v for k, v in metrics.items() if k.endswith(".calls") or k in _COUNTS},
        "trace_checks_failed": checks,
        "summary": summary,
    }
    return {"metrics": metrics, "detail": detail}


def trace_checks(work: Workload, tracers) -> list[str]:
    problems = []
    calls = [{k: v[0] for k, v in tr.totals().items()} | dict(tr.counts) for tr in tracers]
    if any(c != calls[0] for c in calls[1:]):
        diff = sorted(k for k in set(calls[0]) | set(calls[1]) if calls[0].get(k) != calls[1].get(k))
        problems.append(f"exact counts differ between traced passes: {diff}")
    for tr in tracers:
        for root in tr.spans:
            if root.parent is not tr.stack[0]:
                continue
            total = sum(v[1] for v in tr.totals({root.id}).values())
            if abs(total - root.duration) > 1e-6 * max(1.0, root.duration):
                problems.append(f"self times under {root.name} sum to {total}, span lasts {root.duration}")
    c = calls[0]
    if work.arm is not None and work.arm.loss.xgd_weight == 0 and work.arm.loss.cld_weight == 0:
        busy = [k for k, v in c.items() if v and (k.startswith(("xgd.", "cld.")) or k == "geometry.iou3d_grad_fd")]
        if busy:
            problems.append(f"hard-label arm reached xgd/cld: {busy}")
    if work.arm is None:
        busy = [k for k in ("experiments.train_on_dataset", "sim.train", "sim.total_loss_and_grad") if c.get(k)]
        if busy:
            problems.append(f"evaluation-only workload recorded training spans: {busy}")
    return problems


def summarize(work: Workload, tracer, untraced: dict, datasets: dict, metrics: dict) -> list[str]:
    """Top layers of a training step and, for ``distill``, the projected
    headroom under the acceptance suite's wall-clock gates (criterion 1:
    60 s, criterion 7: 600 s). Projections only; the gates are not run."""
    lines = []
    shares = {k.split(".")[1]: v for k, v in metrics.items() if k.startswith("train_step.")}
    if any(shares.values()):
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        lines.append(
            f"{work.name}: top layers by self-time share of a training step: "
            + ", ".join(f"{layer} {share:.1%}" for layer, share in top)
        )
    if work.name != "distill":
        return lines
    totals = tracer.totals()
    # Criterion 1: 500 exact IoUs plus 500 Monte-Carlo estimates with 1e5 samples.
    geometry = work.geometry
    n_iou, iou_s = totals.get("geometry.iou3d", [0, 0.0])
    # Overlapping pairs: validation boxes against a shifted, turned copy.
    scene = next(iter(datasets.values())).val_scenes[0]
    pairs = [
        (box, dataclasses.replace(box, cx=box.cx + 0.2 * box.l, yaw=box.yaw + 0.3))
        for box, _ in scene.gts[:5]
    ]
    t = time.perf_counter()
    for i, (a, b) in enumerate(pairs):
        geometry.iou3d_mc_oracle(a, b, 100_000, seed=i)
    mc_s = (time.perf_counter() - t) / len(pairs)
    c1 = 500 * (mc_s + (iou_s / n_iou if n_iou else 0.0))
    lines.append(f"criterion 1 gate (60 s): projected {c1:.1f} s, headroom {60 - c1:.1f} s")
    # Criterion 7: five seeds, each one dataset build (16 + 16 scenes) and the
    # baseline and xgd_cld arms trained for the default 960 scene-steps and
    # evaluated on 16 scenes. Per-scene and per-step costs come from the
    # untraced pass; the baseline step is the distill step without the share
    # the trace puts in xgd, cld, geometry and box decoding.
    cfg = work.config
    build_per_scene = untraced["setup_s"] / (cfg.data.n_train_scenes + cfg.data.n_val_scenes)
    eval_per_scene = untraced["eval_s"] / untraced["scenes"]
    distill_step = untraced["train_s"] / untraced["steps"]
    roots = tracer.roots("experiments.train_on_dataset")
    train_total = sum(r.duration for r in roots)
    distill_only = sum(
        s
        for name, (_, s) in tracer.totals({r.id for r in roots}).items()
        if name.startswith(("xgd.", "cld.", "geometry.")) or name == "anchors.decode_deltas"
    )
    baseline_step = distill_step * (1.0 - distill_only / train_total)
    default_steps = 60 * 16
    per_seed = 32 * build_per_scene + default_steps * (distill_step + baseline_step) + 2 * 16 * eval_per_scene
    c7 = 5 * per_seed
    lines.append(
        f"criterion 7 gate (600 s): projected {c7:.0f} s "
        f"(per seed: build {32 * build_per_scene:.1f} s, xgd_cld train {default_steps * distill_step:.1f} s, "
        f"baseline train {default_steps * baseline_step:.1f} s, eval {2 * 16 * eval_per_scene:.2f} s), "
        f"headroom {600 - c7:.0f} s"
    )
    return lines


# ---------------------------------------------------------------------- main


def check_declared(names: dict[str, str], key: str) -> None:
    """The metrics this script prints must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = {m["name"]: m["unit"] for m in json.loads(path.read_text())[key]}
    if declared != names:
        raise SystemExit(f"BENCHMARK.json {key} does not match the benchmark: {sorted(set(declared) ^ set(names))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        mods = import_boxdistill()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    startup_s = seconds_since_start()
    units = per_layer_units() if args.trace else END_TO_END
    check_declared(units, "per_layer" if args.trace else "end_to_end")

    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    work = Workload(args.workload, args.seed, mods)
    ops = Ops()
    ledger = CsvLedger(
        OUT / "csv_hashes.json",
        f"{work.name}:{args.seed}:{mods[1].config_hash(work.config)}:{env['source_sha256']}:blas{env['blas_threads']}",
    )
    if args.trace:
        res = traced_run(work, ops, ledger)
    else:
        res = untraced_run(work, args.seconds, ops, ledger, startup_s)
    if env["blas_threads"] is not None and env["blas_threads"] > (env["nproc"] or 1):
        ops.fail(f"BLAS pool has {env['blas_threads']} threads, more than nproc={env['nproc']}")

    for line in res["detail"].get("summary", []):
        print("summary " + line, flush=True)
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    full = {
        "workload": work.name,
        "seed": args.seed,
        "dataset_seeds": work.seeds,
        "trace": args.trace,
        "env": env,
        "failures": ops.failures,
        **res["detail"],
        **result,
    }
    (OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
