"""Experiment orchestration: datasets, training runs, ablation arms, the
teacher-substitution study, CSV metric tables, and structured reports.

Every run is a pure function of (config, seeds); repeated runs write
byte-identical CSV files.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import anchors
from .anchors import AnchorGrid, Assignment, assign_targets, build_anchor_grid
from .blas import openblas_corename
from .config import ExperimentConfig, config_hash, config_to_dict
from .evaluation import EvalReport, evaluate_outputs
from .sim import (
    DetectorParams,
    LossConfig,
    Scene,
    TeacherResponse,
    TrainResult,
    generate_scene,
    replace_outputs,
    student_forward,
    teacher_predict,
    train,
)

CSV_COLUMNS = (
    "experiment",
    "arm",
    "class",
    "iou_thr",
    "seed",
    "ap3d",
    "ap_bev",
    "n_pos_mean",
    "gate_keep_rate_center",
    "gate_keep_rate_size",
    "gate_keep_rate_angle",
)

# Scene seeds are derived from the run seed; the offset keeps validation
# scenes disjoint from training scenes for any sane scene count.
_SEED_STRIDE = 1_000_003
_VAL_OFFSET = 500_000


def train_scene_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


def val_scene_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + _VAL_OFFSET + index


@dataclass
class SeedDataset:
    """Everything one training/evaluation run needs, fixed per seed.

    Both splits' assignments and teacher responses are built on first read
    and kept.  Only training reads the training split's, and only the
    teacher-substitution study the validation split's, so a run that
    scores the student alone never builds the validation ones, and one
    that only writes or scores scenes builds neither.
    """

    seed: int
    config: ExperimentConfig
    grid: AnchorGrid
    train_scenes: list[Scene]
    val_scenes: list[Scene]

    @cached_property
    def train_assignments(self) -> list[Assignment]:
        return _assign(self.config, self.grid, self.train_scenes)

    @cached_property
    def teacher_train(self) -> list[TeacherResponse]:
        """The teacher's positive-anchor rows on the training scenes."""
        return _teacher(self.config, self.grid, self.train_scenes, self.train_assignments)

    @cached_property
    def val_assignments(self) -> list[Assignment]:
        return _assign(self.config, self.grid, self.val_scenes)

    @cached_property
    def teacher_val(self) -> list[TeacherResponse]:
        """The teacher's rows on the validation scenes; replace_outputs
        builds a dense head from them only to substitute it, one scene at
        a time."""
        return _teacher(self.config, self.grid, self.val_scenes, self.val_assignments)


def _assign(config: ExperimentConfig, grid: AnchorGrid, scenes: list[Scene]) -> list[Assignment]:
    thresholds = config.assignment_thresholds()
    return [
        assign_targets(grid, sc.boxes, sc.class_ids, thresholds, anchors.FOREGROUND_DILATION)
        for sc in scenes
    ]


def _teacher(
    config: ExperimentConfig, grid: AnchorGrid, scenes: list[Scene], assignments: list[Assignment]
) -> list[TeacherResponse]:
    return [teacher_predict(sc, config.teacher_noise, grid, asg) for sc, asg in zip(scenes, assignments)]


def build_dataset(config: ExperimentConfig, seed: int, grid: AnchorGrid | None = None) -> SeedDataset:
    grid = grid or build_anchor_grid(config.grid)
    train_scenes = [
        generate_scene(train_scene_seed(seed, i), config.scene, grid)
        for i in range(config.data.n_train_scenes)
    ]
    val_scenes = [
        generate_scene(val_scene_seed(seed, i), config.scene, grid)
        for i in range(config.data.n_val_scenes)
    ]
    return SeedDataset(
        seed=seed, config=config, grid=grid, train_scenes=train_scenes, val_scenes=val_scenes
    )


def train_on_dataset(
    dataset: SeedDataset, loss_cfg: LossConfig, config: ExperimentConfig
) -> TrainResult:
    return train(
        dataset.grid,
        dataset.train_scenes,
        dataset.teacher_train,
        dataset.train_assignments,
        loss_cfg,
        config.optimizer,
        dataset.seed,
    )


def evaluate_params(
    params: DetectorParams,
    dataset: SeedDataset,
    config: ExperimentConfig,
    replace_mode: str = "none",
    metadata: dict | None = None,
) -> EvalReport:
    """Run the student on the validation scenes and score it.

    ``replace_mode`` substitutes the teacher's heads before decoding, which
    realizes the upper-bound substitution study; with ``"both"`` no student
    forward pass runs, and with ``"none"`` the validation teacher is never
    read.  Scenes are decoded one at a time, so one scene's dense outputs
    are alive at once.
    """
    grid = dataset.grid
    widths = (params.w_cls.shape[1], params.w_reg.shape[1])
    if widths != (grid.k_a * grid.k_c, grid.k_a * 7):
        raise ValueError(
            f"params do not fit the grid: their heads are {widths[0]} (w_cls) and {widths[1]}"
            f" (w_reg) wide, the grid's k_a*k_c = {grid.k_a}*{grid.k_c} = {grid.k_a * grid.k_c}"
            f" and k_a*7 = {grid.k_a * 7}"
        )

    def outputs():
        if replace_mode == "none":
            for scene in dataset.val_scenes:
                yield student_forward(params, scene)
            return
        for scene, teacher in zip(dataset.val_scenes, dataset.teacher_val):
            if replace_mode == "both":
                yield teacher.dense()
            else:
                yield replace_outputs(student_forward(params, scene), teacher, replace_mode)

    return evaluate_outputs(
        outputs(),
        dataset.val_scenes,
        grid,
        config.eval_iou_thresholds(),
        seed=dataset.seed,
        config_hash=config_hash(config),
        metadata=metadata or {},
    )


@dataclass
class RunRecord:
    arm: str
    seed: int
    report: EvalReport
    train_result: TrainResult | None = None

    def n_pos_mean(self) -> float:
        if self.train_result is None or not self.train_result.history:
            return math.nan
        return self.train_result.history[-1].n_pos_mean

    def gate_keep(self) -> dict[str, float]:
        return self.train_result.final_gate_keep() if self.train_result else {}


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[RunRecord] = field(default_factory=list)

    def rows(self) -> list[dict[str, object]]:
        out = []
        for rec in sorted(self.records, key=lambda r: (r.arm, r.seed)):
            keep = rec.gate_keep()
            for ce in rec.report.per_class:
                out.append(
                    {
                        "experiment": self.config.name,
                        "arm": rec.arm,
                        "class": ce.class_name,
                        "iou_thr": ce.iou_threshold,
                        "seed": rec.seed,
                        "ap3d": ce.ap3d,
                        "ap_bev": ce.ap_bev,
                        "n_pos_mean": rec.n_pos_mean(),
                        "gate_keep_rate_center": keep.get("center", math.nan),
                        "gate_keep_rate_size": keep.get("size", math.nan),
                        "gate_keep_rate_angle": keep.get("angle", math.nan),
                    }
                )
        return out

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows():
            writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.csv_text(), encoding="utf-8")

    def seed_mean_ap3d(self, arm: str) -> dict[str, float]:
        """Per-class AP3D averaged over seeds for one arm."""
        acc: dict[str, list[float]] = {}
        for rec in self.records:
            if rec.arm != arm:
                continue
            for name, ap in rec.report.ap3d_by_class().items():
                acc.setdefault(name, []).append(ap)
        return {name: float(np.mean(aps)) for name, aps in acc.items()}

    def seed_mean_map3d(self, arm: str) -> float:
        per_class = self.seed_mean_ap3d(arm)
        return float(np.mean(list(per_class.values())))

    def paired_deltas(self, arm: str, baseline: str) -> dict[int, float]:
        """Per-seed mean-AP3D difference arm minus baseline."""
        by_key = {(r.arm, r.seed): r.report.mean_ap3d() for r in self.records}
        out = {}
        for seed in self.config.seeds:
            if (arm, seed) in by_key and (baseline, seed) in by_key:
                out[seed] = by_key[(arm, seed)] - by_key[(baseline, seed)]
        return out

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """arm -> class -> {mean, std} of AP3D over seeds."""
        acc: dict[str, dict[str, list[float]]] = {}
        for rec in self.records:
            for ce in rec.report.per_class:
                acc.setdefault(rec.arm, {}).setdefault(ce.class_name, []).append(ce.ap3d)
        return {
            arm: {
                cls: {"mean": float(np.mean(v)), "std": float(np.std(v))}
                for cls, v in classes.items()
            }
            for arm, classes in acc.items()
        }

    def summary_json(self) -> str:
        payload = {
            "experiment": self.config.name,
            "config_hash": config_hash(self.config),
            "seeds": list(self.config.seeds),
            "aggregate_ap3d": self.aggregate(),
        }
        arms = {rec.arm for rec in self.records}
        if "baseline" in arms and len(arms) > 1:
            payload["paired_mean_ap3d_delta_vs_baseline"] = {
                arm: {str(seed): delta for seed, delta in self.paired_deltas(arm, "baseline").items()}
                for arm in sorted(arms - {"baseline"})
            }
        return json.dumps(payload, indent=2, sort_keys=True)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def run_ablations(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> ExperimentResult:
    """Train every configured arm on shared per-seed datasets and evaluate them."""
    result = ExperimentResult(config=config)
    grid = build_anchor_grid(config.grid)
    for seed in config.seeds:
        dataset = build_dataset(config, seed, grid)
        for arm in config.arms:
            train_result = train_on_dataset(dataset, arm.loss, config)
            report = evaluate_params(
                train_result.params, dataset, config, metadata={"arm": arm.name}
            )
            result.records.append(RunRecord(arm.name, seed, report, train_result))
    if out_dir is not None:
        _write_outputs(result, out_dir, "ablations")
    return result


REPLACEMENT_MODES = ("none", "regression", "classification", "both")


def run_replacement_study(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    modes: Sequence[str] = REPLACEMENT_MODES,
) -> ExperimentResult:
    """Evaluate a hard-label student with teacher heads substituted in.

    Students are trained per seed with distillation off: the substitution
    study measures head quality, not distillation.
    """
    result = ExperimentResult(config=config)
    grid = build_anchor_grid(config.grid)
    hard_label = LossConfig(xgd_weight=0.0, cld_weight=0.0)
    for seed in config.seeds:
        dataset = build_dataset(config, seed, grid)
        train_result = train_on_dataset(dataset, hard_label, config)
        for mode in modes:
            report = evaluate_params(
                train_result.params, dataset, config, replace_mode=mode, metadata={"arm": mode}
            )
            result.records.append(RunRecord(mode, seed, report, train_result))
    if out_dir is not None:
        _write_outputs(result, out_dir, "replacement")
    return result


def _write_outputs(result: ExperimentResult, out_dir: str | Path, stem: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.write_csv(out / f"{stem}.csv")
    (out / f"{stem}_summary.json").write_text(result.summary_json() + "\n", encoding="utf-8")
    report = {
        "config": config_to_dict(result.config),
        "config_hash": config_hash(result.config),
        # Trained bits hold per BLAS kernel, so the report names it.
        "openblas_core": openblas_corename(),
        "runs": [
            {
                "arm": rec.arm,
                "seed": rec.seed,
                "gate_keep": rec.gate_keep(),
                "loss_history": [
                    asdict(h) for h in (rec.train_result.history if rec.train_result else [])
                ],
            }
            for rec in sorted(result.records, key=lambda r: (r.arm, r.seed))
        ],
    }
    (out / f"{stem}_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def save_params(params: DetectorParams, path: str | Path, seed: int, cfg_hash: str) -> None:
    payload = {
        "seed": seed,
        "config_hash": cfg_hash,
        "w_cls": params.w_cls.tolist(),
        "b_cls": params.b_cls.tolist(),
        "w_reg": params.w_reg.tolist(),
        "b_reg": params.b_reg.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_params(path: str | Path) -> tuple[DetectorParams, dict]:
    """Read what ``save_params`` wrote; ValueError names the file and a
    missing weight."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    names = ("w_cls", "b_cls", "w_reg", "b_reg")
    for name in names:
        if name not in data:
            raise ValueError(f"{path}: params file has no {name!r}")
    params = DetectorParams(*(np.array(data[name], dtype=float) for name in names))
    meta = {"seed": data.get("seed"), "config_hash": data.get("config_hash", "")}
    return params, meta
