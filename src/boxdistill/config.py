"""Experiment configuration: schema, defaults, validation, canonical hash.

The on-disk format is a single JSON document mirroring the dataclass tree
below.  Unknown keys and type mismatches raise ConfigError with the full
key path so misconfigurations are easy to locate.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, get_args, get_origin

from .anchors import GridConfig
from .evaluation import EvalSettings
from .sim import LossConfig, NoiseProfile, OptimizerConfig, SceneConfig


class ConfigError(ValueError):
    """Configuration schema violation, annotated with the offending key path."""


@dataclass(frozen=True)
class DataConfig:
    n_train_scenes: int = 16
    n_val_scenes: int = 16

    def __post_init__(self) -> None:
        if self.n_train_scenes < 1 or self.n_val_scenes < 1:
            raise ValueError("scene counts must be >= 1")


@dataclass(frozen=True)
class ArmConfig:
    """One ablation arm: a name and the loss configuration it trains with."""

    name: str
    loss: LossConfig


def default_arm_matrix() -> tuple[ArmConfig, ...]:
    """Arms for the standard ablation sweep.

    Single-component and selection arms keep logit distillation on, so the
    comparison isolates the box-distillation design; the logit arms keep
    full box distillation on, isolating the classification design.
    """
    full = LossConfig()
    return (
        ArmConfig("baseline", LossConfig(xgd_weight=0.0, cld_weight=0.0)),
        ArmConfig("xgd_center", dataclasses.replace(full, xgd_components=("center",))),
        ArmConfig("xgd_size", dataclasses.replace(full, xgd_components=("size",))),
        ArmConfig("xgd_angle", dataclasses.replace(full, xgd_components=("angle",))),
        ArmConfig("high_quality_boxes", dataclasses.replace(full, xgd_selection="confidence")),
        ArmConfig("cld_positive", dataclasses.replace(full, cld_region="positive")),
        ArmConfig("classical_logits", dataclasses.replace(full, cld_mode="classical")),
        ArmConfig("xgd_cld", full),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "default"
    grid: GridConfig = GridConfig()
    scene: SceneConfig = SceneConfig()
    # The teacher is precise when right (small sigmas) but each response
    # component is grossly wrong with the corruption probability; the gate
    # exists to reject exactly those components.
    teacher_noise: NoiseProfile = NoiseProfile(
        center_sigma=0.01,
        size_sigma=0.005,
        yaw_sigma=0.005,
        score_corruption=0.10,
        depth_bias=0.0002,
    )
    loss: LossConfig = LossConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    data: DataConfig = DataConfig()
    eval: EvalSettings = EvalSettings()
    foreground_dilation: float = 0.8
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    arms: tuple[ArmConfig, ...] = field(default_factory=default_arm_matrix)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("at least one seed is required")
        # A repeated seed would be trained and averaged twice.
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        # Repeated arm names would train two arms under one label.
        names = [arm.name for arm in self.arms]
        if len(set(names)) != len(names):
            raise ValueError(f"arm names must be distinct, got {names}")
        # A positive test, so that NaN fails too.
        if not self.foreground_dilation >= 0:
            raise ValueError(f"foreground_dilation must be >= 0, got {self.foreground_dilation}")
        try:
            self.scene.check_classes(len(self.grid.classes))
        except ValueError as exc:
            raise ConfigError(f"scene: {exc}") from None
        # Objects are placed at least border_margin inside the grid's edges.
        extent = min(self.grid.nx * self.grid.cell[0], self.grid.nz * self.grid.cell[1])
        if not 2 * self.scene.border_margin < extent:
            raise ConfigError(
                f"scene: border_margin {self.scene.border_margin} leaves no placement range "
                f"on a grid {extent} m across"
            )

    def assignment_thresholds(self) -> dict[int, tuple[float, float]]:
        return {
            i: (spec.pos_iou, spec.neg_iou) for i, spec in enumerate(self.grid.classes)
        }

    def eval_iou_thresholds(self) -> dict[int, float]:
        return {i: spec.eval_iou for i, spec in enumerate(self.grid.classes)}


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


_PRIMITIVES = (int, float, str, bool)


def config_to_dict(obj: Any) -> Any:
    """Recursive plain-data view (tuples become lists) for JSON round trips."""
    if is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [config_to_dict(v) for v in obj]
    if isinstance(obj, _PRIMITIVES) or obj is None:
        return obj
    raise TypeError(f"cannot serialize config value of type {type(obj)!r}")


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _coerce(value: Any, annotation: Any, path: str) -> Any:
    origin = get_origin(annotation)
    if is_dataclass(annotation):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
        return _dataclass_from_dict(annotation, value, path)
    if origin is tuple:
        args = get_args(annotation)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
        if not math.isfinite(float(value)):
            raise ConfigError(f"{path}: must be finite")
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {type(value).__name__}")
        return value
    raise ConfigError(f"{path}: unsupported config field type {annotation!r}")


def _dataclass_from_dict(cls: type, data: dict, path: str) -> Any:
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    kwargs = {}
    for name, f in known.items():
        if name not in data:
            continue
        child_path = f"{path + '.' if path else ''}{name}"
        annotation = _resolve_annotation(cls, f)
        kwargs[name] = _coerce(data[name], annotation, child_path)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise  # already names its key path
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _resolve_annotation(cls: type, f: dataclasses.Field) -> Any:
    # Annotations are strings under `from __future__ import annotations`.
    import typing

    hints = typing.get_type_hints(cls)
    return hints[f.name]


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return _dataclass_from_dict(ExperimentConfig, data, "")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
