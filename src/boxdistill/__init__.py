"""Synthetic test bench for response-level distillation of anchor-based
3D detectors: exact rotated-box geometry, component-gated box distillation,
cross-anchor logit distillation, a trainable toy detector pair, and
40-recall-point average-precision evaluation."""

from .anchors import (
    AnchorGrid,
    Assignment,
    ClassSpec,
    GridConfig,
    assign_targets,
    build_anchor_grid,
    decode_deltas,
    encode_deltas,
    foreground_mask,
)
from .cld import (
    LogitMap,
    UnifiedDistribution,
    cld_grad,
    cld_loss,
    unified_distribution,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    default_config,
    load_config,
)
from .evaluation import Detection, EvalReport, decode_and_nms
from .geometry import (
    Box3D,
    GeometryFlags,
    bev_iou,
    iou3d,
    iou3d_grad_fd,
    iou3d_mc_oracle,
    wrap_angle,
)
from .sim import (
    DetectorOutputs,
    DetectorParams,
    LossConfig,
    NoiseProfile,
    Scene,
    SceneConfig,
    TeacherResponse,
    generate_scene,
    replace_outputs,
    student_forward,
    teacher_predict,
    train,
)
from .xgd import (
    positive_component_update,
    xgd_loss,
    xgd_loss_grad,
)

__version__ = "0.1.0"
