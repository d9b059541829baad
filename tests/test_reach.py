"""What production reaches: a profiled run of the CLI's commands.

Every function under ``src/boxdistill/`` outside ``verify.py`` must run when
``gen-data``, ``train``, ``eval``, ``ablate`` and ``replace --mode all`` run
on criterion 10's small grid, or be named in UNREACHED with the reason it
does not.  A function that loses its last production caller fails here.
"""
import ast
import sys
import threading
from pathlib import Path

import boxdistill
from boxdistill.cli import main
from boxdistill.config import config_from_dict, save_config

BENCHMARK = "benchmarks/ reads it; waits on ROADMAP item 8"
# Production passes boxes as (n, 7) rows and plain 7-tuples; the validated
# Box3D view is left to verify, the tests and benchmarks/.
VERIFY = "verify's closed forms read it; moves there with ROADMAP item 8"
UNREACHED = {
    "sim.Scene.gts": BENCHMARK,
    "geometry.Box3D.__post_init__": BENCHMARK,
    "geometry.Box3D.from_array": BENCHMARK,
    "geometry.Box3D.__iter__": BENCHMARK,
    "geometry.Box3D.as_array": VERIFY,
    "geometry.Box3D.volume": VERIFY,
    "sim.total_loss_and_grad": BENCHMARK,
    "xgd.xgd_loss": BENCHMARK,
    "xgd.xgd_loss_grad": BENCHMARK,
    "geometry.iou3d_grad_fd": BENCHMARK,
    "geometry._iou3d_rows": BENCHMARK,
    "geometry.iou3d_mc_oracle": BENCHMARK,
    "geometry._points_in_box": BENCHMARK,
    "experiments.ExperimentResult.seed_mean_map3d": BENCHMARK,
    "blas.openblas_threads": BENCHMARK,
    "sim.TrainingDivergedError.__init__": "error path: training diverges",
    "sim._NonFiniteDeltas.__init__": "error path: non-finite positive-anchor deltas",
    "sim._train.diverged": "error path: builds TrainingDivergedError",
    "cli._cmd_verify": "verify is not traced",
    "config.default_config": "config default: every command here loads a config file",
    "config.default_arm_matrix": "config default: the loaded config lists its arms",
    "config.save_config": "documented in the README for writing config files",
}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function and lambda
    under src/boxdistill/ but verify.py.  The first line is that of the
    first decorator if any, as in the function's code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
                first = min([d.lineno for d in getattr(child, "decorator_list", ())] + [child.lineno])
                out[(str(path), first)] = f"{prefix}{name}"
                walk(child, path, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(Path(boxdistill.__file__).parent.glob("*.py")):
        if path.name != "verify.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


def test_production_reaches_every_function_but_the_unreached_list(tmp_path, capsys):
    # Criterion 10's grid, scenes and seeds, with ablate's default arm
    # matrix: one arm alone would leave the summary's paired deltas unrun.
    config = config_from_dict(
        {
            "name": "reach",
            "grid": {"x_range": [0.0, 16.0], "z_range": [0.0, 16.0], "cell": [1.0, 1.0]},
            "scene": {"n_objects": [2, 4], "border_margin": 2.0, "class_weights": []},
            "data": {"n_train_scenes": 3, "n_val_scenes": 3},
            "optimizer": {"epochs": 4},
            "seeds": [0, 1],
        }
    )
    path = str(tmp_path / "config.json")
    save_config(config, path)
    commands = (
        ["gen-data", path, str(tmp_path / "data")],
        ["train", path, "--out", str(tmp_path / "train")],
        ["eval", path, str(tmp_path / "train" / "params_seed0.json")],
        ["ablate", path, "--out", str(tmp_path / "ablate")],
        ["replace", path, "--mode", "all", "--out", str(tmp_path / "replace")],
    )
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # Training's worker threads start inside the run and take the
    # threading profile.
    saved = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        statuses = [main(argv) for argv in commands]
    finally:
        sys.setprofile(saved[0])
        threading.setprofile(saved[1])
    capsys.readouterr()
    assert statuses == [0] * len(commands)
    unrun = {name for key, name in _functions().items() if key not in ran}
    assert unrun == set(UNREACHED), (
        f"unrun but not listed: {sorted(unrun - set(UNREACHED))}; "
        f"listed but run: {sorted(set(UNREACHED) - unrun)}"
    )
