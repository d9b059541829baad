"""Command-line interface.

Subcommands: gen-data, train, eval, ablate, replace, verify.  All commands
take a JSON config file (missing keys fall back to documented defaults);
outputs are deterministic CSV/JSON files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .anchors import build_anchor_grid
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    default_config,
    load_config,
)
from .experiments import (
    REPLACEMENT_MODES,
    build_dataset,
    evaluate_params,
    load_params,
    run_ablations,
    run_replacement_study,
    save_params,
    train_on_dataset,
)
from .sim import save_scenes
from .verify import verify_suite


def _load(path: str | None) -> ExperimentConfig:
    if path is None:
        return default_config()
    return load_config(path)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = _load(args.config)
    grid = build_anchor_grid(config.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in config.seeds:
        dataset = build_dataset(config, seed, grid)
        save_scenes(out / f"train_seed{seed}.jsonl", dataset.train_scenes)
        save_scenes(out / f"val_seed{seed}.jsonl", dataset.val_scenes)
    print(f"wrote scene files for seeds {list(config.seeds)} to {out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(config)
    grid = build_anchor_grid(config.grid)
    for seed in config.seeds:
        dataset = build_dataset(config, seed, grid)
        result = train_on_dataset(dataset, config.loss, config)
        save_params(result.params, out / f"params_seed{seed}.json", seed, cfg_hash)
        history = [asdict(h) for h in result.history]
        (out / f"history_seed{seed}.json").write_text(
            json.dumps(history, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if result.history:
            final = result.history[-1]
            summary = f"final total={final.total:.4f} ori={final.ori:.4f}"
        else:
            summary = "0 epochs, initialized model"
        print(f"seed {seed}: {summary} -> {out / f'params_seed{seed}.json'}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load(args.config)
    params, meta = load_params(args.params)
    trained_under, scored_under = meta["config_hash"], config_hash(config)
    if trained_under and trained_under != scored_under:
        print(
            f"note: {args.params} was trained under config {trained_under}, "
            f"scored here under {scored_under}",
            file=sys.stderr,
        )
    seed = meta.get("seed")
    if seed is None:
        seed = config.seeds[0]
    dataset = build_dataset(config, int(seed))
    report = evaluate_params(params, dataset, config)
    payload = {
        "seed": report.seed,
        "config_hash": report.config_hash,
        "per_class": [
            {
                "class": ce.class_name,
                "iou_thr": ce.iou_threshold,
                "ap3d": ce.ap3d,
                "ap_bev": ce.ap_bev,
                "tp": ce.tp,
                "fp": ce.fp,
                "fn": ce.fn,
            }
            for ce in report.per_class
        ],
        "mean_ap3d": report.mean_ap3d(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _load(args.config)
    result = run_ablations(config, out_dir=args.out)
    agg = result.aggregate()
    for arm in sorted(agg):
        means = {cls: round(v["mean"], 4) for cls, v in sorted(agg[arm].items())}
        print(f"{arm}: {means}")
    print(f"wrote ablations CSV and reports to {args.out}")
    return 0


def _cmd_replace(args: argparse.Namespace) -> int:
    config = _load(args.config)
    modes = REPLACEMENT_MODES if args.mode == "all" else (args.mode,)
    result = run_replacement_study(config, out_dir=args.out, modes=modes)
    for arm in modes:
        per_class = result.seed_mean_ap3d(arm)
        print(f"{arm}: " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(per_class.items())))
    print(f"wrote replacement study to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_suite(fast=args.fast)
    failed = sum(not r.passed for r in results)
    summary = {
        "checks": len(results),
        "failed": failed,
        "results": [
            {"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results
        ],
    }
    try:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {res.name} ({res.seconds:.1f}s): {res.detail}")
        print(json.dumps(summary, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped reading (`verify | head`); the checks' status
        # stands.  Output still buffered goes to devnull, so the
        # interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxdistill",
        description="Synthetic test bench for response-level 3D-detector distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and serialize scene datasets")
    p.add_argument("config", nargs="?", default=None, help="JSON config (defaults if omitted)")
    p.add_argument("out", help="output directory for scene JSONL files")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train the student for every configured seed")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--out", default="runs/train", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate saved parameters on the validation split")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("params", help="params JSON produced by `train`")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the configured ablation arm matrix")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--out", default="runs/ablations")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("replace", help="teacher-substitution study")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument(
        "--mode",
        default="all",
        choices=("all",) + REPLACEMENT_MODES,
        help="which head(s) to replace with the teacher's",
    )
    p.add_argument("--out", default="runs/replacement")
    p.set_defaults(func=_cmd_replace)

    p = sub.add_parser("verify", help="run the oracle-backed verification suite")
    p.add_argument("--fast", action="store_true", help="smaller sample counts")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
