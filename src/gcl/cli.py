"""Command-line entry point: config-driven experiment commands with
deterministic metric artifacts and an append-only JSONL run log.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure, 3 gradient
acceptance check failed. Timestamps live only in run.jsonl, so rerunning a
command with the same config and seed reproduces every metric file
byte-identically.
"""

from __future__ import annotations

import argparse
import json
import logging
import multiprocessing
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial

try:
    import resource
except ImportError:  # not POSIX: no rusage, and no fork for cell workers either
    resource = None

from . import __version__
from .augment import BIASED_KINDS
from .config import ConfigError, RunConfig, default_config, parse_config
from .contrastive import check_pretrain_dataset, pretrain
from .gradcheck import run_gradient_checks
from .graphs import atomic_open, load_tudataset
from .model import load_checkpoint, save_checkpoint
from .pipelines import (
    ExperimentBase,
    aug_grid,
    check_pairs,
    check_split,
    check_sweep_values,
    embed_dataset,
    finetune,
    linear_probe,
    loss_curve_compare,
    pattern_sweep,
    scratch_params,
    strength_sweep,
    train_from_scratch,
)

log = logging.getLogger(__name__)

OUTPUT_ENV_VAR = "GCL_OUTPUT"


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return repr(float(x))


class RunLog:
    """Append-only JSONL event log; the only artifact carrying timestamps."""

    def __init__(self, path):
        self.path = path

    def event(self, name, **payload):
        record = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "event": name,
            "payload": payload,
        }
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _write_json(path, obj):
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """The one metric CSV format: a header row, then comma-joined cells, floats (numpy's too) as
    `repr(float)` and every other cell, such as an integer index or label, as `str`."""
    lines = [header, *([_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows)]
    with atomic_open(path) as fh:
        fh.write("".join(",".join(line) + "\n" for line in lines))


def _report_dict(report):
    """An EvalReport as metrics.json holds it: every field but the wall clock, which stays in run.jsonl."""
    return {k: v for k, v in asdict(report).items() if k != "wall_clock"}


def _write_report(outdir, report):
    _write_json(os.path.join(outdir, "metrics.json"), _report_dict(report))
    rows = [*enumerate(report.fold_accuracies), ("mean", report.mean), ("std", report.std)]
    _write_csv(os.path.join(outdir, "folds.csv"), ["fold", "accuracy"], rows)


def _load_dataset(cfg: RunConfig):
    if not cfg.dataset_path or not cfg.dataset_name:
        raise ConfigError("this command needs [dataset] path and name in the config")
    try:
        dataset = load_tudataset(cfg.dataset_path, cfg.dataset_name, cfg.category)
    except ValueError as err:
        raise ConfigError(f"dataset {cfg.dataset_name}: {err}") from err
    log.info(
        "loaded %s: %d graphs, %d classes, feature_dim %d, category %s",
        dataset.name, len(dataset), dataset.num_classes, dataset.feature_dim, dataset.category,
    )
    return dataset


def _experiment_base(cfg: RunConfig, category: str) -> ExperimentBase:
    return ExperimentBase(
        encoder=cfg.encoder,
        pretrain=cfg.pretrain_config(category),
        split=cfg.split(),
        finetune_epochs=cfg.finetune_epochs,
        finetune_lr=cfg.finetune_lr,
        finetune_batch=cfg.finetune_batch,
        workers=cfg.workers,
    )


def _pool_fields(cfg: RunConfig) -> dict:
    """run.jsonl fields on the cell pool: configured workers and the peak RSS of the largest worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if resource else 0
    return {"workers": cfg.workers, "children_peak_rss_mb": peak_kb / 1024}


def _load_checkpoint_for(dataset, checkpoint):
    params = load_checkpoint(checkpoint)
    if params.feature_dim != dataset.feature_dim:
        raise ConfigError(
            f"checkpoint {checkpoint} has feature_dim {params.feature_dim}, "
            f"dataset {dataset.name} has feature_dim {dataset.feature_dim}"
        )
    return params


def _params_from_checkpoint_or_random(cfg, dataset, checkpoint):
    if checkpoint:
        return _load_checkpoint_for(dataset, checkpoint)
    return scratch_params(dataset, cfg.seed, cfg.encoder)


def _cmd_pretrain(cfg, dataset, outdir, runlog, checkpoint):
    config = cfg.pretrain_config(dataset.category)
    params, curve = pretrain(dataset, config, cfg.encoder)
    save_checkpoint(params, os.path.join(outdir, "checkpoint.json"))
    _write_csv(os.path.join(outdir, "loss_curve.csv"), ["epoch", "mean_loss"], enumerate(curve.losses, 1))
    _write_json(
        os.path.join(outdir, "metrics.json"),
        {
            "protocol": "pretrain",
            "epochs": len(curve.losses),
            "first_loss": curve.losses[0],
            "final_loss": curve.losses[-1],
            "seed": config.seed,
        },
    )
    runlog.event("pretrained", final_loss=curve.losses[-1])
    return 0


def _cmd_finetune(cfg, dataset, outdir, runlog, checkpoint):
    params = _load_checkpoint_for(dataset, checkpoint)
    report = finetune(params, dataset, cfg.split(), cfg.finetune_epochs, cfg.finetune_lr, cfg.finetune_batch)
    _write_report(outdir, report)
    runlog.event("finetuned", mean=report.mean, wall_clock=report.wall_clock)
    return 0


def _cmd_scratch(cfg, dataset, outdir, runlog, checkpoint):
    report = train_from_scratch(
        dataset, cfg.split(), cfg.finetune_epochs, cfg.finetune_lr, cfg.encoder, cfg.finetune_batch
    )
    _write_report(outdir, report)
    runlog.event("trained_from_scratch", mean=report.mean, wall_clock=report.wall_clock)
    return 0


def _cmd_embed(cfg, dataset, outdir, runlog, checkpoint):
    params = _params_from_checkpoint_or_random(cfg, dataset, checkpoint)
    emb = embed_dataset(params, dataset)
    header = ["graph", "label", *(f"e{j}" for j in range(emb.shape[1]))]
    rows = [(i, label, *row) for i, (label, row) in enumerate(zip(dataset.labels, emb))]
    _write_csv(os.path.join(outdir, "embeddings.csv"), header, rows)
    runlog.event("embedded", rows=int(emb.shape[0]), dim=int(emb.shape[1]))
    return 0


def _cmd_probe(cfg, dataset, outdir, runlog, checkpoint):
    params = _params_from_checkpoint_or_random(cfg, dataset, checkpoint)
    emb = embed_dataset(params, dataset)
    report = linear_probe(emb, dataset.labels, folds=cfg.folds, seed=cfg.seed)
    _write_report(outdir, report)
    runlog.event("probed", mean=report.mean, pretrained=bool(checkpoint), wall_clock=report.wall_clock)
    return 0


def _cmd_aug_grid(cfg, dataset, outdir, runlog, checkpoint):
    base = _experiment_base(cfg, dataset.category)
    result = aug_grid(dataset, cfg.sweep_kinds, base, ratio=cfg.sweep_ratio)
    for fname, matrix in (("grid_gain.csv", result.gains), ("grid_accuracy.csv", result.accuracies)):
        rows = [(kind, *row) for kind, row in zip(result.kinds, matrix)]
        _write_csv(os.path.join(outdir, fname), ["kind", *result.kinds], rows)
    _write_json(
        os.path.join(outdir, "metrics.json"),
        {
            "protocol": "aug_grid",
            "kinds": list(result.kinds),
            "accuracy": [[float(v) for v in row] for row in result.accuracies],
            "gain": [[float(v) for v in row] for row in result.gains],
            "scratch": _report_dict(result.scratch),
        },
    )
    runlog.event("grid_done", cells=len(result.reports), **_pool_fields(cfg))
    return 0


def _sweep_json(points, value_name):
    return [
        {
            value_name: pt.value,
            "acc_mean": pt.mean,
            "acc_std": pt.std,
            "accuracies": list(pt.accuracies),
            "gains": list(pt.gains),
        }
        for pt in points
    ]


def _cmd_sweep(protocol, cfg, dataset, outdir, runlog, checkpoint):
    """strength_sweep over [sweep] ratios or pattern_sweep over [sweep] alphas."""
    base = _experiment_base(cfg, dataset.category)
    seeds = cfg.sweep_seeds or [cfg.seed]
    if protocol == "strength_sweep":
        value_name = "ratio"
        points = strength_sweep(dataset, cfg.sweep_kind, cfg.sweep_ratios, base, seeds=seeds)
    else:
        value_name = "alpha"
        points = pattern_sweep(dataset, cfg.sweep_kind, cfg.sweep_alphas, base, ratio=cfg.sweep_ratio, seeds=seeds)
    header = [value_name, "acc_mean", "acc_std", *(f"{c}_seed{i}" for c in ("acc", "gain") for i in range(len(seeds)))]
    rows = [(pt.value, pt.mean, pt.std, *pt.accuracies, *pt.gains) for pt in points]
    _write_csv(os.path.join(outdir, "sweep.csv"), header, rows)
    _write_json(
        os.path.join(outdir, "metrics.json"),
        {"protocol": protocol, "kind": cfg.sweep_kind, "points": _sweep_json(points, value_name)},
    )
    runlog.event("sweep_done", points=len(points), **_pool_fields(cfg))
    return 0


def _cmd_loss_compare(cfg, dataset, outdir, runlog, checkpoint):
    base = _experiment_base(cfg, dataset.category)
    curves = loss_curve_compare(dataset, cfg.sweep_pairs, base, ratio=cfg.sweep_ratio)
    names = [name for name, _ in curves]
    rows = enumerate(zip(*(curve.losses for _, curve in curves)), 1)
    _write_csv(os.path.join(outdir, "curves.csv"), ["epoch", *names], [(e, *losses) for e, losses in rows])
    _write_json(
        os.path.join(outdir, "metrics.json"),
        {
            "protocol": "loss_compare",
            "pairs": names,
            "final_losses": {name: curve.losses[-1] for name, curve in curves},
        },
    )
    runlog.event("loss_compare_done", pairs=len(curves), **_pool_fields(cfg))
    return 0


def _cmd_grad_check(cfg, outdir, runlog):
    report = run_gradient_checks(draws=20, h=1e-5, tol=1e-4, seed=cfg.seed)
    _write_json(os.path.join(outdir, "gradcheck.json"), {"protocol": "grad_check", **report})
    worst = max(r["max_rel_error"] for r in report["checks"].values())
    status = "PASS" if report["passed"] else "FAIL"
    print(f"grad-check: max relative error {worst:.3e} over {report['draws']} draws -> {status}")
    runlog.event("grad_check", passed=report["passed"], max_rel_error=worst)
    return 0 if report["passed"] else 3


_DATA_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "scratch": _cmd_scratch,
    "embed": _cmd_embed,
    "probe": _cmd_probe,
    "aug-grid": _cmd_aug_grid,
    "strength-sweep": partial(_cmd_sweep, "strength_sweep"),
    "pattern-sweep": partial(_cmd_sweep, "pattern_sweep"),
    "loss-compare": _cmd_loss_compare,
}
COMMANDS = (*_DATA_COMMANDS, "grad-check")
CHECKPOINT_COMMANDS = ("finetune", "embed", "probe")
# command -> the [sweep] list it runs over and the pipelines check that list must pass
SWEEP_LISTS = {"strength-sweep": ("ratios", check_sweep_values), "pattern-sweep": ("alphas", check_sweep_values),
               "loss-compare": ("pairs", check_pairs)}
LABELED_COMMANDS = ("finetune", "scratch", "probe", "aug-grid", "strength-sweep", "pattern-sweep")
PRETRAIN_COMMANDS = ("pretrain", "aug-grid", "strength-sweep", "pattern-sweep", "loss-compare")


def dispatch(command: str, cfg: RunConfig, checkpoint: str | None = None) -> int:
    """Run one command against a validated config; returns the exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if checkpoint is not None and command not in CHECKPOINT_COMMANDS:
        raise ConfigError(f"{command} does not read --checkpoint (only {', '.join(CHECKPOINT_COMMANDS)} do)")
    if command == "finetune" and not checkpoint:
        raise ConfigError("finetune needs --checkpoint (use the scratch command for no pretraining)")
    if cfg.workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError(f"workers = {cfg.workers} needs forked worker processes, which this platform lacks")
    if command in SWEEP_LISTS:
        key, check = SWEEP_LISTS[command]
        try:
            check(getattr(cfg, f"sweep_{key}"))
        except ValueError as err:
            raise ConfigError(f"[sweep] {key}: {err}") from None
    start = time.perf_counter()
    dataset = None if command == "grad-check" else _load_dataset(cfg)
    try:
        if command in LABELED_COMMANDS:
            check_split(dataset.labels, cfg.folds, cfg.stratified, probe=command == "probe")
        if command in PRETRAIN_COMMANDS:
            check_pretrain_dataset(dataset)
    except ValueError as err:
        raise ConfigError(f"{command} on {dataset.name}: {err}") from err
    if command == "pattern-sweep" and cfg.sweep_kind not in BIASED_KINDS:
        raise ConfigError("[sweep] kind must be NodeDrop or AttrMask for pattern sweeps")
    outdir = cfg.output or os.path.join("runs", command)
    os.makedirs(outdir, exist_ok=True)
    with atomic_open(os.path.join(outdir, "config.effective.ini")) as fh:
        fh.write(cfg.effective_ini())
    runlog = RunLog(os.path.join(outdir, "run.jsonl"))
    runlog.event("start", command=command, version=__version__, seed=cfg.seed)
    if dataset is None:
        code = _cmd_grad_check(cfg, outdir, runlog)
    else:
        code = _DATA_COMMANDS[command](cfg, dataset, outdir, runlog, checkpoint)
    runlog.event("done", exit_status=code, wall_clock=time.perf_counter() - start)
    return code


def _build_parser():
    parser = _ArgumentParser(prog="gcl", description="graph contrastive learning toolkit")
    parser.add_argument("--version", action="version", version=f"gcl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="run config file (INI)")
        p.add_argument("--checkpoint", help="pretrained checkpoint to start from")
        p.add_argument("--output", help="output directory (overrides env and config)")
        p.add_argument("--workers", type=int, help="grid/sweep/loss-compare cells at once")
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config:
            cfg = parse_config(args.config)
        elif args.command == "grad-check":
            cfg = default_config()
        else:
            raise ConfigError("--config is required for this command")
        if args.output:
            cfg.output = args.output
        elif os.environ.get(OUTPUT_ENV_VAR):
            cfg.output = os.environ[OUTPUT_ENV_VAR]
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError(f"--workers must be >= 1, got {args.workers}")
            cfg.workers = args.workers
        return dispatch(args.command, cfg, checkpoint=args.checkpoint)
    except (ConfigError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure -> diagnostic + exit 2
        log.debug("runtime failure", exc_info=True)
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
