"""Command-line surface.

Subcommands: ``synth`` (generate a dataset), ``train`` (one fold),
``eval`` (whole protocol, or one saved checkpoint) and ``sweep`` (grid
of config overrides, one report per point plus a summary table).
``train`` and ``eval`` run the same per-fold chain as the protocol,
``evalmetrics.run_fold`` and ``evalmetrics.score_fold``.

Exit codes: 0 success, 2 configuration problems (unreadable inputs
among them), 3 runtime failures (a leakage guard among them).  Every
output file carries the resolved config hash; datasets, transforms and
model states are saved as one ``.npz`` file each.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import sys
from multiprocessing import get_context
from pathlib import Path

from .blobio import BlobFormatError
from .config import (
    ConfigError,
    RunConfig,
    canonical_hash,
    load_config,
    parse_synth_doc,
    read_json_object,
    synth_resolved,
)
from .evalmetrics import (
    EvalReport,
    _guard_fold,
    check_protocol,
    run_fold,
    run_protocol,
    score_fold,
    write_report_csv,
    write_report_json,
)
from .fbcsp import load_transform, save_transform
from .model import MultiTaskAE
from .trainer import load_model_state, save_model_state, write_train_log_csv
from .trialdata import generate_synthetic, make_splits, save_trialset


def _prepare(cfg: RunConfig):
    ts = cfg.load_dataset()
    try:
        bank = cfg.make_bank(ts.fs)
        plan = make_splits(ts, cfg.protocol_kind, cfg.protocol_k,
                           cfg.train.seed)
        dims = check_protocol(ts, bank, plan, cfg.train)
    except ValueError as exc:
        raise ConfigError(f"config cannot run on this dataset: {exc}") from exc
    return ts, bank, plan, dims


def _fold_or_die(plan, index: int):
    if not 0 <= index < len(plan.folds):
        raise ConfigError(
            f"fold {index} out of range; plan has {len(plan.folds)} folds")
    return plan.folds[index]


def _load(loader, path, flag: str):
    try:
        return loader(path)
    except BlobFormatError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    doc = ({} if args.spec is None
           else read_json_object(args.spec, "synth spec", "spec"))
    spec = parse_synth_doc(doc, where="synth spec")
    spec_hash = canonical_hash(synth_resolved(spec))
    ts = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dataset.npz"
    save_trialset(ts, path, extra_meta={"config_hash": spec_hash})
    print(f"wrote {path}: {ts.n_trials} trials, {ts.n_channels} channels, "
          f"{ts.n_samples} samples at {ts.fs:g} Hz")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    chash = cfg.config_hash()
    ts, bank, plan, dims = _prepare(cfg)
    fold = _fold_or_die(plan, args.fold)
    xf, result, row = run_fold(ts, fold, args.fold, cfg.train, bank, dims)

    out = _outdir(cfg)
    save_transform(xf, out / f"transform_fold{args.fold}.npz",
                   extra_meta={"config_hash": chash})
    save_model_state(out / f"model_fold{args.fold}.npz", result.state,
                     meta={"config_hash": chash, "fold": args.fold,
                           "t": dims.t, "u": dims.u,
                           "n_bands": dims.n_bands,
                           "latent": dims.latent,
                           "n_classes": dims.n_classes})
    write_train_log_csv(result.log, out / f"trainlog_fold{args.fold}.csv",
                        config_hash=chash)
    last = result.log.rows[-1]
    auc = "NA" if row.auc is None else f"{row.auc:.4f}"
    print(f"fold {args.fold}: stopped at epoch {result.log.stopped_epoch}, "
          f"best epoch {result.log.best_epoch}, "
          f"final weights ({last.weights[0]:.3f}, {last.weights[1]:.3f}, "
          f"{last.weights[2]:.3f}), test accuracy {row.accuracy:.4f} "
          f"f1 {row.f1:.4f} auc {auc}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    chash = cfg.config_hash()
    ts, bank, plan, dims = _prepare(cfg)
    out = _outdir(cfg)

    if args.checkpoint is not None:
        fold = _fold_or_die(plan, args.fold)
        tpath = args.transform
        if tpath is None:
            tpath = Path(cfg.output_dir) / f"transform_fold{args.fold}.npz"
        xf = _load(load_transform, tpath, "--transform")
        _guard_fold(ts, fold, xf, bank, cfg.train.u)
        state, meta = _load(load_model_state, args.checkpoint, "--checkpoint")
        if meta.get("fold") != args.fold:
            raise AssertionError(
                f"checkpoint {args.checkpoint} was trained for fold "
                f"{meta.get('fold')}, not fold {args.fold}: its training "
                f"set may hold fold {args.fold}'s test trials")
        model = MultiTaskAE(dims)
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"checkpoint {args.checkpoint} does not fit the config: "
                f"{exc}") from exc
        report = EvalReport(kind=plan.kind, k=plan.k, seed=cfg.train.seed,
                            rows=[score_fold(model, xf, ts, fold)])
        stem = f"eval_fold{args.fold}"
    else:
        report = run_protocol(ts, plan, cfg.train, bank=bank)
        stem = "eval_report"

    write_report_json(report, out / f"{stem}.json", config_hash=chash)
    write_report_csv(report, out / f"{stem}.csv", config_hash=chash)
    agg = report.aggregate()
    auc_s = ("NA" if agg["auc_mean"] is None
             else f"{agg['auc_mean']:.4f}+/-{agg['auc_sd']:.4f}")
    print(f"accuracy {agg['accuracy_mean']:.4f}+/-{agg['accuracy_sd']:.4f}  "
          f"f1 {agg['f1_mean']:.4f}+/-{agg['f1_sd']:.4f}  auc {auc_s}")
    return 0


def _parse_grid(specs) -> list:
    """``path.to.key=v1,v2`` strings -> list of (path parts, values)."""
    axes = []
    for spec in specs:
        path, _, raw = spec.partition("=")
        parts = path.strip().split(".")
        if not raw or not all(parts):
            raise ConfigError(f"grid entry {spec!r} is not path.key=v,...")
        values = []
        for chunk in raw.split(","):
            chunk = chunk.strip()
            try:
                values.append(json.loads(chunk))
            except json.JSONDecodeError:
                values.append(chunk)
        axes.append((parts, values))
    return axes


def _sweep_point(doc):
    cfg = RunConfig.from_dict(doc)
    ts, bank, plan, _ = _prepare(cfg)
    return cfg.config_hash(), run_protocol(ts, plan, cfg.train, bank=bank)


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = load_config(args.config)
    base_hash = cfg.config_hash()
    axes = _parse_grid(args.grid)
    if not axes:
        raise ConfigError("sweep needs at least one --grid entry")

    combos = list(itertools.product(*(vals for _, vals in axes)))
    points = []
    for combo in combos:
        doc = copy.deepcopy(cfg.resolved())
        for (parts, _), value in zip(axes, combo):
            parent = doc
            for part in parts[:-1]:
                parent = parent.get(part)
                if not isinstance(parent, dict):
                    raise ConfigError(f"grid path {'.'.join(parts)!r}: "
                                      f"{part!r} is not a config section")
            parent[parts[-1]] = value
        RunConfig.from_dict(doc)      # validate before any work
        points.append(doc)

    workers = min(args.workers, len(points))
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_sweep_point, points)
    else:
        results = [_sweep_point(p) for p in points]

    out = _outdir(cfg)
    names = [".".join(parts) for parts, _ in axes]
    lines = [f"# config_hash={base_hash}",
             "point," + ",".join(names)
             + ",accuracy_mean,accuracy_sd,f1_mean,f1_sd,auc_mean,auc_sd"
             + ",report"]
    for index, (combo, (point_hash, report)) in enumerate(
            zip(combos, results)):
        stem = f"report_point{index:03d}"
        write_report_json(report, out / f"{stem}.json",
                          config_hash=point_hash)
        write_report_csv(report, out / f"{stem}.csv",
                         config_hash=point_hash)
        agg = report.aggregate()
        cells = [str(index)]
        cells += [json.dumps(v) for v in combo]
        for key in ("accuracy_mean", "accuracy_sd", "f1_mean", "f1_sd",
                    "auc_mean", "auc_sd"):
            v = agg[key]
            cells.append("NA" if v is None else f"{v:.6f}")
        cells.append(f"{stem}.json")
        lines.append(",".join(cells))
    summary = out / "sweep_summary.csv"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines[1:]))
    print(f"wrote {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specblend",
        description="Spectral-spatial EEG pipeline with an adaptively "
                    "blended multi-task autoencoder.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", default=None,
                   help="JSON synth spec (defaults apply when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one fold")
    p.add_argument("--config", required=True)
    p.add_argument("--fold", type=int, default=0,
                   help="global fold index into the split plan")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the evaluation protocol, or "
                                    "score one saved checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="model_fold<k>.npz that train saved for --fold; "
                        "evaluates that single fold")
    p.add_argument("--transform", default=None,
                   help="transform .npz (defaults to the "
                        "transform_fold<k>.npz that train saved for --fold)")
    p.add_argument("--fold", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid of config overrides")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", action="append", default=[],
                   metavar="PATH.KEY=V1,V2",
                   help="may be repeated; points are the cartesian product")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:          # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
