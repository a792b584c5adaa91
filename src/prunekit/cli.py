"""Command-line surface: train / prune / eval / ablation / rate-sweep /
check-grad / report."""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import gradcheck, metrics
from .data import DataError, Dataset, load_cifar10, synth_dataset
from .losses import LOSS_KEYS
from .network import Network, load, reference_specs, save
from .pruner import PruneConfig, prune_model, prune_runs, train_baseline


def read_config(path: str) -> dict:
    """Parse a flat key=value file (``#`` starts a comment) into a dict of
    strings, one per flag it sets."""
    if not os.path.exists(path):
        raise DataError(f"config file {path} does not exist")
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            overrides[key] = value
    return overrides


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default="synth", choices=["synth", "cifar"],
                   help="dataset source")
    p.add_argument("--data-dir", default="", help="directory with CIFAR-10 binaries")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--image-size", type=int, default=12)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--train-cap", type=int, default=0,
                   help="cap on CIFAR train examples (0 = all)")
    p.add_argument("--test-cap", type=int, default=0)


def _load_dataset(args) -> Dataset:
    if args.data == "cifar":
        if not args.data_dir:
            raise DataError("--data cifar requires --data-dir")
        return load_cifar10(args.data_dir,
                            train_cap=args.train_cap or None,
                            test_cap=args.test_cap or None)
    if args.data_seed < 0:
        raise ValueError(f"--data-seed must be >= 0, got {args.data_seed}")
    return synth_dataset(args.classes, args.per_class, image_size=args.image_size,
                         seed=args.data_seed)


def _loss_set(text: str) -> frozenset:
    return frozenset(p.strip() for p in text.split(",") if p.strip())


def _add_prune_args(p: argparse.ArgumentParser) -> None:
    """One flag per ``PruneConfig`` field, in field order, with its default."""
    for f in fields(PruneConfig):
        if f.name == "enabled_losses":  # argparse runs the string default through type
            p.add_argument("--losses", dest=f.name, metavar="LOSSES", type=_loss_set,
                           help=f"comma-separated subset of {','.join(LOSS_KEYS)}",
                           default=",".join(k for k in LOSS_KEYS if k in f.default))
        else:
            default = 0.3 if f.name == "rate" else f.default  # rate has no config default
            p.add_argument("--" + f.name.replace("_", "-"), type=type(default), default=default)


def _prune_config(args, **row) -> PruneConfig:
    """The config the prune flags give, with ``row``'s fields in place of
    theirs; ``PruneConfig`` checks only the values it gets."""
    return PruneConfig(**{**{f.name: getattr(args, f.name) for f in fields(PruneConfig)},
                          **row})


def _masked_table(args, name: str, key: str, rows: list[tuple], columns: list[str]) -> int:
    """Prune the baseline under each ``(label, fields)`` row once per seed: the
    prune flags' config with the row's fields, the seed and no fine-tuning in
    place of theirs, since the table reports masked errors only. Each row gets
    the seed-order mean of its masked errors; ``<name>.csv`` holds them as
    ``repr`` floats, ``<name>.txt`` and stdout as an aligned table."""
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    seeds = range(args.seeds)
    cfgs = [_prune_config(args, **row, seed=seed, finetune_epochs=0)
            for _, row in rows for seed in seeds]
    dataset, net = _load_dataset(args), load(args.model)
    reports = [report for _, report in prune_runs(net, cfgs, dataset)]
    summary = []
    for i, (label, _) in enumerate(rows):
        runs = reports[i * len(seeds):(i + 1) * len(seeds)]
        summary.append({key: label,
                        "train_error": float(np.mean([r.masked_train_error for r in runs])),
                        "test_error": float(np.mean([r.masked_test_error for r in runs]))})
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, name + ".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([key, *columns])
        writer.writerows([row[key], *(repr(row[c]) for c in columns)] for row in summary)
    text = metrics.format_table(summary, [key, *columns])
    with open(os.path.join(args.out, name + ".txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    rng = np.random.default_rng(args.seed)
    c, h, _ = dataset.image_shape
    net = Network.initialize(reference_specs(c, h, dataset.num_classes),
                             dataset.image_shape, dataset.num_classes, rng)
    log = train_baseline(net, dataset, args.epochs, eta=args.eta,
                         batch_size=args.batch_size, seed=args.seed)
    save(net, args.model)
    final = log[-1]
    print(f"trained {args.epochs} epochs: train_err={final['train_error']:.4f} "
          f"test_err={final['test_error']:.4f} -> {args.model}")
    return 0


def cmd_prune(args) -> int:
    dataset, net = _load_dataset(args), load(args.model)
    cfg = _prune_config(args)
    final, report = prune_model(net, cfg, dataset)
    os.makedirs(args.out, exist_ok=True)
    save(final, os.path.join(args.out, "pruned.prnk"))
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    report.write_loss_curves(args.out)
    print(f"pruned rate={cfg.rate}: baseline_test={report.baseline_test_error:.4f} "
          f"masked_test={report.masked_test_error:.4f} "
          f"final_test={report.final_test_error:.4f} "
          f"params {report.stats.param_ratio:.2f}x flops {report.stats.flops_ratio:.2f}x")
    return 0


def cmd_eval(args) -> int:
    dataset, net = _load_dataset(args), load(args.model)
    err = metrics.evaluate(net, dataset, split=args.split)
    print(f"{args.split}_error={err:.4f}")
    return 0


def cmd_ablation(args) -> int:
    return _masked_table(args, "ablation", "losses",
                         [(metrics.loss_combo_label(combo), {"enabled_losses": combo})
                          for combo in metrics.ABLATION_COMBOS],
                         ["train_error", "test_error"])


def cmd_rate_sweep(args) -> int:
    try:
        rates = [float(r) for r in args.rates.split(",")]
        for rate in rates:
            PruneConfig(rate)  # the rate check alone: every other field is a valid default
    except ValueError as exc:
        raise ValueError(f"--rates: {exc}") from None
    return _masked_table(args, "rate_sweep", "rate",
                         [(rate, {"rate": rate}) for rate in rates],
                         ["test_error"])


def cmd_check_grad(args) -> int:
    results = gradcheck.run_suite(n_seeds=args.seeds)
    failed = False
    for name, worst, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name:<24} max_rel_err={worst:.3e}")
        failed |= not ok
    return 1 if failed else 0


def cmd_report(args) -> int:
    with open(args.report) as fh:
        doc = json.load(fh)
    try:
        errors = doc["errors"]
        comp = doc["compression"]
        rows = [{"stage": stage, "train_error": errors[stage]["train"],
                 "test_error": errors[stage]["test"]}
                for stage in ("baseline", "masked", "final")]
        lines = [
            f"configuration: {doc['config']}",
            metrics.format_table(rows, ["stage", "train_error", "test_error"]),
            f"params: {comp['params_before']} -> {comp['params_after']} "
            f"({comp['param_ratio']:.2f}x)",
            f"flops:  {comp['flops_before']} -> {comp['flops_after']} "
            f"({comp['flops_ratio']:.2f}x)",
        ] + [f"layer {layer}: kept {len(entry['retained'])}/{len(entry['sensitivities'])} "
             f"channels {entry['retained']}"
             for layer, entry in sorted(doc["layers"].items(), key=lambda kv: int(kv[0]))]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{args.report} is not a prunekit report: "
                        f"{type(exc).__name__} {exc}") from exc
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # main splices only --config itself, so an abbreviation (--conf) would be dropped
    parser = argparse.ArgumentParser(prog="prunekit", allow_abbrev=False,
                                     description="multi-loss channel pruning toolkit")
    parser.add_argument("--config", default="",
                        help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a baseline model")
    _add_data_args(p)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--epochs", type=int, default=25)  # train_baseline has no default
    defaults = inspect.signature(train_baseline).parameters
    p.add_argument("--eta", type=float, default=defaults["eta"].default)
    p.add_argument("--batch-size", type=int, default=defaults["batch_size"].default)
    p.add_argument("--seed", type=int, default=defaults["seed"].default)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("prune", help="prune a trained model")
    _add_data_args(p)
    _add_prune_args(p)
    p.add_argument("--model", required=True, help="baseline model path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("eval", help="evaluate a model on one split")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.set_defaults(fn=cmd_eval)

    for name, what, fn in (("ablation", "7-row loss-combination sweep", cmd_ablation),
                           ("rate-sweep", "pruning-rate sweep", cmd_rate_sweep)):
        p = sub.add_parser(name, help=what)
        _add_data_args(p)
        _add_prune_args(p)
        p.add_argument("--model", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", type=int, default=1)
        p.set_defaults(fn=fn)
    p.add_argument("--rates", default="0.3,0.5,0.7")  # rate-sweep's own flag

    p = sub.add_parser("check-grad", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(fn=cmd_check_grad)

    p = sub.add_parser("report", help="print a pruning report")
    p.add_argument("--report", required=True, help="path to report.json")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a config file supplies defaults: its flags go right after the
        # subcommand, so any explicit flag, however abbreviated, comes later and wins
        argv = [part for a in argv
                for part in (a.split("=", 1) if a.startswith("--config=") else [a])]
        if "--config" in argv:
            at = argv.index("--config")
            if at + 1 == len(argv):
                raise DataError("--config needs a file path")
            extra = [part for key, value in read_config(argv[at + 1]).items()
                     for part in ("--" + key.replace("_", "-"), value)]
            argv = argv[:at] + argv[at + 2:]
            argv = argv[:1] + extra + argv[1:]
        args = parser.parse_args(argv)
        # ablation and rate-sweep replace --seed in every row, so only train and prune read it
        if args.fn in (cmd_train, cmd_prune) and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # an overflow surfaces as one typed error from the finite checks of
        # joint_loss, error_rate, _check_divergence and channel_sensitivity
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
