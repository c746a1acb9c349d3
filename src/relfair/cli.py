"""Command-line experiment runner.

Subcommands: ``train`` (one variant, several seeds), ``sweep`` (eta x beta
grid), ``compare`` (several variants under shared seeds) and ``evaluate``
(metrics for an existing checkpoint).  Every run directory gets a
``manifest.json`` declaring the files written; timestamps live only in the
manifest's metadata block so re-running a config reproduces every other
payload byte for byte.

The default data directory comes from the RELFAIR_DATA_DIR environment
variable (falling back to the working directory); ``--data-dir`` overrides.
"""

import argparse
import concurrent.futures
import dataclasses
import datetime
import json
import numbers
import os
import sys

import yaml

from relfair.data import (
    builtin_config,
    check_related_names,
    load_dataset_config,
    load_from_config,
    reject_unknown_keys,
    split,
)
from relfair.metrics import (
    SeedResult,
    accuracy,
    aggregate,
    delta_dp,
    delta_eo,
    format_comparison_table,
)
from relfair.models import MODEL_KINDS, forward, load_checkpoint, save_checkpoint
from relfair.training import VARIANTS, TrainConfig, encode_splits, run_single

# the seed comes from the experiment's seed list, never from its train block
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")

EXPERIMENT_KEYS = (
    "dataset",
    "variant",
    "model",
    "hidden_dims",
    "related",
    "seeds",
    "output_dir",
    "allow_sensitive_in_training",
    "train",
)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    dataset: object  # DatasetConfig
    variant: str
    model_kind: str
    hidden_dims: tuple
    related: tuple
    seeds: tuple
    output_dir: str
    allow_sensitive_in_training: bool
    train: TrainConfig


def _check_variant(variant, where):
    if variant not in VARIANTS:
        raise ValueError(f"{where}: unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


def _check_ints(values, key, where):
    """The entries of a list, each an integer (not a bool)."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{where}: {key} must be a list")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{where}: {key} entries must be integers, got {v!r}")
    return tuple(int(v) for v in values)


def _check_distinct(values, what, where):
    """A non-empty list without repeats; ``what`` names its entries."""
    if not values:
        raise ValueError(f"{where}: {what} list is empty")
    if len(set(values)) != len(values):
        raise ValueError(f"{where}: duplicate {what}")
    return values


def parse_experiment_config(doc, where="experiment config", config_dir="."):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a mapping at top level")
    reject_unknown_keys(doc, EXPERIMENT_KEYS, where)
    for key in ("dataset", "variant", "model", "seeds", "output_dir"):
        if key not in doc:
            raise ValueError(f"{where}: missing required key {key!r}")

    dataset_ref = str(doc["dataset"])
    if dataset_ref.endswith((".yaml", ".yml")):
        path = dataset_ref
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        dataset = load_dataset_config(path)
    else:
        dataset = builtin_config(dataset_ref)

    variant = _check_variant(str(doc["variant"]), where)
    model_kind = str(doc["model"])
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"{where}: unknown model {model_kind!r}; expected one of {MODEL_KINDS}")

    hidden_dims = _check_ints(doc.get("hidden_dims", []), "hidden_dims", where)
    if hidden_dims and model_kind != "mlp":
        raise ValueError(f"{where}: hidden_dims only applies to the mlp model")

    related = tuple(str(n) for n in doc.get("related", dataset.related))
    if not related:
        raise ValueError(f"{where}: no related features given (and none in the dataset config)")
    check_related_names(related, dataset.schema, where)

    seeds = _check_distinct(_check_ints(doc["seeds"], "seeds", where), "seeds", where)

    allow_sensitive = doc.get("allow_sensitive_in_training", False)
    if not isinstance(allow_sensitive, bool):
        raise ValueError(
            f"{where}: allow_sensitive_in_training must be true or false, "
            f"got {allow_sensitive!r}"
        )

    train_doc = doc.get("train", {}) or {}
    reject_unknown_keys(train_doc, TRAIN_KEYS, f"{where}: train")
    try:
        train = TrainConfig(**train_doc)
    except ValueError as exc:
        raise ValueError(f"{where}: train: {exc}") from None

    return ExperimentConfig(
        dataset=dataset,
        variant=variant,
        model_kind=model_kind,
        hidden_dims=hidden_dims,
        related=related,
        seeds=seeds,
        output_dir=str(doc["output_dir"]),
        allow_sensitive_in_training=allow_sensitive,
        train=train,
    )


def load_experiment_config(path):
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return parse_experiment_config(
        doc, where=str(path), config_dir=os.path.dirname(os.path.abspath(path))
    )


# ---------------------------------------------------------------------------
# artifacts


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, command, files, extra_metadata=None):
    manifest = {
        "files": sorted(files),
        "metadata": {
            "command": command,
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **(extra_metadata or {}),
        },
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# seed jobs (module level so worker processes can unpickle them)


def _seed_job(payload):
    """One seed of ``variant`` under ``cfg``; the rest comes from ``exp``."""
    raw, exp, variant, cfg, seed, run_dir, keep_checkpoint = payload
    result, metrics = run_single(
        raw, exp.related, variant, exp.model_kind, cfg, seed,
        hidden_dims=exp.hidden_dims,
        allow_sensitive_in_training=exp.allow_sensitive_in_training,
    )
    files = []
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        trace_path = os.path.join(run_dir, "trace.jsonl")
        result.trace.write(trace_path)
        files.append(trace_path)
        if keep_checkpoint:
            ckpt_path = os.path.join(run_dir, "checkpoint.npz")
            save_checkpoint(ckpt_path, result.params, result.spec)
            files.append(ckpt_path)
    return dataclasses.asdict(metrics), files


def _run_jobs(jobs, workers):
    """Run seed jobs serially or on a process pool.

    Returns one outcome per job, in job order: ``_seed_job``'s result or the
    exception it raised.  ``_seed_job`` is looked up at call time, so a
    wrapper installed on the module runs too.
    """
    if workers <= 1:
        return [_outcome(_seed_job, job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_seed_job, job) for job in jobs]
        return [_outcome(future.result) for future in futures]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed job is an outcome; callers decide
        return exc


def _results(outcomes):
    """The outcomes of jobs that must all succeed; raises the first failure."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


# ---------------------------------------------------------------------------
# subcommands


def _parse_list(text, parse, what, flag):
    """A comma-separated override, checked like its YAML list; None if absent."""
    if text is None:
        return None
    try:
        values = tuple(parse(v) for v in text.split(",")) if text else ()
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return _check_distinct(values, what, flag)


def _parse_seeds(args, exp):
    return _parse_list(args.seeds, int, "seeds", "--seeds") or exp.seeds


def cmd_train(args):
    exp = load_experiment_config(args.config)
    out_dir = args.output_dir or exp.output_dir
    seeds = _parse_seeds(args, exp)
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)

    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        (raw, exp, exp.variant, exp.train, seed,
         os.path.join(out_dir, f"seed_{seed}"), True)
        for seed in seeds
    ]
    outputs = _results(_run_jobs(jobs, args.workers))

    files = [p for _, paths in outputs for p in paths]
    report = aggregate([SeedResult(**row) for row, _ in outputs])
    report_path = os.path.join(out_dir, "report.json")
    _write_json(report_path, report.to_dict())
    table_path = os.path.join(out_dir, "report.txt")
    with open(table_path, "w") as fh:
        fh.write(format_comparison_table({exp.variant: report}) + "\n")
    files += [report_path, table_path]

    _write_manifest(
        out_dir, "train",
        [os.path.relpath(p, out_dir) for p in files],
        {"config": args.config, "variant": exp.variant, "seeds": list(seeds)},
    )
    print(format_comparison_table({exp.variant: report}))
    return 0


def cmd_sweep(args):
    exp = load_experiment_config(args.config)
    out_dir = args.output_dir or exp.output_dir
    seeds = _parse_seeds(args, exp)
    etas = _parse_list(args.eta_grid, float, "eta values", "--eta-grid") or [exp.train.eta]
    betas = _parse_list(args.beta_grid, float, "beta values", "--beta-grid") or [exp.train.beta]
    for values, what, flag in ((etas, "eta", "--eta-grid"), (betas, "beta", "--beta-grid")):
        # cell directories are named by {v:g}, so distinct values may collide
        _check_distinct([f"{v:g}" for v in values], f"{what} values as named in cells", flag)
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)

    os.makedirs(out_dir, exist_ok=True)
    jobs, keys = [], []
    for eta in etas:
        for beta in betas:
            cell_cfg = dataclasses.replace(exp.train, eta=eta, beta=beta)
            cell_dir = os.path.join(out_dir, "cells", f"eta_{eta:g}__beta_{beta:g}")
            for seed in seeds:
                keys.append((eta, beta, seed))
                jobs.append((raw, exp, exp.variant, cell_cfg, seed,
                             os.path.join(cell_dir, f"seed_{seed}"), False))

    table_rows, failures, files = [], [], []
    for (eta, beta, seed), outcome in zip(keys, _run_jobs(jobs, args.workers)):
        if isinstance(outcome, Exception):  # record and keep sweeping
            failures.append(
                {"eta": eta, "beta": beta, "seed": seed, "error": str(outcome)}
            )
            continue
        row, paths = outcome
        files += paths
        table_rows.append((eta, beta, seed, row["accuracy"], row["delta_eo"], row["delta_dp"]))

    table_rows.sort()
    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w") as fh:
        fh.write("eta,beta,seed,accuracy,delta_eo,delta_dp\n")
        for row in table_rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    files.append(sweep_path)

    if failures:
        failures_path = os.path.join(out_dir, "failures.json")
        _write_json(failures_path, failures)
        files.append(failures_path)

    _write_manifest(
        out_dir, "sweep",
        [os.path.relpath(p, out_dir) for p in files],
        {"config": args.config, "eta_grid": etas, "beta_grid": betas,
         "seeds": list(seeds), "n_failures": len(failures)},
    )
    print(f"sweep: {len(table_rows)} rows, {len(failures)} failed cells -> {sweep_path}")
    return 0 if table_rows else 1


def cmd_compare(args):
    exp = load_experiment_config(args.config)
    out_dir = args.output_dir or exp.output_dir
    seeds = _parse_seeds(args, exp)
    variants = _parse_list(args.variants, str.strip, "variants", "--variants")
    for variant in variants:
        _check_variant(variant, "--variants")
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)

    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        (raw, exp, variant, exp.train, seed,
         os.path.join(out_dir, variant, f"seed_{seed}"), False)
        for variant in variants
        for seed in seeds
    ]
    outputs = _results(_run_jobs(jobs, args.workers))

    files = [p for _, paths in outputs for p in paths]
    reports = {}
    it = iter(outputs)
    for variant in variants:
        reports[variant] = aggregate([SeedResult(**next(it)[0]) for _ in seeds])

    comparison_path = os.path.join(out_dir, "comparison.json")
    _write_json(
        comparison_path, {v: r.to_dict() for v, r in reports.items()}
    )
    table = format_comparison_table(reports)
    table_path = os.path.join(out_dir, "comparison.txt")
    with open(table_path, "w") as fh:
        fh.write(table + "\n")
    files += [comparison_path, table_path]

    _write_manifest(
        out_dir, "compare",
        [os.path.relpath(p, out_dir) for p in files],
        {"config": args.config, "variants": list(variants), "seeds": list(seeds)},
    )
    print(table)
    return 0


def cmd_evaluate(args):
    exp = load_experiment_config(args.config)
    params, spec = load_checkpoint(args.checkpoint)
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)
    seed = args.seed if args.seed is not None else exp.seeds[0]

    encoded = dict(zip(
        ("train", "eval", "test"),
        encode_splits(exp.variant, split(raw, seed=seed), exp.related),
    ))
    enc = encoded[args.split]
    if spec.input_dim != enc.n_columns:
        raise ValueError(
            f"checkpoint expects {spec.input_dim} input columns but the "
            f"{args.split} split encodes to {enc.n_columns}; check that the "
            "config and split seed match the training run"
        )
    yhat = forward(params, spec, enc.X)
    payload = {
        "checkpoint": args.checkpoint,
        "split": args.split,
        "seed": seed,
        "accuracy": accuracy(yhat, enc.y),
    }
    if enc.s is not None:
        payload["delta_eo"] = delta_eo(yhat, enc.y, enc.s)
        payload["delta_dp"] = delta_dp(yhat, enc.s)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relfair",
        description="Train and evaluate fairness-regularized classifiers "
                    "driven by related features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", required=True, help="experiment config YAML")
        p.add_argument("--data-dir", default=os.environ.get("RELFAIR_DATA_DIR", "."),
                       help="directory holding dataset CSVs "
                            "(default: $RELFAIR_DATA_DIR or '.')")
        p.add_argument("--output-dir", default=None, help="override the config's output_dir")
        p.add_argument("--seeds", default=None, help="comma-separated seed override")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1)")

    p_train = sub.add_parser("train", help="train one variant over the configured seeds")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid sweep over eta and beta")
    common(p_sweep)
    p_sweep.add_argument("--eta-grid", default=None, help="comma-separated eta values")
    p_sweep.add_argument("--beta-grid", default=None, help="comma-separated beta values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run several variants under shared seeds")
    common(p_cmp)
    p_cmp.add_argument("--variants", default="vanilla,fairrf",
                       help="comma-separated variant tags")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("evaluate", help="metrics for an existing checkpoint")
    p_eval.add_argument("-c", "--config", required=True, help="experiment config YAML")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data-dir", default=os.environ.get("RELFAIR_DATA_DIR", "."))
    p_eval.add_argument("--seed", type=int, default=None,
                        help="split seed (default: first configured seed)")
    p_eval.add_argument("--split", choices=("train", "eval", "test"), default="test")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
