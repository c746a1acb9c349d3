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
    check_block,
    check_list,
    check_related_names,
    load_dataset_config,
    load_from_config,
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
from relfair.models import (
    MODEL_KINDS,
    check_hidden_dims,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from relfair.training import TrainConfig, check_variant, encode_splits, run_seed

# the seed comes from the experiment's seed list, never from its train block
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    dataset: object  # DatasetConfig
    variant: str
    model: str
    hidden_dims: object  # a tuple, or None for the model's default widths
    related: tuple
    seeds: tuple
    output_dir: str
    allow_sensitive_in_training: bool
    train: TrainConfig


EXPERIMENT_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _check_train_values(train, key, values, where):
    """``values`` if ``train`` takes each one as its ``key``; errors name ``where``."""
    for value in values:
        try:
            dataclasses.replace(train, **{key: value})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return values


def _check_distinct(values, what, where):
    """A non-empty list without repeats; ``what`` names its entries."""
    if not values:
        raise ValueError(f"{where}: {what} list is empty")
    if len(set(values)) != len(values):
        raise ValueError(f"{where}: duplicate {what}")
    return values


def parse_experiment_config(doc, where="experiment config", config_dir="."):
    check_block(doc, where, EXPERIMENT_KEYS, ("dataset", "variant", "model", "seeds", "output_dir"))

    dataset_ref = str(doc["dataset"])
    if dataset_ref.endswith((".yaml", ".yml")):
        path = dataset_ref
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        dataset = load_dataset_config(path)
    else:
        dataset = builtin_config(dataset_ref)

    variant = check_variant(str(doc["variant"]), where)
    model = str(doc["model"])
    if model not in MODEL_KINDS:
        raise ValueError(f"{where}: unknown model {model!r}; expected one of {MODEL_KINDS}")

    hidden_dims = doc.get("hidden_dims")
    if hidden_dims is not None:
        hidden_dims = check_list(hidden_dims, "hidden_dims", where, numbers.Integral, "integers")
    try:
        check_hidden_dims(model, hidden_dims)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None

    related = check_list(doc.get("related", dataset.related), "related", where, str, "strings")
    if not related:
        raise ValueError(f"{where}: no related features given (and none in the dataset config)")
    check_related_names(related, dataset.schema, where)

    allow_sensitive = doc.get("allow_sensitive_in_training", False)
    if not isinstance(allow_sensitive, bool):
        raise ValueError(
            f"{where}: allow_sensitive_in_training must be true or false, "
            f"got {allow_sensitive!r}"
        )

    train_doc = doc["train"] if doc.get("train") is not None else {}
    check_block(train_doc, f"{where}: train", TRAIN_KEYS, ())
    try:
        train = TrainConfig(**train_doc)
    except ValueError as exc:
        raise ValueError(f"{where}: train: {exc}") from None
    seeds = check_list(doc["seeds"], "seeds", where, numbers.Integral, "integers")
    _check_distinct(seeds, "seeds", where)
    _check_train_values(train, "seed", seeds, f"{where}: seeds")

    return ExperimentConfig(
        dataset=dataset,
        variant=variant,
        model=model,
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


def _write_manifest(out_dir, args, seeds, paths, **metadata):
    manifest = {
        "files": sorted(os.path.relpath(p, out_dir) for p in paths),
        "metadata": {
            "command": args.command,
            "config": args.config,
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seeds": list(seeds),
            **metadata,
        },
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_report(out_dir, stem, payload, reports):
    """``<stem>.json`` holds ``payload``, ``<stem>.txt`` the table of ``reports``.

    Returns the two paths and the table.
    """
    table = format_comparison_table(reports)
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"{stem}.json"), os.path.join(out_dir, f"{stem}.txt")]
    _write_json(paths[0], payload)
    with open(paths[1], "w") as fh:
        fh.write(table + "\n")
    return paths, table


# ---------------------------------------------------------------------------
# seed jobs (module level so worker processes can unpickle them)


def _seed_job(payload):
    """One seed of several cells; the rest comes from ``exp``.

    Writes each cell's files as soon as it is trained and keeps only its
    metrics row.  Returns one outcome per cell, in cell order: the metrics
    row and the files written, or the exception the cell raised.
    """
    raw, exp, cells, seed, out_dir, keep_checkpoint = payload
    outcomes = [None] * len(cells)
    runs = run_seed(
        raw, exp.related, [(variant, cfg) for variant, cfg, _ in cells], exp.model, seed,
        hidden_dims=exp.hidden_dims,
        allow_sensitive_in_training=exp.allow_sensitive_in_training,
    )
    for index, result in runs:
        if not isinstance(result, Exception):
            run_dir = os.path.join(out_dir, cells[index][2], f"seed_{seed}")
            result = _outcome(_write_cell, result, seed, run_dir, keep_checkpoint)
        outcomes[index] = result
    return outcomes


def _write_cell(result, seed, run_dir, keep_checkpoint):
    """Measure one trained cell and write its trace (and checkpoint)."""
    metrics = result.test_metrics(seed)
    os.makedirs(run_dir, exist_ok=True)
    files = [os.path.join(run_dir, "trace.jsonl")]
    result.trace.write(files[0])
    if keep_checkpoint:
        files.append(os.path.join(run_dir, "checkpoint.npz"))
        save_checkpoint(files[1], result.params, result.spec)
    return dataclasses.asdict(metrics), files


def _run_jobs(jobs, workers):
    """Run seed jobs serially or on a pool of at most one process per job.

    Returns one outcome per job, in job order: ``_seed_job``'s result or the
    exception it raised.  ``_seed_job`` is looked up at call time, so a
    wrapper installed on the module runs too.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_outcome(_seed_job, job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_seed_job, job) for job in jobs]
        return [_outcome(future.result) for future in futures]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed job is an outcome; callers decide
        # only the message is reported; the frames of a traceback would keep
        # the job's data alive
        return exc.with_traceback(None)


def _run_cells(args, exp, seeds, cells, keep_checkpoint=False):
    """Run every cell under every seed; a cell is ``(variant, TrainConfig, subdir)``.

    Loads the dataset once and runs one job per seed, which splits, encodes
    and pretrains once for all the cells that can share them.  With fewer
    seeds than ``--workers``, each seed's cells are cut into ⌈workers /
    seeds⌉ jobs (never more jobs than cells), so that no worker sits idle.
    A cell's files go to ``<out_dir>/<subdir>/seed_<k>``.  A job creates a
    directory when it has something to write, so a run whose every cell
    fails first leaves no output directory behind; a directory that already
    existed is left as it was.  Returns the output directory, the files the
    jobs wrote and, per cell, one outcome per seed: the metrics row or the
    exception the cell raised.
    """
    if args.workers < 1:
        raise ValueError(f"--workers: must be at least 1, got {args.workers}")
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)
    out_dir = args.output_dir or exp.output_dir
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir} exists and is not a directory")
    parts = min(len(cells), -(-args.workers // len(seeds)))
    jobs = [
        (raw, exp, cells[part * len(cells) // parts : (part + 1) * len(cells) // parts],
         seed, out_dir, keep_checkpoint)
        for seed in seeds
        for part in range(parts)
    ]
    flat = []  # seed by seed, each seed's cells in order
    for job, outcome in zip(jobs, _run_jobs(jobs, args.workers)):
        # a job that failed as a whole fails each of its cells
        flat += [outcome] * len(job[2]) if isinstance(outcome, Exception) else outcome
    files = [p for o in flat if not isinstance(o, Exception) for p in o[1]]
    rows = [o if isinstance(o, Exception) else o[0] for o in flat]
    return out_dir, files, [rows[c :: len(cells)] for c in range(len(cells))]


def _reports(cells, outcomes):
    """One report per cell's variant; raises the first failure, in cell order."""
    reports = {}
    for (variant, _, _), rows in zip(cells, outcomes):
        for row in rows:
            if isinstance(row, Exception):
                raise row
        reports[variant] = aggregate([SeedResult(**row) for row in rows])
    return reports


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
    seeds = _parse_list(args.seeds, int, "seeds", "--seeds")
    return _check_train_values(exp.train, "seed", seeds, "--seeds") if seeds else exp.seeds


def _grid(text, exp, key, flag):
    """A sweep axis: the ``flag`` values, else the config's; each one TrainConfig takes."""
    values = _parse_list(text, float, f"{key} values", flag) or [getattr(exp.train, key)]
    # cell directories are named by {v:g}, so distinct values may collide
    _check_distinct([f"{v:g}" for v in values], f"{key} values as named in cells", flag)
    return _check_train_values(exp.train, key, values, flag)


def cmd_train(args):
    exp = load_experiment_config(args.config)
    seeds = _parse_seeds(args, exp)
    cells = [(exp.variant, exp.train, "")]
    out_dir, files, outcomes = _run_cells(args, exp, seeds, cells, keep_checkpoint=True)
    reports = _reports(cells, outcomes)
    paths, table = _write_report(out_dir, "report", reports[exp.variant].to_dict(), reports)
    _write_manifest(out_dir, args, seeds, files + paths, variant=exp.variant)
    print(table)
    return 0


def cmd_sweep(args):
    exp = load_experiment_config(args.config)
    seeds = _parse_seeds(args, exp)
    etas = _grid(args.eta_grid, exp, "eta", "--eta-grid")
    betas = _grid(args.beta_grid, exp, "beta", "--beta-grid")
    cells = [
        (exp.variant, dataclasses.replace(exp.train, eta=eta, beta=beta),
         os.path.join("cells", f"eta_{eta:g}__beta_{beta:g}"))
        for eta in etas
        for beta in betas
    ]
    out_dir, files, outcomes = _run_cells(args, exp, seeds, cells)

    table_rows, failures = [], []
    for (_, cfg, _), rows in zip(cells, outcomes):
        for seed, row in zip(seeds, rows):
            if isinstance(row, Exception):  # record and keep sweeping
                failures.append(
                    {"eta": cfg.eta, "beta": cfg.beta, "seed": seed, "error": str(row)}
                )
            else:
                table_rows.append((cfg.eta, cfg.beta, seed,
                                   row["accuracy"], row["delta_eo"], row["delta_dp"]))

    table_rows.sort()
    os.makedirs(out_dir, exist_ok=True)  # every cell may have failed
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

    _write_manifest(out_dir, args, seeds, files,
                    eta_grid=etas, beta_grid=betas, n_failures=len(failures))
    print(f"sweep: {len(table_rows)} rows, {len(failures)} failed cells -> {sweep_path}")
    return 0 if table_rows else 1


def cmd_compare(args):
    exp = load_experiment_config(args.config)
    seeds = _parse_seeds(args, exp)
    variants = _parse_list(args.variants, str.strip, "variants", "--variants")
    cells = [(check_variant(v, "--variants"), exp.train, v) for v in variants]
    out_dir, files, outcomes = _run_cells(args, exp, seeds, cells)
    reports = _reports(cells, outcomes)
    paths, table = _write_report(
        out_dir, "comparison", {v: r.to_dict() for v, r in reports.items()}, reports
    )
    _write_manifest(out_dir, args, seeds, files + paths, variants=list(variants))
    print(table)
    return 0


def cmd_evaluate(args):
    exp = load_experiment_config(args.config)
    seed = args.seed if args.seed is not None else exp.seeds[0]
    _check_train_values(exp.train, "seed", [seed], "--seed")
    params, spec = load_checkpoint(args.checkpoint)
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)

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

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("-c", "--config", required=True, help="experiment config YAML")
    data.add_argument("--data-dir", default=os.environ.get("RELFAIR_DATA_DIR", "."),
                      help="directory holding dataset CSVs "
                           "(default: $RELFAIR_DATA_DIR or '.')")
    run = argparse.ArgumentParser(add_help=False, parents=[data])
    run.add_argument("--output-dir", default=None, help="override the config's output_dir")
    run.add_argument("--seeds", default=None, help="comma-separated seed override")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes, at most one per job (default 1)")

    p_train = sub.add_parser("train", parents=[run],
                             help="train one variant over the configured seeds")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", parents=[run], help="grid sweep over eta and beta")
    p_sweep.add_argument("--eta-grid", default=None, help="comma-separated eta values")
    p_sweep.add_argument("--beta-grid", default=None, help="comma-separated beta values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", parents=[run],
                           help="run several variants under shared seeds")
    p_cmp.add_argument("--variants", default="vanilla,fairrf",
                       help="comma-separated variant tags")
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("evaluate", parents=[data],
                            help="metrics for an existing checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
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
