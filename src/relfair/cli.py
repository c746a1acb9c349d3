"""Command-line experiment runner.

Subcommands: ``train`` (one variant, several seeds), ``sweep`` (eta x beta
grid), ``compare`` (several variants under shared seeds) and ``evaluate``
(metrics for an existing checkpoint).  Every run directory gets a
``manifest.json`` declaring the files written; timestamps and the
environment (Python and numpy versions, the BLAS thread variables, the CPU
count and ``--workers``) live only in the manifest's metadata block so
re-running a config reproduces every other payload byte for byte.

The default data directory comes from the RELFAIR_DATA_DIR environment
variable (falling back to the working directory); ``--data-dir`` overrides.
"""

import argparse
import dataclasses
import datetime
import gc
import json
import numbers
import os
import platform
import shutil
import sys

import numpy as np

from relfair.data import (
    builtin_config,
    check_block,
    check_list,
    check_related_names,
    check_string,
    load_dataset_config,
    load_from_config,
    load_yaml,
    split,
)
from relfair.metrics import (
    accuracy,
    aggregate,
    delta_dp,
    delta_eo,
    format_comparison_table,
)
from relfair.models import (
    MODEL_KINDS,
    check_hidden_dims,
    check_seed,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from relfair.training import TrainConfig, check_variant, encode_splits, run_single

# recorded as set, or null, in every manifest's metadata
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))

# a run writes into <output dir>.staging-<pid> beside its output directory
STAGING = ".staging-"


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


def _check_each(values, check, where):
    """``values`` if ``check`` takes each one; its errors lead with ``where``."""
    for value in values:
        try:
            check(value)
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
    _check_each(seeds, check_seed, f"{where}: seeds")

    return ExperimentConfig(
        dataset=dataset,
        variant=variant,
        model=model,
        hidden_dims=hidden_dims,
        related=related,
        seeds=seeds,
        output_dir=check_string(doc, "output_dir", where),
        allow_sensitive_in_training=allow_sensitive,
        train=train,
    )


def load_experiment_config(path):
    return parse_experiment_config(
        load_yaml(path), where=str(path), config_dir=os.path.dirname(os.path.abspath(path))
    )


# ---------------------------------------------------------------------------
# artifacts


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_manifest(out_dir, args, seeds, paths, outputs, **metadata):
    """Write the command's ``outputs`` (file name -> text) and the manifest
    into the staging directory ``out_dir`` (see ``_run_cells``), beside the
    jobs' files ``paths``, then rename it into its output directory's place:
    a previous run there is replaced as a whole.  Returns the output
    directory.  On failure the staging directory is removed and the output
    directory is left as it was."""
    manifest = {
        "files": sorted([*(os.path.relpath(p, out_dir) for p in paths), *outputs]),
        "metadata": {
            "command": args.command,
            "config": args.config,
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "seeds": list(seeds),
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                **{name: os.environ.get(name) for name in THREAD_VARIABLES},
                "cpu_count": os.cpu_count(),
                "workers": args.workers,
            },
            **metadata,
        },
    }
    target, old = out_dir.rpartition(STAGING)[0], out_dir + ".replaced"
    try:
        for name, text in {**outputs, "manifest.json": _json_text(manifest)}.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if os.path.exists(target):  # a previous run, or empty (see _run_cells)
            os.rename(target, old)
        os.rename(out_dir, target)
    except BaseException:
        if os.path.exists(old) and not os.path.exists(target):
            os.rename(old, target)
        shutil.rmtree(out_dir, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
    return target


# ---------------------------------------------------------------------------
# seed jobs (module level so worker processes can unpickle them)

# ``(dataset, ExperimentConfig)`` shared by every seed job of the running
# command: set once per pool worker by its initializer, and in this process
# while its jobs run serially
_shared = None


def _share(context):
    global _shared
    _shared = context


def _seed_job(payload):
    """Several cells under several seeds; the dataset and the rest come from
    ``_shared``.

    Trains the cells of every seed with one ``run_single`` call, then
    measures each trained cell and writes its files.  Returns, per seed in
    order, one outcome per cell, in cell order: its ``SeedResult`` and the
    files written, or the exception the cell raised.
    """
    raw, exp = _shared
    cells, seeds, out_dir, keep_checkpoint = payload
    per_seed = run_single(
        raw, exp.related, [(variant, cfg) for variant, cfg, _ in cells], exp.model, seeds,
        hidden_dims=exp.hidden_dims, allow_sensitive_in_training=exp.allow_sensitive_in_training,
    )
    return [
        [result if isinstance(result, Exception) else _outcome(
            _write_cell, result, os.path.join(out_dir, subdir, f"seed_{seed}"), keep_checkpoint)
         for (_, _, subdir), result in zip(cells, results)]
        for seed, results in zip(seeds, per_seed)
    ]


def _write_cell(result, run_dir, keep_checkpoint):
    """One trained cell's ``SeedResult`` and the files of its trace (and checkpoint)."""
    metrics = result.test_metrics()
    os.makedirs(run_dir, exist_ok=True)
    files = [os.path.join(run_dir, "trace.jsonl")]
    result.trace.write(files[0])
    if keep_checkpoint:
        files.append(os.path.join(run_dir, "checkpoint.npz"))
        save_checkpoint(files[1], result.params, result.spec)
    return metrics, files


def _run_jobs(context, jobs, workers):
    """Run seed jobs serially or on a pool of at most one process per job.

    ``context`` is the ``_shared`` of every job.  It reaches each pool worker
    once, through the pool's initializer: a forked worker inherits it, and a
    spawned one unpickles it at start.  A job ships only its own payload.
    Returns one outcome per job, in job order: ``_seed_job``'s result or the
    exception it raised.  ``_seed_job`` is looked up at call time, so a
    wrapper installed on the module runs too.  ``concurrent.futures`` (with
    the ``logging`` and ``threading`` it loads) is imported only for a pool.
    """
    workers = min(workers, len(jobs))
    try:
        if workers <= 1:
            _share(context)
            return [_outcome(_seed_job, job) for job in jobs]
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_share, initargs=(context,)) as pool:
            futures = [pool.submit(_seed_job, job) for job in jobs]
            return [_outcome(future.result) for future in futures]
    finally:
        _share(None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed job is an outcome; callers decide
        # only the message is reported; the frames of a traceback would keep
        # the job's data alive
        return exc.with_traceback(None)


def _deal(items, parts):
    """``items`` cut into ``parts`` contiguous runs, as even as they come."""
    return [items[part * len(items) // parts : (part + 1) * len(items) // parts]
            for part in range(parts)]


def _run_cells(args, exp, seeds, cells, keep_checkpoint=False, partial=False):
    """Run every cell under every seed; a cell is ``(variant, TrainConfig, subdir)``.

    Refuses a dataset without a sensitive column, whose cells could not be
    measured, before loading it.  Loads the dataset once and deals the seeds
    into min(seeds, ``--workers``) jobs of contiguous seeds.  A job trains
    all of its seeds' cells with one ``run_single`` call, which splits each
    seed once and encodes, pretrains and trains in one stack across its
    seeds what the cells can share.  With fewer seeds than ``--workers``,
    each job has one seed, and each seed's cells are cut into
    ⌈workers / seeds⌉ jobs (never more jobs than cells), so that no worker
    sits idle.  A cell's files go to ``<out_dir>/<subdir>/seed_<k>``.

    A run is all or nothing.  ``out_dir`` is a fresh staging directory
    beside the output directory, named by ``STAGING``: the jobs write into
    it, and ``_write_manifest`` adds the command's files and the manifest
    and renames it into place.
    An output directory that is not empty and holds no ``manifest.json``
    (no previous run) is refused before the dataset is loaded.  Unless
    ``partial``, a failed cell fails the run, with the first failure in
    cell order, seed by seed.  A run that fails here removes its staging
    directory.  Returns the staging directory, the files the jobs wrote,
    per cell one outcome per seed (its ``SeedResult`` or the exception the
    cell raised), and each job's seeds.
    """
    if args.workers < 1:
        raise ValueError(f"--workers: must be at least 1, got {args.workers}")
    if not any(f.role == "sensitive" for f in exp.dataset.schema):
        raise ValueError(
            f"{args.config}: dataset {exp.dataset.name!r} has no 'sensitive' column; "
            "train, compare and sweep report delta_eo and delta_dp, which need one"
        )
    target = args.output_dir or exp.output_dir
    if os.path.exists(target) and not os.path.isdir(target):
        raise ValueError(f"output directory {target} exists and is not a directory")
    if (os.path.isdir(target) and os.listdir(target)
            and not os.path.isfile(os.path.join(target, "manifest.json"))):
        raise ValueError(f"output directory {target} is not empty and holds no manifest.json; "
                         "only a previous run's directory is replaced")
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)
    parts = [(seed_part, cell_part)
             for seed_part in _deal(list(seeds), min(len(seeds), args.workers))
             for cell_part in _deal(range(len(cells)),
                                    min(len(cells), -(-args.workers // len(seeds))))]
    out_dir = f"{os.path.normpath(target)}{STAGING}{os.getpid()}"
    jobs = [([cells[c] for c in cell_part], seed_part, out_dir, keep_checkpoint)
            for seed_part, cell_part in parts]
    os.makedirs(out_dir)
    try:
        outcomes = _run_jobs((raw, exp), jobs, args.workers)
    except BaseException:
        shutil.rmtree(out_dir)
        raise
    table = {}  # (seed, cell index) -> outcome
    for (seed_part, cell_part), outcome in zip(parts, outcomes):
        for i, seed in enumerate(seed_part):
            for j, c in enumerate(cell_part):
                # a job that failed as a whole fails each of its cells
                table[seed, c] = outcome if isinstance(outcome, Exception) else outcome[i][j]
    files = [p for o in table.values() if not isinstance(o, Exception) for p in o[1]]
    results = [[o if isinstance(o, Exception) else o[0]
                for o in (table[seed, c] for seed in seeds)] for c in range(len(cells))]
    failed = [r for cell in results for r in cell if isinstance(r, Exception)]
    if failed and not partial:
        shutil.rmtree(out_dir)
        raise failed[0]
    return out_dir, files, results, [seed_part for seed_part, _ in parts]


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
    return _check_each(seeds, check_seed, "--seeds") if seeds else exp.seeds


def _grid(text, exp, key, flag):
    """A sweep axis: the ``flag`` values, else the config's; each one TrainConfig takes."""
    values = _parse_list(text, float, f"{key} values", flag) or [getattr(exp.train, key)]
    # cell directories are named by {v:g}, so distinct values may collide
    _check_distinct([f"{v:g}" for v in values], f"{key} values as named in cells", flag)
    return _check_each(values, lambda v: dataclasses.replace(exp.train, **{key: v}), flag)


def cmd_report(args):
    """``train`` and ``compare``: every cell under every seed, then one report.

    ``train`` runs the config's variant, keeps each seed's checkpoint and
    writes that variant's report to ``report.json``.  ``compare`` runs each
    ``--variants`` entry in a subdirectory of its name and writes every
    variant's report to ``comparison.json``.  Both write the table beside it.
    """
    exp = load_experiment_config(args.config)
    seeds = _parse_seeds(args, exp)
    train = args.command == "train"
    if train:
        cells = [(exp.variant, exp.train, "")]
    else:
        variants = _parse_list(args.variants, str.strip, "variants", "--variants")
        cells = [(check_variant(v, "--variants"), exp.train, v) for v in variants]
    out_dir, files, outcomes, jobs = _run_cells(args, exp, seeds, cells, keep_checkpoint=train)
    reports = {variant: aggregate(results) for (variant, _, _), results in zip(cells, outcomes)}
    if train:
        stem, payload = "report", reports[exp.variant].to_dict()
        metadata = {"variant": exp.variant}
    else:
        stem, payload = "comparison", {v: r.to_dict() for v, r in reports.items()}
        metadata = {"variants": list(reports)}
    table = format_comparison_table(reports)
    _write_manifest(out_dir, args, seeds, files,
                    {f"{stem}.json": _json_text(payload), f"{stem}.txt": table + "\n"},
                    jobs=jobs, **metadata)
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
    out_dir, files, outcomes, jobs = _run_cells(args, exp, seeds, cells, partial=True)

    table_rows, failures = [], []
    for (_, cfg, _), results in zip(cells, outcomes):
        for seed, result in zip(seeds, results):
            if isinstance(result, Exception):  # record and keep sweeping
                failures.append(
                    {"eta": cfg.eta, "beta": cfg.beta, "seed": seed, "error": str(result)}
                )
            else:
                table_rows.append((cfg.eta, cfg.beta, seed,
                                   result.accuracy, result.delta_eo, result.delta_dp))

    table_rows.sort()
    lines = ["eta,beta,seed,accuracy,delta_eo,delta_dp\n"]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
              for row in table_rows]
    outputs = {"sweep.csv": "".join(lines)}
    if failures:
        outputs["failures.json"] = _json_text(failures)
    out_dir = _write_manifest(out_dir, args, seeds, files, outputs, jobs=jobs,
                              eta_grid=etas, beta_grid=betas, n_failures=len(failures))
    print(f"sweep: {len(table_rows)} rows, {len(failures)} failed cells -> "
          f"{os.path.join(out_dir, 'sweep.csv')}")
    return 0 if table_rows else 1


def cmd_evaluate(args):
    exp = load_experiment_config(args.config)
    params, spec = load_checkpoint(args.checkpoint)
    raw = load_from_config(exp.dataset, data_dir=args.data_dir)

    # the split the checkpoint was trained on
    encoded = dict(zip(
        ("train", "eval", "test"),
        encode_splits(exp.variant, split(raw, seed=spec.seed), exp.related),
    ))
    enc = encoded[args.split]
    if spec.input_dim != enc.n_columns:
        raise ValueError(
            f"checkpoint expects {spec.input_dim} input columns but the "
            f"{args.split} split encodes to {enc.n_columns}; check that the "
            "config matches the training run"
        )
    yhat = forward(params, spec, enc.X)
    payload = {
        "checkpoint": args.checkpoint,
        "split": args.split,
        "seed": spec.seed,
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
    p_train.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", parents=[run], help="grid sweep over eta and beta")
    p_sweep.add_argument("--eta-grid", default=None, help="comma-separated eta values")
    p_sweep.add_argument("--beta-grid", default=None, help="comma-separated beta values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", parents=[run],
                           help="run several variants under shared seeds")
    p_cmp.add_argument("--variants", default="vanilla,fairrf",
                       help="comma-separated variant tags")
    p_cmp.set_defaults(func=cmd_report)

    p_eval = sub.add_parser("evaluate", parents=[data],
                            help="metrics for an existing checkpoint")
    p_eval.add_argument("--checkpoint", required=True,
                        help="a checkpoint written by train; its seed picks the split")
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


def entry():
    """The ``relfair`` command: ``main`` as the whole life of a process.

    ``gc.freeze()`` first moves every object alive after the imports, numpy's
    and relfair's module graph among them, to the permanent generation.  The
    collector then never walks them again: not in a forked pool worker, whose
    pages it would copy, and not in the collections at interpreter exit.
    In-process callers such as the tests call ``main`` instead.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
