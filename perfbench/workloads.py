"""The benchmark's workloads: generated inputs, one relfair command each, and
the checks every run of that command must pass.

Each workload is a closed loop of short ``relfair`` commands (a few seconds
each) so that a run's medians rest on many commands.  Every process runs
one BLAS thread, so workers times BLAS threads never exceeds the 2 cores the
benchmark was sized on.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np

import adult_gen

# At the default learning rate (0.001) three LR epochs leave the model close
# to its random init, so delta_dp swings by +-40 % with the data seed; at
# 0.002 vanilla's delta_dp spreads by about 5 % over data seeds.  Job seeds
# are fixed and the benchmark seed varies the data, which keeps the init the
# same across runs.
LR_TRAIN = {"pretrain_epochs": 1, "max_epochs": 2, "learning_rate": 0.002}
LR_SEEDS = [0, 1]
MLP_TRAIN = {
    "pretrain_epochs": 3, "max_epochs": 12, "early_stop_patience": 12,
    "batch_size": 128,
}
MLP_SEEDS = [0, 1, 2]
SYNTH_ROWS = 20_000


class CheckFailed(Exception):
    """A command's outputs are wrong or incomplete."""


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What the checks read from one command's output directory."""

    accuracy: float
    delta_dp: float
    epochs: int  # fair-loop epochs over all jobs, from the written traces
    digests: dict  # artifact path -> digest, for run-to-run identity


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    relfair_args: tuple  # after ``python -m relfair.cli``, before --output-dir
    jobs: int
    workers: int
    setup_code: str  # import relfair, read the dataset config, load the CSV
    check: object  # callable(out_dir) -> Outcome


def _write_experiment(path, dataset, model, seeds, train, **extra):
    doc = {
        "dataset": dataset, "variant": "fairrf", "model": model,
        "seeds": seeds, "output_dir": "out", "train": train, **extra,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)  # JSON is YAML
    return path


def _setup_code(loader, arg, data_dir):
    return (
        "import relfair\n"
        f"from relfair.data import {loader}, load_from_config\n"
        f"load_from_config({loader}({arg!r}), data_dir={data_dir!r})\n"
    )


def prepare(name, work_dir, seed):
    """Write the workload's inputs under work_dir; same seed, same bytes."""
    data_seed = int(np.random.default_rng(seed).integers(2**32))
    if name in ("compare_adult", "sweep_adult_w2"):
        adult_gen.write_csv(os.path.join(work_dir, "adult.csv"), data_seed)
        config = _write_experiment(
            os.path.join(work_dir, "experiment.yaml"), "adult", "lr",
            LR_SEEDS, LR_TRAIN,
        )
        common = ("-c", config, "--data-dir", work_dir)
        setup = _setup_code("builtin_config", "adult", work_dir)
        if name == "compare_adult":
            return Workload(
                name, ("compare", *common, "--workers", "1",
                       "--variants", "vanilla,fairrf,remove_related"),
                jobs=6, workers=1, setup_code=setup,
                check=_check_compare,
            )
        return Workload(
            name, ("sweep", *common, "--workers", "2",
                   "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,1.0"),
            jobs=8, workers=2, setup_code=setup,
            check=_check_sweep,
        )
    if name == "train_mlp_synth":
        from relfair.synthetic import SyntheticSpec, generate, write_csv

        spec = SyntheticSpec(n=SYNTH_ROWS, label_echo=True, seed=data_seed)
        write_csv(generate(spec), os.path.join(work_dir, "synth.csv"))
        dataset = os.path.join(work_dir, "synth.yaml")
        with open(dataset, "w") as fh:
            json.dump({
                "name": "synth", "csv": "synth.csv",
                "columns": [{"name": n, "kind": "continuous"} for n in
                            ("signal", "noise", "proxy_a", "proxy_b", "echo")],
                "label": {"name": "outcome", "positive": "1"},
                "sensitive": {"name": "group", "positive": "1"},
                "related": ["proxy_a", "proxy_b", "echo"],
            }, fh)
        config = _write_experiment(
            os.path.join(work_dir, "experiment.yaml"), dataset, "mlp",
            MLP_SEEDS, MLP_TRAIN, hidden_dims=[64, 32],
        )
        return Workload(
            name, ("train", "-c", config, "--data-dir", work_dir,
                   "--workers", "1"),
            jobs=3, workers=1,
            setup_code=_setup_code("load_dataset_config", dataset, work_dir),
            check=_check_train,
        )
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_manifest(out_dir):
    """Digest every declared artifact; the manifest minus its metadata too."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(path):
        raise CheckFailed("manifest.json missing")
    with open(path) as fh:
        manifest = json.load(fh)
    body = {k: v for k, v in manifest.items() if k != "metadata"}
    digests = {"manifest.json (without metadata)": hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()}
    epochs = 0
    for rel in manifest["files"]:
        full = os.path.join(out_dir, rel)
        if not os.path.isfile(full):
            raise CheckFailed(f"manifest lists {rel} but it was not written")
        digests[rel] = _digest(full)
        if rel.endswith("trace.jsonl"):
            with open(full) as fh:
                epochs += sum(1 for line in fh if line.strip())
    return digests, epochs


def _check_compare(out_dir):
    digests, epochs = _read_manifest(out_dir)
    with open(os.path.join(out_dir, "comparison.json")) as fh:
        reports = json.load(fh)
    fair, vanilla = reports["fairrf"], reports["vanilla"]
    if not fair["delta_dp"] < vanilla["delta_dp"]:
        raise CheckFailed(
            f"fairrf delta_dp {fair['delta_dp']} is not below "
            f"vanilla's {vanilla['delta_dp']}")
    # Every variant runs the same seeds, so this is the mean over all jobs.
    # fairrf's own delta_dp alone spreads by 20 % across data seeds (README).
    acc = float(np.mean([r["accuracy"] for r in reports.values()]))
    dp = float(np.mean([r["delta_dp"] for r in reports.values()]))
    return Outcome(acc, dp, epochs, digests)


def _check_sweep(out_dir):
    digests, epochs = _read_manifest(out_dir)
    if os.path.exists(os.path.join(out_dir, "failures.json")):
        with open(os.path.join(out_dir, "failures.json")) as fh:
            failures = json.load(fh)
        raise CheckFailed(f"{len(failures)} sweep cells failed: {failures}")
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[0] != "eta,beta,seed,accuracy,delta_eo,delta_dp" or len(rows) != 8:
        raise CheckFailed(f"sweep.csv has {len(rows)} rows, expected 8")
    acc = float(np.mean([float(r[3]) for r in rows]))
    dp = float(np.mean([float(r[5]) for r in rows]))
    return Outcome(acc, dp, epochs, digests)


def _check_train(out_dir):
    from relfair.models import ModelSpec, load_checkpoint

    digests, epochs = _read_manifest(out_dir)
    for seed in MLP_SEEDS:
        _, spec = load_checkpoint(os.path.join(out_dir, f"seed_{seed}", "checkpoint.npz"))
        expected = ModelSpec("mlp", input_dim=5, hidden_dims=(64, 32), seed=seed)
        if spec != expected:
            raise CheckFailed(f"seed {seed} checkpoint reloads as {spec}, expected {expected}")
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    if len(report["per_seed"]) != len(MLP_SEEDS):
        raise CheckFailed(f"report.json has {len(report['per_seed'])} seeds")
    return Outcome(report["accuracy"], report["delta_dp"], epochs, digests)
