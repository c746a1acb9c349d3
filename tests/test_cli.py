import concurrent.futures
import csv
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import textwrap
import weakref
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
import yaml
from _fresh_python import run_python

from relfair import cli, training
from relfair.cli import TRAIN_KEYS, main, parse_experiment_config
from relfair.synthetic import SyntheticSpec, generate, write_csv
from relfair.training import VARIANTS, TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A data dir with a synthetic CSV plus dataset/experiment configs."""
    root = tmp_path_factory.mktemp("cli")
    write_csv(generate(SyntheticSpec(n=400, seed=0)), root / "synth.csv")
    (root / "dataset.yaml").write_text(
        textwrap.dedent(
            """
            name: synth
            csv: synth.csv
            columns:
              - {name: signal, kind: continuous}
              - {name: noise, kind: continuous}
              - {name: proxy_a, kind: continuous}
              - {name: proxy_b, kind: continuous}
            label: {name: outcome, positive: "1"}
            sensitive: {name: group, positive: "1"}
            related: [proxy_a, proxy_b]
            """
        )
    )
    (root / "exp.yaml").write_text(
        textwrap.dedent(
            """
            dataset: dataset.yaml
            variant: fairrf
            model: lr
            seeds: [0, 1]
            output_dir: out
            train:
              eta: 0.3
              beta: 0.5
              learning_rate: 0.01
              pretrain_epochs: 2
              max_epochs: 4
              batch_size: 64
            """
        )
    )
    return root


def run_cli(*argv):
    return main(list(argv))


def constrain_s_config(workspace):
    """The workspace experiment as constrain_s, without the opt-in it needs."""
    exp = workspace / "exp_constrain.yaml"
    exp.write_text(
        (workspace / "exp.yaml").read_text().replace(
            "variant: fairrf", "variant: constrain_s"
        )
    )
    return exp


class TestExperimentConfigParsing:
    DOC = {
        "dataset": "adult",
        "variant": "fairrf",
        "model": "mlp",
        "hidden_dims": [64, 32],
        "seeds": [0, 1, 2],
        "output_dir": "runs/x",
        "train": {"eta": 0.3, "beta": 0.5},
    }

    def test_valid(self):
        exp = parse_experiment_config(dict(self.DOC))
        assert exp.dataset.name == "adult"
        assert exp.related == ("age", "relationship", "marital-status")
        assert exp.train == TrainConfig(eta=0.3, beta=0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="leraning"):
            parse_experiment_config(dict(self.DOC, leraning=1))

    def test_unknown_train_key_rejected(self):
        doc = dict(self.DOC, train={"eta": 0.3, "lr": 0.01})
        with pytest.raises(ValueError, match="lr"):
            parse_experiment_config(doc)

    def test_bad_variant_and_model(self):
        with pytest.raises(ValueError, match="variant"):
            parse_experiment_config(dict(self.DOC, variant="magic"))
        with pytest.raises(ValueError, match="model"):
            parse_experiment_config(dict(self.DOC, model="tree"))

    def test_absent_hidden_dims_left_to_the_model(self):
        doc = {k: v for k, v in self.DOC.items() if k != "hidden_dims"}
        assert parse_experiment_config(doc).hidden_dims is None

    def test_hidden_dims_only_for_mlp(self):
        doc = dict(self.DOC, model="lr", hidden_dims=[8])
        with pytest.raises(ValueError, match="hidden_dims"):
            parse_experiment_config(doc)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="seeds"):
            parse_experiment_config(dict(self.DOC, seeds=[]))
        with pytest.raises(ValueError, match="duplicate"):
            parse_experiment_config(dict(self.DOC, seeds=[1, 1]))

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="experiment config: seeds: seed must be >= 0"):
            parse_experiment_config(dict(self.DOC, seeds=[0, -1]))

    def test_unknown_variant_message_is_the_library_one(self):
        with pytest.raises(ValueError) as lib:
            training.check_variant("magic")
        with pytest.raises(ValueError, match=re.escape(f"experiment config: {lib.value}")):
            parse_experiment_config(dict(self.DOC, variant="magic"))

    def test_related_must_exist(self):
        with pytest.raises(ValueError, match="fnlwgt"):
            parse_experiment_config(dict(self.DOC, related=["fnlwgt"]))

    def test_related_names_distinct(self):
        doc = dict(self.DOC, related=["relationship", "relationship"])
        with pytest.raises(ValueError, match="'relationship' is named twice"):
            parse_experiment_config(doc)

    def test_train_config_validated(self):
        doc = dict(self.DOC, train={"eta": -1})
        with pytest.raises(ValueError):
            parse_experiment_config(doc)

    def test_readme_lists_the_train_keys(self):
        readme = pathlib.Path(__file__).parent.parent / "README.md"
        blocks = [yaml.safe_load(b) for b in
                  re.findall(r"```yaml\n(.*?)```", readme.read_text(), re.S)]
        (listed,) = [b["train"] for b in blocks if list(b) == ["train"]]
        assert tuple(listed) == TRAIN_KEYS
        assert listed == {k: getattr(TrainConfig(), k) for k in TRAIN_KEYS}

    def test_readme_lists_the_variants(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("\n## Training variants\n", 1)[1].split("\n## ", 1)[0]
        tags = re.findall(r"^\| `(\w+)` \|", section, re.M)
        assert sorted(tags) == sorted(VARIANTS)


@pytest.mark.parametrize("line", ["learn_lambda: false", "model_train_steps: 2"])
def test_removed_train_keys_fail_loudly(workspace, tmp_path, capsys, line):
    exp = workspace / "exp_removed_key.yaml"
    exp.write_text((workspace / "exp.yaml").read_text() + f"  {line}\n")
    code = run_cli(
        "train", "-c", str(exp), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown key(s)" in err and line.split(":")[0] in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "change, named",
    [
        ({"seeds": [0.5, 1.7]}, "seeds"),
        ({"seeds": [True, 2]}, "seeds"),
        ({"model": "mlp", "hidden_dims": [8.5]}, "hidden_dims"),
        ({"variant": "constrain_s", "allow_sensitive_in_training": "false"},
         "allow_sensitive_in_training"),
        ({"train": {"batch_size": 1.5}}, "train: batch_size"),
        ({"train": {"max_epochs": 2.5}}, "train: max_epochs"),
        ({"train": {"eta": "0.3"}}, "train: eta"),
        ({"train": {"eta": float("nan")}}, "train: eta"),
        ({"train": {"beta": float("inf")}}, "train: beta"),
        ({"train": {"learning_rate": float("inf")}}, "train: learning_rate"),
        # a string is not split into one-letter names
        ({"related": "proxy_a"}, "related must be a list"),
        ({"related": 5}, "related must be a list"),
        ({"model": "mlp", "hidden_dims": []}, "hidden_dims"),
        ({"model": "mlp", "hidden_dims": [0]}, "hidden_dims"),
        ({"model": "mlp", "hidden_dims": [-3]}, "hidden_dims"),
    ],
    ids=["seeds-float", "seeds-bool", "hidden-dims-float", "allow-sensitive-string",
         "batch-size-float", "max-epochs-float", "eta-string", "eta-nan", "beta-inf",
         "learning-rate-inf", "related-string", "related-int", "hidden-dims-empty",
         "hidden-dims-zero", "hidden-dims-negative"],
)
def test_config_values_taken_as_written_or_rejected(workspace, tmp_path, capsys,
                                                    change, named):
    doc = yaml.safe_load((workspace / "exp.yaml").read_text())
    doc.update({k: v for k, v in change.items() if k != "train"})
    doc["train"].update(change.get("train", {}))
    exp = workspace / "exp_typed.yaml"
    exp.write_text(yaml.safe_dump(doc))
    code = run_cli(
        "train", "-c", str(exp), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    assert f"error: {exp}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, key, value, named",
    [
        ("exp.yaml", "train", 5, "train: expected a mapping"),
        ("dataset.yaml", "columns", [{"kind": "continuous"}],
         "columns[0]: missing required key 'name'"),
        ("dataset.yaml", "label", {"positive": "1"}, "label: missing required key 'name'"),
        ("dataset.yaml", "columns", 5, "columns must be a list"),
        # "NA" would otherwise drop every row holding a cell "N" or "A"
        ("dataset.yaml", "missing", "NA", "missing must be a list"),
    ],
    ids=["train-int", "column-without-name", "label-without-name", "columns-int",
         "missing-string"],
)
def test_config_shapes_checked(workspace, tmp_path, capsys, name, key, value, named):
    for config in ("exp.yaml", "dataset.yaml"):
        doc = yaml.safe_load((workspace / config).read_text())
        if config == name:
            doc[key] = value
        (tmp_path / config).write_text(yaml.safe_dump(doc))
    code = run_cli(
        "train", "-c", str(tmp_path / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    assert f"error: {tmp_path / name}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _run_with_config_value(workspace, tmp_path, monkeypatch, name, key, value):
    """``train`` from ``tmp_path``, its cwd, on the workspace configs with
    ``name``'s ``key`` set to ``value``; returns the exit code."""
    for config in ("exp.yaml", "dataset.yaml"):
        doc = yaml.safe_load((workspace / config).read_text())
        if config == name:
            doc[key] = value
        (tmp_path / config).write_text(yaml.safe_dump(doc))
    monkeypatch.chdir(tmp_path)
    return run_cli("train", "-c", str(tmp_path / "exp.yaml"), "--data-dir", str(workspace))


@pytest.mark.parametrize("value", [None, 7, ["o"], ""], ids=["null", "number", "list", "empty"])
def test_output_dir_must_be_a_string(workspace, tmp_path, monkeypatch, capsys, value):
    # a null output_dir once became a run directory named ./None
    assert _run_with_config_value(workspace, tmp_path, monkeypatch, "exp.yaml", "output_dir",
                                  value) == 1
    assert (f"error: {tmp_path / 'exp.yaml'}: output_dir must be a non-empty string, "
            f"got {value!r}") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["dataset.yaml", "exp.yaml"]


@pytest.mark.parametrize("value", [None, 3], ids=["null", "number"])
def test_dataset_name_must_be_a_string(workspace, tmp_path, monkeypatch, capsys, value):
    assert _run_with_config_value(workspace, tmp_path, monkeypatch, "dataset.yaml", "name",
                                  value) == 1
    assert (f"error: {tmp_path / 'dataset.yaml'}: name must be a non-empty string, "
            f"got {value!r}") in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, ""], ids=["null", "empty"])
def test_dataset_csv_must_be_a_string(workspace, tmp_path, monkeypatch, capsys, value):
    # a null csv once failed later as "dataset file not found: .../None", and
    # an empty one as a bare IsADirectoryError
    assert _run_with_config_value(workspace, tmp_path, monkeypatch, "dataset.yaml", "csv",
                                  value) == 1
    assert (f"error: {tmp_path / 'dataset.yaml'}: csv must be a non-empty string, "
            f"got {value!r}") in capsys.readouterr().err


def test_a_dataset_path_without_suffix_is_not_a_builtin_name(workspace, tmp_path, capsys):
    # workspace/dataset.yaml exists, but only a .yaml/.yml value names a file
    doc = yaml.safe_load((workspace / "exp.yaml").read_text())
    doc["dataset"] = str(workspace / "dataset")
    exp = tmp_path / "exp.yaml"
    exp.write_text(yaml.safe_dump(doc))
    code = run_cli(
        "train", "-c", str(exp), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"no builtin dataset config named {str(workspace / 'dataset')!r}" in err
    assert "adult, compas, lsac" in err and ".yaml or .yml suffix" in err
    assert not (tmp_path / "o").exists()


def test_declared_sensitive_value_must_occur(workspace, tmp_path, capsys):
    for config in ("exp.yaml", "dataset.yaml"):
        (tmp_path / config).write_text((workspace / config).read_text())
    dataset = tmp_path / "dataset.yaml"
    dataset.write_text(dataset.read_text().replace(
        'sensitive: {name: group, positive: "1"}', 'sensitive: {name: group, positive: "7"}'
    ))
    code = run_cli(
        "train", "-c", str(tmp_path / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    assert "column 'group' never holds the declared positive value '7'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_declared_label_value_must_occur(workspace, tmp_path, capsys):
    for config in ("exp.yaml", "dataset.yaml"):
        (tmp_path / config).write_text((workspace / config).read_text())
    with open(workspace / "synth.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "synth.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "outcome": "0"} for row in rows)
    code = run_cli(
        "train", "-c", str(tmp_path / "exp.yaml"), "--data-dir", str(tmp_path),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    assert (
        f"error: {tmp_path / 'synth.csv'}: column 'outcome' never holds the declared "
        "positive value '1'"
    ) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_beta_too_small_for_the_scores_is_named(workspace, tmp_path, capsys):
    doc = yaml.safe_load((workspace / "exp.yaml").read_text())
    doc["dataset"] = str(workspace / "dataset.yaml")
    doc["train"]["beta"] = 1.0e-12
    exp = tmp_path / "exp.yaml"
    exp.write_text(yaml.safe_dump(doc))
    code = run_cli(
        "train", "-c", str(exp), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"),
    )
    assert code == 1
    assert re.search(
        r"error: beta 1e-12 is too small next to the scores \(largest \|score\| [0-9.]+\)",
        capsys.readouterr().err,
    )
    assert not (tmp_path / "o").exists()


def recording_pool(sizes, jobs=None, shared=None):
    """A ProcessPoolExecutor stand-in that runs its initializer and jobs
    in-process and records its size and, when given ``jobs`` and ``shared``,
    the arguments of every job submitted and of its initializer."""

    class Pool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            if shared is not None:
                shared.append(initargs)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            if jobs is not None:
                jobs.append(args)
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    return Pool


@pytest.mark.parametrize(
    "workers, seeds, pool_sizes",
    [("1000", "0,1", [2]), ("4", "0", [])],
    ids=["more-workers-than-jobs", "one-job-runs-serially"],
)
def test_pool_never_outnumbers_the_jobs(workspace, tmp_path, monkeypatch,
                                        workers, seeds, pool_sizes):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
    code = run_cli(
        "train", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", seeds, "--workers", workers,
    )
    assert code == 0
    assert sizes == pool_sizes


@pytest.mark.parametrize(
    "workers, seeds, cells_per_job",
    [("2", "0", [2, 2]), ("3", "0", [1, 1, 2]), ("1000", "0", [1] * 4),
     ("3", "0,1", [2, 2, 2, 2]), ("2", "0,1", [4, 4])],
    ids=["two-workers-one-seed", "uneven-parts", "a-cell-per-job",
         "ceil-of-workers-per-seed", "a-job-per-seed"],
)
def test_seeds_cut_into_jobs_for_idle_workers(workspace, tmp_path, monkeypatch,
                                               workers, seeds, cells_per_job):
    # fewer seeds than workers: each seed's cells go out as ceil(workers / seeds)
    # jobs, never more jobs than cells
    sizes, jobs = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording_pool(sizes, jobs))
    code = run_cli(
        "sweep", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", seeds, "--workers", workers,
        "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,0.8",
    )
    assert code == 0
    assert sizes == [min(int(workers), len(cells_per_job))]
    assert [len(job[0]) for (job,) in jobs] == cells_per_job


def test_a_job_ships_its_cells_and_not_the_dataset(workspace, tmp_path, monkeypatch):
    # the pool's initializer hands each worker the dataset once; the jobs
    # carry their cells, seed, output directory and checkpoint flag
    write_csv(generate(SyntheticSpec(n=10000, seed=0)), tmp_path / "synth.csv")
    (tmp_path / "dataset.yaml").write_text((workspace / "dataset.yaml").read_text())
    exp = yaml.safe_load((workspace / "exp.yaml").read_text())
    exp["train"].update(max_epochs=1, pretrain_epochs=1, batch_size=1024)
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump(exp))
    sizes, jobs, shared = [], [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording_pool(sizes, jobs, shared))
    assert run_cli(
        "sweep", "-c", str(tmp_path / "exp.yaml"), "--data-dir", str(tmp_path),
        "--output-dir", str(tmp_path / "o"), "--seeds", "0,1", "--workers", "2",
        "--eta-grid", "0.1,0.3",
    ) == 0
    ((context,),) = shared
    assert len(ForkingPickler.dumps(context)) > 256 * 1024
    assert len(jobs) == 2
    assert all(len(ForkingPickler.dumps(job)) < 64 * 1024 for job in jobs)
    assert cli._shared is None  # cleared when the jobs end


def test_a_serial_job_shares_the_dataset_while_it_runs(workspace, tmp_path, monkeypatch):
    # at --workers 1 every seed is in the one job, which runs in this process
    seen = []
    seed_job = cli._seed_job

    def recording_seed_job(payload):
        seen.append(cli._shared)
        return seed_job(payload)

    monkeypatch.setattr(cli, "_seed_job", recording_seed_job)
    assert run_cli(
        "train", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", "0,1", "--workers", "1",
    ) == 0
    assert len(seen) == 1
    raw, exp = seen[0]
    assert raw.n == 400 and exp.variant == "fairrf"
    assert cli._shared is None


def test_the_console_script_freezes_the_heap_before_main():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'relfair = "relfair.cli:entry"' in pyproject.read_text().splitlines()
    code = (
        "import gc\n"
        "from relfair import cli\n"
        "cli.main = gc.get_freeze_count\n"
        "print(cli.entry() > 0)\n"
    )
    assert run_python(["-c", code]) == "True\n"


def counting(monkeypatch, module, names):
    """Count the calls of ``module.<name>`` for each name, in the returned dict."""
    seen = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            seen[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize(
    "argv, encodings",
    [(("compare", "--variants", "vanilla,fairrf,remove_related"), 2),
     (("sweep", "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,0.8"), 1)],
    ids=["compare", "sweep"],
)
def test_a_seed_job_encodes_and_pretrains_once_per_encoding(workspace, tmp_path,
                                                            monkeypatch, argv, encodings):
    # compare: vanilla and fairrf share an encoding, remove_related has its own;
    # sweep: its 4 cells share one.  The job holds both seeds, and encodes each
    # seed's splits once per encoding.  The cells that share an encoding (and
    # the model shape and pretraining settings) are one stack over both seeds:
    # one pretrain and one fair loop per encoding.
    seen = counting(monkeypatch, training, ("encode", "pretrain", "train_stack"))
    command, *extra = argv
    assert run_cli(
        command, "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", "0,1", "--workers", "1", *extra,
    ) == 0
    assert seen == {"encode": 2 * encodings, "pretrain": encodings, "train_stack": encodings}


def test_a_seed_job_is_one_library_run_single_call(workspace, tmp_path, monkeypatch):
    # the CLI trains each job, here both seeds, through the library's runner
    assert cli.run_single is training.run_single
    seen = counting(monkeypatch, cli, ("run_single",))
    assert run_cli(
        "compare", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", "0,1", "--workers", "1",
        "--variants", "vanilla,fairrf,remove_related",
    ) == 0
    assert seen == {"run_single": 1}


def _unmeasurable(result):
    raise ValueError("cannot measure")


@pytest.mark.parametrize("fails", ["in-the-fair-loop", "when-measured"])
def test_a_seed_job_holds_one_encoding_at_a_time(workspace, tmp_path, monkeypatch, fails):
    # a job's results are held until all its cells are trained, but a result
    # keeps no encoding and a failed cell keeps no data alive: while a group
    # encodes, only its earlier seeds' encodings of that group are alive
    doc = yaml.safe_load((workspace / "exp.yaml").read_text())
    doc["dataset"] = str(workspace / "dataset.yaml")
    if fails == "in-the-fair-loop":
        doc["train"]["beta"] = 1.0e-12  # fairrf fails; vanilla and remove_related do not
    else:
        monkeypatch.setattr(training.TrainResult, "test_metrics", _unmeasurable)
    exp = tmp_path / "exp.yaml"
    exp.write_text(yaml.safe_dump(doc))
    encode = training.encode
    earlier = []  # a weak reference to each encoded training split
    alive = []  # how many of them were alive at each encode

    def checked_encode(train, others):
        alive.append(sum(ref() is not None for ref in earlier))
        encoded = encode(train, others)
        earlier.append(weakref.ref(encoded[0]))
        return encoded

    monkeypatch.setattr(training, "encode", checked_encode)
    assert run_cli(
        "compare", "-c", str(exp), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", "0,1",
        "--variants", "vanilla,remove_related,fairrf",
    ) == 1
    assert alive == [0, 1, 0, 1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failed_cell_leaves_its_seed_mates_running(workspace, tmp_path, workers):
    # at --workers 1 both cells are one job: the tiny beta fails in the fair
    # loop, after the shared encode and pretrain, and the other cell goes on
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(out), "--seeds", "0", "--workers", workers,
        "--eta-grid", "0.3", "--beta-grid", "1e-12,0.5",
    )
    assert code == 0
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["eta"], f["beta"], f["seed"]) for f in failures] == [(0.3, 1e-12, 0)]
    assert "too small" in failures[0]["error"]
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0.3", "0.5", "0"]]


def test_a_failed_seed_job_fails_each_of_its_cells(workspace, tmp_path, monkeypatch):
    split = training.split

    def failing_on_seed_1(raw, seed):
        if seed == 1:
            raise RuntimeError("seed 1 cannot be split")
        return split(raw, seed=seed)

    monkeypatch.setattr(training, "split", failing_on_seed_1)
    out = tmp_path / "sweep"
    assert run_cli(
        "sweep", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(out), "--seeds", "0,1", "--eta-grid", "0.1,0.3",
    ) == 0
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["eta"], f["seed"], f["error"]) for f in failures] == [
        (0.1, 1, "seed 1 cannot be split"), (0.3, 1, "seed 1 cannot be split"),
    ]
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0.1", "0.5", "0"], ["0.3", "0.5", "0"]]


@pytest.mark.parametrize("workers, failed", [("1", [0, 1]), ("2", [1])])
def test_a_job_that_fails_as_a_whole_fails_each_of_its_cells(workspace, tmp_path, monkeypatch,
                                                             workers, failed):
    # at --workers 1 both seeds are one job, and both fail with it
    run_single = cli.run_single

    def failing_with_seed_1(raw, related, cells, model, seeds, **kwargs):
        if 1 in seeds:
            raise RuntimeError("the job of seed 1 failed")
        return run_single(raw, related, cells, model, seeds, **kwargs)

    monkeypatch.setattr(cli, "run_single", failing_with_seed_1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool([]))
    out = tmp_path / "sweep"
    assert run_cli(
        "sweep", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(out), "--seeds", "0,1", "--eta-grid", "0.1,0.3",
        "--workers", workers,
    ) == (1 if failed == [0, 1] else 0)
    failures = json.loads((out / "failures.json").read_text())
    assert [(f["eta"], f["seed"], f["error"]) for f in failures] == [
        (eta, seed, "the job of seed 1 failed") for eta in (0.1, 0.3) for seed in failed]


def dataset_variant(workspace, tmp_path, edit, csv=None):
    """The workspace experiment on its dataset config as ``edit`` rewrites it,
    reading ``csv`` (default: the workspace CSV)."""
    dataset = tmp_path / "dataset.yaml"
    dataset.write_text(edit((workspace / "dataset.yaml").read_text()).replace(
        "csv: synth.csv", f"csv: {csv or workspace / 'synth.csv'}"))
    exp = tmp_path / "exp.yaml"
    exp.write_text((workspace / "exp.yaml").read_text().replace(
        "dataset: dataset.yaml", f"dataset: {dataset}"))
    return exp


def no_sensitive_config(workspace, tmp_path, csv=None):
    """The workspace experiment on a dataset config without a sensitive: block."""
    return dataset_variant(workspace, tmp_path, lambda text: "\n".join(
        line for line in text.splitlines() if not line.startswith("sensitive:")), csv)


@pytest.mark.parametrize("command", ["train", "compare", "sweep"])
def test_a_dataset_without_a_sensitive_column_is_refused_before_loading(
        workspace, tmp_path, monkeypatch, capsys, command):
    csv = tmp_path / "synth.csv"
    csv.write_bytes((workspace / "synth.csv").read_bytes())
    exp = no_sensitive_config(workspace, tmp_path, csv)
    seen = counting(monkeypatch, cli, ("load_from_config",))
    seen.update(counting(monkeypatch, training, ("encode", "pretrain")))
    out = tmp_path / "o"
    assert run_cli(command, "-c", str(exp), "--output-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {exp}: dataset 'synth' has no 'sensitive' column; train, compare "
        "and sweep report delta_eo and delta_dp, which need one\n"
    )
    assert seen == {"load_from_config": 0, "encode": 0, "pretrain": 0}
    assert not out.exists()
    assert not list(tmp_path.glob(".*.relfair.npz"))  # no load wrote a cache


def test_evaluate_takes_a_dataset_without_a_sensitive_column(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(
        "train", "-c", str(workspace / "exp.yaml"),
        "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0",
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "evaluate", "-c", str(no_sensitive_config(workspace, tmp_path)),
        "--checkpoint", str(out / "seed_0" / "checkpoint.npz"),
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"accuracy", "checkpoint", "seed", "split"}


def test_a_related_feature_constant_on_the_training_split_is_named(workspace, tmp_path,
                                                                   capsys):
    # 'region' holds one value on every row, so it encodes to no column
    lines = (workspace / "synth.csv").read_text().splitlines()
    (tmp_path / "region.csv").write_text(
        "\n".join([lines[0] + ",region", *(line + ",north" for line in lines[1:])]) + "\n")
    exp = dataset_variant(workspace, tmp_path, lambda text: text.replace(
        "label:", "  - {name: region, kind: categorical}\nlabel:").replace(
        "related: [proxy_a, proxy_b]", "related: [proxy_a, region]"),
        csv=tmp_path / "region.csv")
    message = ("related feature 'region' has no encoded columns "
               "(constant on the training split)")
    assert run_cli("compare", "-c", str(exp), "--output-dir", str(tmp_path / "c")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # sweep records the failure of each cell and seed; none trains
    assert run_cli("sweep", "-c", str(exp), "--output-dir", str(tmp_path / "s")) == 1
    failures = json.loads((tmp_path / "s" / "failures.json").read_text())
    assert [(f["seed"], f["error"]) for f in failures] == [(0, message), (1, message)]


def test_a_continuous_column_too_large_to_z_score_is_named(workspace, tmp_path, capsys):
    # 'big' alternates 9e307 and 1e308, so its training mean overflows
    lines = (workspace / "synth.csv").read_text().splitlines()
    (tmp_path / "big.csv").write_text("\n".join(
        [lines[0] + ",big", *(line + ("," + ("9e307", "1e308")[i % 2])
                              for i, line in enumerate(lines[1:]))]) + "\n")
    exp = dataset_variant(workspace, tmp_path, lambda text: text.replace(
        "label:", "  - {name: big, kind: continuous}\nlabel:"), csv=tmp_path / "big.csv")
    assert run_cli("train", "-c", str(exp), "--output-dir", str(tmp_path / "t")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: column 'big': its mean inf or standard deviation")
    assert "too large to z-score" in err and err.count("\n") == 1


def test_an_output_dir_that_is_a_file_is_refused(workspace, tmp_path, capsys):
    path = tmp_path / "o"
    path.write_text("kept\n")
    assert run_cli(
        "train", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(path),
    ) == 1
    assert capsys.readouterr().err == (
        f"error: output directory {path} exists and is not a directory\n")
    assert path.read_text() == "kept\n"


def _declared_and_on_disk(out):
    """The files ``out``'s manifest declares, and the files in ``out`` but it."""
    declared = set(json.loads((out / "manifest.json").read_text())["files"])
    on_disk = {os.path.relpath(os.path.join(base, f), out)
               for base, _, names in os.walk(out) for f in names} - {"manifest.json"}
    return declared, on_disk


class TestRunDirectory:
    """A run directory holds exactly the files of one run, as its manifest says."""

    def test_a_rerun_with_fewer_seeds_replaces_the_run(self, workspace, tmp_path):
        out = tmp_path / "run"
        for seeds in ("0,1,2", "0"):
            assert run_cli("train", "-c", str(workspace / "exp.yaml"), "--data-dir",
                           str(workspace), "--output-dir", str(out), "--seeds", seeds) == 0
        declared, on_disk = _declared_and_on_disk(out)
        assert declared == on_disk
        assert {path.split("/")[0] for path in on_disk} == {
            "report.json", "report.txt", "seed_0"}
        assert os.listdir(tmp_path) == ["run"]

    def test_a_sweep_rerun_without_its_failure_drops_failures_json(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        for betas, failures in (("1e-300,0.5", 1), ("0.5", 0)):
            assert run_cli("sweep", "-c", str(workspace / "exp.yaml"), "--data-dir",
                           str(workspace), "--output-dir", str(out), "--seeds", "0",
                           "--eta-grid", "0.3", "--beta-grid", betas) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["metadata"]["n_failures"] == failures
            assert (out / "failures.json").exists() == bool(failures)
            declared, on_disk = _declared_and_on_disk(out)
            assert declared == on_disk
        assert os.listdir(tmp_path) == ["sweep"]

    def test_a_directory_that_holds_no_run_is_refused(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "todo.txt").write_text("kept\n")
        monkeypatch.setattr(cli, "load_from_config", None)  # refused before loading
        assert run_cli("train", "-c", str(workspace / "exp.yaml"), "--data-dir",
                       str(workspace), "--output-dir", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: output directory {out} is not empty and holds no manifest.json; "
            "only a previous run's directory is replaced\n")
        assert os.listdir(out) == ["todo.txt"] and os.listdir(tmp_path) == ["notes"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_failed_run_leaves_the_previous_run_as_it_was(self, workspace, tmp_path,
                                                             workers):
        out = tmp_path / "run"
        args = ("--data-dir", str(workspace), "--output-dir", str(out), "--workers", workers)
        assert run_cli("train", "-c", str(workspace / "exp.yaml"), *args) == 0
        before = {path: (out / path).read_bytes() for path in _declared_and_on_disk(out)[1]}
        before["manifest.json"] = (out / "manifest.json").read_bytes()
        # vanilla trains and writes its files, then constrain_s fails the run
        assert run_cli("compare", "-c", str(constrain_s_config(workspace)), *args,
                       "--variants", "vanilla,constrain_s") == 1
        after = {path: (out / path).read_bytes() for path in _declared_and_on_disk(out)[1]}
        after["manifest.json"] = (out / "manifest.json").read_bytes()
        assert after == before
        assert os.listdir(tmp_path) == ["run"]

    def test_a_failed_move_into_place_restores_the_previous_run(self, workspace, tmp_path,
                                                                 monkeypatch, capsys):
        out = tmp_path / "run"
        args = ("train", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
                "--output-dir", str(out))
        assert run_cli(*args) == 0
        before = _artifacts(out)
        rename = os.rename

        def failing_for_the_staging_directory(src, dst):
            if cli.STAGING in str(src) and not str(src).endswith(".replaced"):
                raise OSError("cannot move the staging directory")
            rename(src, dst)

        monkeypatch.setattr(cli.os, "rename", failing_for_the_staging_directory)
        assert run_cli(*args, "--seeds", "0") == 1
        assert capsys.readouterr().err.endswith("cannot move the staging directory\n")
        assert _artifacts(out) == before
        assert os.listdir(tmp_path) == ["run"]


def test_no_related_features_in_either_config_is_refused(workspace, tmp_path, capsys):
    exp = dataset_variant(workspace, tmp_path, lambda text: text.replace(
        "related: [proxy_a, proxy_b]", "related: []"))
    assert run_cli("train", "-c", str(exp), "--output-dir", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"error: {exp}: no related features given (and none in the dataset config)\n")
    assert not (tmp_path / "o").exists()


class TestTrain:
    def test_writes_all_artifacts(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) >= {"accuracy", "delta_eo", "delta_dp", "per_seed"}
        assert len(report["per_seed"]) == 2
        for seed in (0, 1):
            assert (out / f"seed_{seed}" / "trace.jsonl").exists()
            assert (out / f"seed_{seed}" / "checkpoint.npz").exists()
        assert "fairrf" in capsys.readouterr().out

    def test_manifest_declares_every_file(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        declared = set(manifest["files"])
        on_disk = {
            os.path.relpath(os.path.join(base, f), out)
            for base, _, names in os.walk(out)
            for f in names
        } - {"manifest.json"}
        assert declared == on_disk
        assert "created_at" in manifest["metadata"]

    def test_rerun_is_byte_identical_outside_metadata(self, workspace, tmp_path):
        out = tmp_path / "run"
        args = (
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out),
        )
        assert run_cli(*args) == 0
        first = {
            p: (out / p).read_bytes()
            for p in json.loads((out / "manifest.json").read_text())["files"]
        }
        assert run_cli(*args) == 0
        for p, blob in first.items():
            assert (out / p).read_bytes() == blob

    def test_seed_override(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out),
            "--seeds", "7",
        ) == 0
        assert (out / "seed_7").exists()
        assert not (out / "seed_0").exists()

    def test_missing_dataset_names_path(self, workspace, tmp_path, capsys):
        code = run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(tmp_path), "--output-dir", str(tmp_path / "o"),
        )
        assert code == 1
        assert "synth.csv" in capsys.readouterr().err

    def test_env_var_supplies_data_dir(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("RELFAIR_DATA_DIR", str(workspace))
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"), "--output-dir", str(out)
        ) == 0

    def test_workers_do_not_change_results(self, workspace, tmp_path):
        # three seeds in stacks of 3, 1 + 2 and 1 + 1 + 1: every artifact is
        # byte-identical, and the metadata names each job's seeds
        runs, jobs = [], []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            assert run_cli("train", "-c", str(workspace / "exp.yaml"),
                           "--data-dir", str(workspace), "--output-dir", str(out),
                           "--seeds", "0,1,2", "--workers", workers) == 0
            runs.append(_artifacts(out))
            jobs.append(json.loads((out / "manifest.json").read_text())["metadata"]["jobs"])
        assert "seed_2/checkpoint.npz" in runs[0]
        assert runs[0] == runs[1] == runs[2]
        assert jobs == [[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]]


class TestSweep:
    def test_grid_rows(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out),
            "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,0.8", "--seeds", "0",
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "eta,beta,seed,accuracy,delta_eo,delta_dp"
        assert len(lines) == 1 + 4  # 2x2 grid, one seed
        cells_root = out / "cells"
        assert len(list(cells_root.iterdir())) == 4

    def test_single_cell_matches_train(self, workspace, tmp_path):
        train_out = tmp_path / "train"
        sweep_out = tmp_path / "sweep"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(train_out),
        ) == 0
        assert run_cli(
            "sweep", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(sweep_out),
        ) == 0
        report = json.loads((train_out / "report.json").read_text())
        per_seed = {r["seed"]: r for r in report["per_seed"]}
        lines = (sweep_out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == len(per_seed)
        for line in lines:
            eta, beta, seed, acc, eo, dp = line.split(",")
            row = per_seed[int(seed)]
            assert float(acc) == pytest.approx(row["accuracy"])
            assert float(dp) == pytest.approx(row["delta_dp"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failures_recorded_and_command_continues(self, workspace, tmp_path, workers):
        # constrain_s without the explicit opt-in fails inside every cell
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "-c", str(constrain_s_config(workspace)), "--data-dir", str(workspace),
            "--output-dir", str(out), "--seeds", "0", "--workers", workers,
        )
        assert code == 1  # nothing succeeded
        failures = json.loads((out / "failures.json").read_text())
        assert len(failures) == 1
        assert "allow_sensitive_in_training" in failures[0]["error"]


class TestCompare:
    def test_table_and_payload(self, workspace, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out),
            "--variants", "vanilla,fairrf", "--seeds", "0",
        )
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert set(payload) == {"vanilla", "fairrf"}
        # the biased synthetic data is exactly the case the method addresses
        assert payload["fairrf"]["delta_dp"] < payload["vanilla"]["delta_dp"]
        stdout = capsys.readouterr().out
        assert "vanilla" in stdout and "fairrf" in stdout

    def test_unknown_variant_rejected(self, workspace, tmp_path, capsys):
        code = run_cli(
            "compare", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(tmp_path / "x"),
            "--variants", "vanilla,magic",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: --variants: unknown variant 'magic'; expected one of {VARIANTS}" in err


# sha256 of every file a command's manifest declares, and of the manifest
# without its metadata block, for the workspace experiment on seeds 0 and 1.
# The three commands share one run pipeline; reworking it must move no byte.
PINNED_ARTIFACTS = {
    "train": {
        "manifest.json":
            "cc9f6de69cf9fca5c59ce90a023e570ca8243be1bc9d0d951d35899b7e7d021a",
        "report.json":
            "7cc608257d7e3b17ebb568070ca83fcec829816d57af0882682a768d04d68732",
        "report.txt":
            "dd3bf5ffdb503c82921073958bf9748475f897ab97249100aa30cc8f1e19be0b",
        "seed_0/checkpoint.npz":
            "fd9d0f782578b551c898701a73cdc3b8ae0252a7e35b71fe0af466880a542379",
        "seed_0/trace.jsonl":
            "7d89aa10c4afea174a60800cc612be7e0b3bbab8608a33fe1103d19d899aa7b7",
        "seed_1/checkpoint.npz":
            "99a5f748eba2025328a195c4c977742314734ed8eb592d748b83af19b5f7160f",
        "seed_1/trace.jsonl":
            "52f949399198c3a198c7abc6dc2bbae54a92d5e6b3ec3c4052004327e6c095f8",
    },
    "compare": {
        "manifest.json":
            "576549d2f3e5ce6e0feefcd6a291185f8026671591e787dc159475310fed9936",
        "comparison.json":
            "aa40b5cceb51183a377db6835044dc5ada06bcf95047e28d4a5f7044b2a54939",
        "comparison.txt":
            "3d7059ea86b7b623c07375ada988193947a63879a6f5e3400de843e19245ff86",
        "fairrf/seed_0/trace.jsonl":
            "7d89aa10c4afea174a60800cc612be7e0b3bbab8608a33fe1103d19d899aa7b7",
        "fairrf/seed_1/trace.jsonl":
            "52f949399198c3a198c7abc6dc2bbae54a92d5e6b3ec3c4052004327e6c095f8",
        "remove_related/seed_0/trace.jsonl":
            "9c4ccf458f3745fa792702758d8b330bb3622b76f0df5a7cc810c96612b77bdf",
        "remove_related/seed_1/trace.jsonl":
            "e79417ab438d0570b5f04893137b18867d58ae9394c15d5f67412a7d7cfb3248",
        "vanilla/seed_0/trace.jsonl":
            "884b7430fbb1b10c45d885ad57a0ed6e948ec2b0f90628dd67f8105341ee2fce",
        "vanilla/seed_1/trace.jsonl":
            "31026ee6f131b1d8a06d6180db781e8a4522ddd58f9ad4712ee98bb910515fd3",
    },
    "sweep": {
        "manifest.json":
            "34479881f67dfb6450bc5768335aeff6781a455051dc6f27dc10fcbafbbac3f6",
        "cells/eta_0.1__beta_0.5/seed_0/trace.jsonl":
            "ef6334375711ce77b0a47c6a7f1b4a8b9bc250f402273837aee34c51c6c80912",
        "cells/eta_0.1__beta_0.5/seed_1/trace.jsonl":
            "20c1408de618fd97fbb496942fa2db44b6eee10053370de278e49d5d6d34205b",
        "cells/eta_0.1__beta_0.8/seed_0/trace.jsonl":
            "ea00164fb39ab51a8cd76c86adec3ae791f2d2430b6860831ac4fdb76b8fdc29",
        "cells/eta_0.1__beta_0.8/seed_1/trace.jsonl":
            "a19fde693819cecdbeb7a8c2bbcb64053ef573632be23e9019a0b6c57f72e6ed",
        "cells/eta_0.3__beta_0.5/seed_0/trace.jsonl":
            "7d89aa10c4afea174a60800cc612be7e0b3bbab8608a33fe1103d19d899aa7b7",
        "cells/eta_0.3__beta_0.5/seed_1/trace.jsonl":
            "52f949399198c3a198c7abc6dc2bbae54a92d5e6b3ec3c4052004327e6c095f8",
        "cells/eta_0.3__beta_0.8/seed_0/trace.jsonl":
            "8d3ddb6bb4b9c04f473a337693c6abe0891f20cf46f93fe232b6c360682e2d78",
        "cells/eta_0.3__beta_0.8/seed_1/trace.jsonl":
            "418f26b5e28e1841d87a2cd5b756e2180a09aa5113b7da4074832207680b97cf",
        "sweep.csv":
            "474ddbeabb396459ec420b02206c046f1098564ed23dc9b9ff184de8d4726fb8",
    },
}

PINNED_COMMANDS = {
    "train": ("train",),
    "compare": ("compare", "--variants", "vanilla,fairrf,remove_related"),
    "sweep": ("sweep", "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,0.8"),
}


def _artifacts(out):
    """Every artifact a run lists, by path; the manifest without its metadata."""
    manifest = json.loads((out / "manifest.json").read_text())
    body = {k: v for k, v in manifest.items() if k != "metadata"}
    blobs = {"manifest.json": json.dumps(body, sort_keys=True).encode()}
    blobs.update({rel: (out / rel).read_bytes() for rel in manifest["files"]})
    return blobs


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_artifacts_are_pinned(workspace, tmp_path, name):
    command, *extra = PINNED_COMMANDS[name]
    out = tmp_path / name
    assert run_cli(
        command, "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(out), "--seeds", "0,1", *extra,
    ) == 0
    assert {rel: hashlib.sha256(blob).hexdigest()
            for rel, blob in _artifacts(out).items()} == PINNED_ARTIFACTS[name]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_write_the_pinned_sweep(workspace, tmp_path, method):
    # the dataset reaches each worker through the pool's initializer:
    # inherited under fork, pickled once per worker under spawn
    command, *extra = PINNED_COMMANDS["sweep"]
    out = tmp_path / command
    code = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from relfair.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    run_python([
        "-c", code, command, "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(out), "--seeds", "0,1", "--workers", "2", *extra,
    ])
    assert {rel: hashlib.sha256(blob).hexdigest()
            for rel, blob in _artifacts(out).items()} == PINNED_ARTIFACTS["sweep"]


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_manifest_metadata_records_the_environment(workspace, tmp_path, monkeypatch, name):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    command, *extra = PINNED_COMMANDS[name]
    out = tmp_path / name
    assert run_cli(
        command, "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(out), "--seeds", "0", "--workers", "2", *extra,
    ) == 0
    metadata = json.loads((out / "manifest.json").read_text())["metadata"]
    assert metadata["command"] == command
    assert metadata["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "2",
        "MKL_NUM_THREADS": None,
        "cpu_count": os.cpu_count(),
        "workers": 2,
    }


def test_compare_does_not_depend_on_blas_threads(workspace, tmp_path):
    write_csv(generate(SyntheticSpec(n=26000, seed=0)), tmp_path / "synth.csv")
    (tmp_path / "dataset.yaml").write_text((workspace / "dataset.yaml").read_text())
    exp = yaml.safe_load((workspace / "exp.yaml").read_text())
    exp["train"].update(max_epochs=2, pretrain_epochs=1, batch_size=256)
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump(exp))
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads_{threads}"
        run_python(["-m", "relfair.cli", "compare", "-c", str(tmp_path / "exp.yaml"),
                    "--data-dir", str(tmp_path), "--output-dir", str(out),
                    "--variants", "fairrf"], threads)
        runs.append(_artifacts(out))
    assert "fairrf/seed_0/trace.jsonl" in runs[0]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "argv", [("train",), ("compare", "--variants", "vanilla,constrain_s")],
    ids=["train", "compare"],
)
def test_failed_job_fails_the_command(workspace, tmp_path, capsys, argv, workers):
    command, *extra = argv
    code = run_cli(
        command, "-c", str(constrain_s_config(workspace)), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--workers", workers, *extra,
    )
    assert code == 1
    assert "allow_sensitive_in_training" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("train", "--seeds", "0,0"), "--seeds"),
        (("train", "--seeds", ""), "--seeds"),
        (("compare", "--variants", "fairrf,fairrf"), "--variants"),
        (("sweep", "--eta-grid", "0.1,0.1"), "--eta-grid"),
        (("sweep", "--beta-grid", "0.5,0.5"), "--beta-grid"),
        # distinct values whose cell directory names ({v:g}) would collide
        (("sweep", "--eta-grid", "0.1,0.1000001"), "--eta-grid"),
        (("sweep", "--beta-grid", "0.5,0.5000001"), "--beta-grid"),
        # entries that do not parse
        (("train", "--seeds", "0,1.5"), "--seeds"),
        (("sweep", "--eta-grid", "0.1,x"), "--eta-grid"),
        (("sweep", "--beta-grid", "0.5,"), "--beta-grid"),
        # values TrainConfig rejects
        (("train", "--seeds", "0,-1"), "--seeds"),
        (("sweep", "--eta-grid", "-1"), "--eta-grid"),
        (("sweep", "--beta-grid", "0"), "--beta-grid"),
        (("sweep", "--eta-grid", "nan"), "--eta-grid"),
        (("train", "--workers", "0"), "--workers"),
        (("train", "--workers", "-3"), "--workers"),
    ],
    ids=["seeds-repeated", "seeds-empty", "variants-repeated", "eta-repeated",
         "beta-repeated", "eta-cell-names", "beta-cell-names", "seeds-unparsed",
         "eta-unparsed", "beta-unparsed", "seeds-negative", "eta-negative", "beta-zero",
         "eta-nan", "workers-zero", "workers-negative"],
)
def test_overrides_checked_like_yaml(workspace, tmp_path, capsys, argv, flag):
    command, *override = argv
    code = run_cli(
        command, "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), *override,
    )
    assert code == 1
    assert f"error: {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_checkpoint_metrics(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0",
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "evaluate", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace),
            "--checkpoint", str(out / "seed_0" / "checkpoint.npz"),
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"accuracy", "delta_eo", "delta_dp"} <= set(payload)
        assert payload["split"] == "test"

    def test_each_checkpoint_scores_the_split_it_was_trained_on(
            self, workspace, tmp_path, capsys):
        # the split seed is the checkpoint's, so no flag can pick another split
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0,1",
        ) == 0
        report = json.loads((out / "report.json").read_text())
        for row in report["per_seed"]:
            capsys.readouterr()
            assert run_cli(
                "evaluate", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
                "--checkpoint", str(out / f"seed_{row['seed']}" / "checkpoint.npz"),
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert {k: payload[k] for k in row} == row

    def test_negative_seed_is_named(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0",
        ) == 0
        path = out / "seed_0" / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        arrays["meta"] = np.frombuffer(json.dumps({**meta, "seed": -1}).encode(), np.uint8)
        np.savez(path, **arrays)
        capsys.readouterr()
        code = run_cli(
            "evaluate", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
            "--checkpoint", str(path),
        )
        assert code == 1
        assert f"error: checkpoint {path}: seed must be >= 0" in capsys.readouterr().err

    def test_dimension_mismatch_is_explained(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0",
        ) == 0
        exp = workspace / "exp_removed.yaml"
        exp.write_text(
            (workspace / "exp.yaml").read_text().replace(
                "variant: fairrf", "variant: remove_related"
            )
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "-c", str(exp), "--data-dir", str(workspace),
            "--checkpoint", str(out / "seed_0" / "checkpoint.npz"),
        )
        assert code == 1
        assert "input columns" in capsys.readouterr().err

    def test_non_finite_checkpoint_is_refused(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0",
        ) == 0
        path = out / "seed_0" / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["w0"].flat[0] = np.nan  # every score of this model would be NaN
        np.savez(path, **arrays)
        capsys.readouterr()
        code = run_cli(
            "evaluate", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
            "--checkpoint", str(path),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "w0 holds a NaN or inf parameter" in captured.err
        assert captured.out == ""

    def test_truncated_checkpoint_is_named(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "train", "-c", str(workspace / "exp.yaml"),
            "--data-dir", str(workspace), "--output-dir", str(out), "--seeds", "0",
        ) == 0
        path = out / "seed_0" / "checkpoint.npz"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        capsys.readouterr()
        code = run_cli(
            "evaluate", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
            "--checkpoint", str(path),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: checkpoint {path}: not an .npz archive\n"
        assert captured.out == ""


class TestTextEncoding:
    """Every text file relfair reads or writes is UTF-8, whatever the locale."""

    @pytest.fixture(scope="class")
    def umlaut(self, tmp_path_factory):
        """A data dir whose CSV and dataset config name a column ``größe``."""
        root = tmp_path_factory.mktemp("umlaut")
        write_csv(generate(SyntheticSpec(n=300, seed=0)), root / "synth.csv")
        text = (root / "synth.csv").read_text(encoding="utf-8")
        header, rest = text.split("\n", 1)
        (root / "synth.csv").write_text(header.replace("noise", "größe") + "\n" + rest,
                                        encoding="utf-8")
        dataset = textwrap.dedent(
            """\
            name: synth
            csv: synth.csv
            columns:
              - {name: signal, kind: continuous}
              - {name: größe, kind: continuous}
              - {name: proxy_a, kind: continuous}
              - {name: proxy_b, kind: continuous}
            label: {name: outcome, positive: "1"}
            sensitive: {name: group, positive: "1"}
            related: [proxy_a, proxy_b]
            """
        )
        (root / "dataset.yaml").write_text(dataset, encoding="utf-8")
        (root / "latin1.yaml").write_text(dataset, encoding="latin-1")
        experiment = textwrap.dedent(
            """\
            dataset: {dataset}
            variant: fairrf
            model: lr
            seeds: [0]
            output_dir: out
            train: {{pretrain_epochs: 1, max_epochs: 2, batch_size: 64}}
            """
        )
        for name in ("dataset", "latin1"):
            (root / f"exp_{name}.yaml").write_text(experiment.format(dataset=f"{name}.yaml"),
                                                   encoding="utf-8")
        return root

    @staticmethod
    def relfair(root, flags, argv, **env):
        """``python *flags -m relfair.cli *argv`` in a fresh process, in ``root``."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, **env}
        return subprocess.run([sys.executable, *flags, "-m", "relfair.cli", *argv],
                              cwd=root, env=env, capture_output=True, text=True)

    def test_an_ascii_locale_reads_a_non_ascii_column_name(self, umlaut):
        done = self.relfair(umlaut, ["-X", "utf8=0"],
                            ["train", "-c", "exp_dataset.yaml", "--data-dir", ".",
                             "--output-dir", "ascii_locale"],
                            LC_ALL="POSIX", PYTHONCOERCECLOCALE="0")
        assert done.returncode == 0, done.stderr

    def test_a_yaml_file_that_is_not_utf8_is_named(self, umlaut):
        done = self.relfair(umlaut, [], ["train", "-c", "exp_latin1.yaml", "--data-dir", ".",
                                         "--output-dir", "latin1"])
        assert done.returncode == 1
        assert done.stderr == f"error: {umlaut / 'latin1.yaml'}: not UTF-8 text: invalid start byte\n"

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["compare", "--variants", "vanilla,fairrf"],
        ["sweep", "--eta-grid", "0.1,0.3", "--beta-grid", "0.5", "--workers", "2"],
        ["evaluate", "--checkpoint", "checkpoint.npz"],
    ], ids=lambda argv: argv[0])
    def test_no_file_is_opened_in_the_locale_encoding(self, umlaut, tmp_path, argv):
        if argv[0] == "evaluate":
            run = tmp_path / "run"
            assert run_cli("train", "-c", str(umlaut / "exp_dataset.yaml"), "--data-dir",
                           str(umlaut), "--output-dir", str(run)) == 0
            argv = ["evaluate", "--checkpoint", str(run / "seed_0" / "checkpoint.npz")]
        else:
            argv = [*argv, "--output-dir", str(tmp_path / argv[0])]
        done = self.relfair(umlaut, ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"],
                            [argv[0], "-c", "exp_dataset.yaml", "--data-dir", ".", *argv[1:]])
        assert done.returncode == 0, done.stderr
