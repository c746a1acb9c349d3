import concurrent.futures
import csv
import hashlib
import json
import os
import pathlib
import re
import textwrap
import weakref

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


def recording_pool(sizes, jobs=None):
    """A ProcessPoolExecutor stand-in that runs jobs in-process and records its
    size and, when given ``jobs``, the arguments of every job submitted."""

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

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
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", recording_pool(sizes))
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
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        recording_pool(sizes, jobs))
    code = run_cli(
        "sweep", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", seeds, "--workers", workers,
        "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,0.8",
    )
    assert code == 0
    assert sizes == [min(int(workers), len(cells_per_job))]
    assert [len(job[2]) for (job,) in jobs] == cells_per_job


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
    "argv, shared, cells",
    [(("compare", "--variants", "vanilla,fairrf,remove_related"), 4, 6),
     (("sweep", "--eta-grid", "0.1,0.3", "--beta-grid", "0.5,0.8"), 2, 8)],
    ids=["compare", "sweep"],
)
def test_a_seed_job_encodes_and_pretrains_once_per_encoding(workspace, tmp_path,
                                                            monkeypatch, argv, shared,
                                                            cells):
    # compare: vanilla and fairrf share an encoding, remove_related has its own,
    # so 2 of each per seed (6 one-cell jobs did 6); sweep: 4 cells share one
    # per seed (8 one-cell jobs did 8)
    seen = counting(monkeypatch, training, ("encode", "pretrain", "train_fairrf"))
    command, *extra = argv
    assert run_cli(
        command, "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
        "--output-dir", str(tmp_path / "o"), "--seeds", "0,1", "--workers", "1", *extra,
    ) == 0
    assert seen == {"encode": shared, "pretrain": shared, "train_fairrf": cells}


def _unmeasurable(result, seed):
    raise ValueError("cannot measure")


@pytest.mark.parametrize("fails", ["in-the-fair-loop", "when-measured"])
def test_a_seed_job_holds_one_encoding_at_a_time(workspace, tmp_path, monkeypatch, fails):
    # each cell's result is written and dropped, and a failed cell keeps no
    # data alive, before the next group is encoded
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
    assert alive == [0, 0, 0, 0]


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
    run_seed = cli.run_seed

    def failing_on_seed_1(raw, related, cells, model, seed, **kwargs):
        if seed == 1:
            raise RuntimeError("seed 1 cannot be split")
        return run_seed(raw, related, cells, model, seed, **kwargs)

    monkeypatch.setattr(cli, "run_seed", failing_on_seed_1)
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
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        base = ("train", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace))
        assert run_cli(*base, "--output-dir", str(out1)) == 0
        assert run_cli(*base, "--output-dir", str(out2), "--workers", "2") == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


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
            "--seed", "0",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"accuracy", "delta_eo", "delta_dp"} <= set(payload)
        assert payload["split"] == "test"

    def test_negative_seed_is_named(self, workspace, tmp_path, capsys):
        code = run_cli(
            "evaluate", "-c", str(workspace / "exp.yaml"), "--data-dir", str(workspace),
            "--checkpoint", str(tmp_path / "checkpoint.npz"), "--seed", "-1",
        )
        assert code == 1
        assert "error: --seed: seed must be >= 0" in capsys.readouterr().err

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
            "--checkpoint", str(out / "seed_0" / "checkpoint.npz"), "--seed", "0",
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
            "--checkpoint", str(path), "--seed", "0",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "w0 holds a NaN or inf parameter" in captured.err
        assert captured.out == ""
