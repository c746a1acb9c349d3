import numpy as np
import pytest

from relfair.data import Dataset, FeatureSchema, encode, load_csv, split
from relfair.stats import pearson
from relfair.synthetic import (
    SyntheticSpec,
    generate,
    related_features,
    schema,
    write_csv,
)


class TestGenerate:
    def test_deterministic(self):
        spec = SyntheticSpec(n=200, seed=5)
        a, b = generate(spec), generate(spec)
        assert list(a.columns) == list(b.columns)
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    def test_seeds_differ(self):
        a = generate(SyntheticSpec(n=200, seed=0))
        b = generate(SyntheticSpec(n=200, seed=1))
        assert not np.array_equal(a.columns["signal"], b.columns["signal"])

    def test_schema_shape(self):
        spec = SyntheticSpec(n=50, label_echo=True)
        ds = generate(spec)
        names = [f.name for f in ds.schema]
        assert names == ["signal", "noise", "proxy_a", "proxy_b", "echo", "outcome", "group"]
        assert list(ds.columns) == names
        assert set(ds.columns["outcome"].tolist()) <= {0, 1}
        assert set(ds.columns["group"].tolist()) <= {0, 1}
        assert related_features(spec) == ["proxy_a", "proxy_b", "echo"]

    def test_proxies_track_group_and_signal_does_not(self):
        ds = generate(SyntheticSpec(n=6000, seed=2))
        s = ds.columns["group"].astype(float)
        assert abs(pearson(ds.columns["proxy_a"], s)) > 0.6
        assert abs(pearson(ds.columns["proxy_b"], s)) > 0.6
        assert abs(pearson(ds.columns["signal"], s)) < 0.08
        assert abs(pearson(ds.columns["noise"], s)) < 0.08

    def test_group_biases_label(self):
        ds = generate(SyntheticSpec(n=8000, seed=3))
        y = ds.columns["outcome"].astype(float)
        s = ds.columns["group"]
        assert y[s == 1].mean() - y[s == 0].mean() > 0.15

    def test_echo_tracks_label_more_than_group(self):
        ds = generate(SyntheticSpec(n=8000, seed=4, label_echo=True))
        echo = ds.columns["echo"]
        y = ds.columns["outcome"].astype(float)
        s = ds.columns["group"].astype(float)
        r_y = abs(pearson(echo, y))
        r_s = abs(pearson(echo, s))
        assert r_y > 0.6
        assert r_s < r_y
        # the direct proxies stay closer to the group than the echo is
        proxy_r_s = abs(pearson(ds.columns["proxy_a"], s))
        assert proxy_r_s > r_s

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=3)


class TestCsvRoundTrip:
    def test_write_then_load(self, tmp_path):
        spec = SyntheticSpec(n=120, seed=7)
        ds = generate(spec)
        path = tmp_path / "synth.csv"
        write_csv(ds, path)
        back = load_csv(
            path, schema(spec), label_positive="1", sensitive_positive="1"
        )
        assert back.n == ds.n
        assert back.columns["outcome"].tolist() == ds.columns["outcome"].tolist()
        assert back.columns["group"].tolist() == ds.columns["group"].tolist()
        assert np.allclose(back.columns["proxy_a"], ds.columns["proxy_a"])

    def test_a_categorical_input_round_trips(self, tmp_path):
        toy = (
            FeatureSchema("color", "categorical"),
            FeatureSchema("height", "continuous"),
            FeatureSchema("outcome", "categorical", role="label"),
            FeatureSchema("group", "categorical", role="sensitive"),
        )
        ds = Dataset(
            columns={"color": np.array([1, 0, 2, 1]), "height": [1.5, 2.0, 2.5, 3.0],
                     "outcome": np.array([1, 0, 1, 0]), "group": np.array([0, 1, 0, 1])},
            schema=toy, vocab={"color": ("blue", "green", "red")},
        )
        path = tmp_path / "toy.csv"
        write_csv(ds, path)
        assert path.read_text().splitlines()[:2] == ["color,height,outcome,group",
                                                     "green,1.5,1,0"]
        back = load_csv(path, toy, label_positive="1", sensitive_positive="1")
        assert list(back.rows) == list(ds.rows)

    def test_pipeline_compatibility(self):
        ds = generate(SyntheticSpec(n=300, seed=8))
        train, ev, test = split(ds, seed=0)
        enc_train, enc_eval, enc_test = encode(train, [ev, test])
        assert enc_train.n + enc_eval.n + enc_test.n == 300
        assert enc_train.n_columns == 4
        assert enc_eval.s is not None
