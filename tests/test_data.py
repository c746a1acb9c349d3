import re
import textwrap

import numpy as np
import pytest

from relfair.data import (
    Dataset,
    FeatureSchema,
    builtin_config,
    drop_features,
    encode,
    load_csv,
    load_dataset_config,
    load_from_config,
    parse_dataset_config,
    resolve_related,
    split,
)
from relfair.training import encode_splits

TOY_SCHEMA = (
    FeatureSchema("color", "categorical"),
    FeatureSchema("height", "continuous"),
    FeatureSchema("outcome", "categorical", role="label"),
    FeatureSchema("group", "categorical", role="sensitive"),
)


def write_csv(tmp_path, text, name="toy.csv"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).lstrip())
    return path


def toy_dataset(tmp_path):
    path = write_csv(
        tmp_path,
        """
        color,height,outcome,group
        red, 1.5,yes,a
        blue,2.0,no,b
        red,2.5,yes,a
        """,
    )
    return load_csv(path, TOY_SCHEMA, label_positive="yes")


class TestSchema:
    def test_bad_kind_and_role(self):
        with pytest.raises(ValueError):
            FeatureSchema("x", "ordinal")
        with pytest.raises(ValueError):
            FeatureSchema("x", "continuous", role="target")

    def test_exactly_one_label(self):
        with pytest.raises(ValueError):
            Dataset(columns={"a": np.zeros(0)}, schema=(FeatureSchema("a", "continuous"),))


class TestDataset:
    def _columns(self):
        return {
            "color": np.array([1, 0, 1]),
            "height": [1.5, 2.0, 2.5],
            "outcome": np.array([1, 0, 1]),
            "group": np.array([0, 1, 0]),
        }

    def test_columns_follow_schema_and_continuous_become_float(self):
        cols = self._columns()
        ds = Dataset(columns=dict(reversed(cols.items())), schema=TOY_SCHEMA,
                     vocab={"color": ("blue", "red")})
        assert list(ds.columns) == ["color", "height", "outcome", "group"]
        assert ds.columns["height"].dtype == np.float64
        assert ds.n == 3

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"height": None}, "schema"),
            ({"outcome": np.array([1, 0])}, "length"),
            ({"outcome": np.array([1.0, 0.0, 1.0])}, "integer"),
            ({"color": np.array([1, 0, 2])}, "vocabulary"),
            ({"color": np.array([1, -1, 1])}, "vocabulary"),
        ],
    )
    def test_bad_columns_rejected(self, change, match):
        cols = self._columns()
        for name, value in change.items():
            if value is None:
                del cols[name]
            else:
                cols[name] = value
        with pytest.raises(ValueError, match=match):
            Dataset(columns=cols, schema=TOY_SCHEMA, vocab={"color": ("blue", "red")})

    @pytest.mark.parametrize("vocab", [{}, {"color": ("red", "blue")}])
    def test_bad_vocabulary_rejected(self, vocab):
        with pytest.raises(ValueError, match="vocabulary"):
            Dataset(columns=self._columns(), schema=TOY_SCHEMA, vocab=vocab)

    def test_rows_decode_one_record_at_a_time(self, tmp_path):
        ds = toy_dataset(tmp_path)
        assert len(ds.rows) == 3
        assert ds.rows[0] == ("red", 1.5, 1, 0)
        assert ds.rows[-1] == ("red", 2.5, 1, 0)
        assert list(ds.rows)[1] == ("blue", 2.0, 0, 1)


class TestLoadCsv:
    def test_toy_roundtrip(self, tmp_path):
        ds = toy_dataset(tmp_path)
        assert ds.n == 3
        assert ds.columns["outcome"].tolist() == [1, 0, 1]
        assert ds.columns["height"].tolist() == [1.5, 2.0, 2.5]  # whitespace stripped
        assert ds.columns["group"].tolist() == [0, 1, 0]  # codes by sorted value
        assert ds.vocab == {"color": ("blue", "red")}
        assert ds.columns["color"].tolist() == [1, 0, 1]
        assert ds.n_dropped == 0

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,1.5,yes,a
            ?,2.0,no,b
            blue,,no,b
            """,
        )
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes")
        assert ds.n == 1
        assert ds.n_dropped == 2

    def test_wrong_arity_names_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,1.5,yes,a
            blue,2.0,no
            """,
        )
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_unparseable_number_names_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,tall,yes,a
            """,
        )
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_number_names_line_and_column(self, tmp_path, cell):
        path = write_csv(
            tmp_path,
            f"""
            color,height,outcome,group
            red,1.5,yes,a
            blue,{cell},no,b
            """,
        )
        with pytest.raises(ValueError, match=r"line 3: non-finite .*'height'"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_undeclared_label_value_names_line_column_and_value(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,1.5,no,a
            blue,2.0,yes,b
            red,2.5,no,a
            blue,3.0,maybe,b
            """,
        )
        with pytest.raises(ValueError, match=r"line 5: column 'outcome' value 'maybe'"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_schema_column_missing_from_header(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome\nred,1,yes\n")
        with pytest.raises(ValueError, match="group"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_extra_file_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            id,color,height,outcome,group
            7,red,1.5,yes,a
            """,
        )
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes")
        assert ds.n == 1

    def test_all_rows_missing_is_error(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome,group\n?,1,yes,a\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_nonbinary_label_without_mapping(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome,group\nred,1,yes,a\n")
        with pytest.raises(ValueError, match="outcome"):
            load_csv(path, TOY_SCHEMA)

    def test_sensitive_positive_binarizes(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,1,yes,a
            red,1,yes,b
            red,1,yes,c
            """,
        )
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes", sensitive_positive="b")
        assert ds.columns["group"].tolist() == [0, 1, 0]

    def test_sensitive_positive_must_occur(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome,group\nred,1,yes,a\nred,1,no,b\n")
        with pytest.raises(ValueError, match="column 'group' never holds .* 'c'"):
            load_csv(path, TOY_SCHEMA, label_positive="yes", sensitive_positive="c")

    def test_label_positive_must_occur(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome,group\nred,1,no,a\nred,2,no,b\n")
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(str(path))}: column 'outcome' never holds the declared "
            "positive value 'yes'$",
        ):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", TOY_SCHEMA)


class TestSplit:
    def _dataset(self, n):
        columns = {
            "color": np.zeros(n, dtype=int),
            "height": np.arange(n, dtype=float),
            "outcome": np.arange(n) % 2,
            "group": np.zeros(n, dtype=int),
        }
        return Dataset(columns=columns, schema=TOY_SCHEMA, vocab={"color": ("red",)})

    def test_sizes_five_two_three(self):
        parts = split(self._dataset(10), seed=0)
        assert [p.n for p in parts] == [5, 2, 3]

    def test_partition_property(self):
        ds = self._dataset(97)
        parts = split(ds, seed=3)
        for name, col in ds.columns.items():
            gathered = np.concatenate([p.columns[name] for p in parts])
            assert sorted(gathered) == sorted(col)
        for p in parts:  # every column gathered with the same row order
            h = p.columns["height"].astype(int)
            assert p.columns["outcome"].tolist() == (h % 2).tolist()
            assert p.vocab == ds.vocab
        assert sum(p.n for p in parts) == ds.n

    def test_same_seed_identical(self):
        a = split(self._dataset(50), seed=11)
        b = split(self._dataset(50), seed=11)
        for x, y in zip(a, b):
            for name in x.columns:
                assert np.array_equal(x.columns[name], y.columns[name])

    def test_different_seeds_differ(self):
        a = split(self._dataset(1000), seed=0)
        b = split(self._dataset(1000), seed=1)
        assert not np.array_equal(a[0].columns["height"], b[0].columns["height"])

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(self._dataset(2), seed=0)

    @pytest.mark.parametrize("n, sizes", [(1, (0, 1, 0)), (3, (2, 0, 1))])
    def test_an_empty_part_is_rejected_by_its_sizes(self, n, sizes):
        with pytest.raises(ValueError, match=re.escape(f"sizes {sizes}")):
            split(self._dataset(n), seed=0)

    def test_smallest_split_has_a_row_in_every_part(self):
        assert [p.n for p in split(self._dataset(4), seed=0)] == [2, 1, 1]


class TestEncode:
    def test_one_hot_and_zscore(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,0,yes,a
            blue,10,no,b
            green,0,yes,a
            red,10,no,b
            """,
        )
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes")
        (enc,) = encode(ds)
        assert len(enc.column_map["color"]) == 3
        height_col = enc.X[:, list(enc.column_map["height"])].ravel()
        assert height_col == pytest.approx([-1, 1, -1, 1])
        assert enc.y.tolist() == [1, 0, 1, 0]
        assert enc.s.tolist() == [0, 1, 0, 1]

    def test_encoded_matrices_are_read_only(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,0,yes,a
            blue,10,no,b
            """,
        )
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes")
        for enc in encode(ds, [ds]):
            with pytest.raises(ValueError, match="read-only"):
                enc.X[0, 0] = 1.0

    def test_train_stats_mean_zero_std_one(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["color,height,outcome,group"]
        for i in range(40):
            lines.append(f"c{i % 3},{rng.normal(5, 3):.6f},{'yes' if i % 2 else 'no'},a")
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes")
        (enc,) = encode(ds)
        h = enc.X[:, list(enc.column_map["height"])].ravel()
        assert abs(h.mean()) < 1e-6
        assert abs(h.std() - 1.0) < 1e-6

    def test_no_zero_variance_columns_and_constant_dropped(self, tmp_path):
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,1,yes,a
            red,2,no,a
            red,3,yes,a
            """,
        )
        ds = load_csv(path, TOY_SCHEMA, label_positive="yes")
        (enc,) = encode(ds)
        # 'color' is constant on train -> every column dropped
        assert len(enc.column_map["color"]) == 0
        assert np.all(enc.X.std(axis=0) > 0)

    def test_column_map_is_a_partition(self, tmp_path):
        ds = toy_dataset(tmp_path)
        (enc,) = encode(ds)
        covered = [c for r in enc.column_map.values() for c in r]
        assert sorted(covered) == list(range(enc.n_columns))

    def test_unseen_category_maps_to_zeros(self, tmp_path):
        train = toy_dataset(tmp_path)  # colors: red, blue
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            green,2.0,yes,a
            """,
            name="eval.csv",
        )
        other = load_csv(path, TOY_SCHEMA, label_positive="yes")
        _, enc_eval = encode(train, [other])
        cols = list(encode(train)[0].column_map["color"])
        assert np.all(enc_eval.X[0, cols] == 0.0)

    def test_statistics_fitted_on_train_only(self, tmp_path):
        train = toy_dataset(tmp_path)
        path = write_csv(
            tmp_path,
            """
            color,height,outcome,group
            blue,100.0,yes,b
            """,
            name="big.csv",
        )
        other = load_csv(path, TOY_SCHEMA, label_positive="yes")
        enc_alone = encode(train)[0]
        enc_joint = encode(train, [other])[0]
        assert np.array_equal(enc_alone.X, enc_joint.X)

    def test_schema_mismatch(self, tmp_path):
        train = toy_dataset(tmp_path)
        other = Dataset(columns={"height": [1.0], "outcome": [1], "group": [0]}, schema=(
            FeatureSchema("height", "continuous"),
            FeatureSchema("outcome", "categorical", role="label"),
            FeatureSchema("group", "categorical", role="sensitive"),
        ))
        with pytest.raises(ValueError):
            encode(train, [other])

    def test_every_encoded_matrix_is_row_major(self):
        # mini-batch gathers X[idx] read whole rows, so X is C-ordered on
        # every path; the values are written out by hand
        schema = (
            FeatureSchema("color", "categorical"),
            FeatureSchema("shape", "categorical"),
            FeatureSchema("height", "continuous"),
            FeatureSchema("width", "continuous"),
            FeatureSchema("outcome", "categorical", role="label"),
            FeatureSchema("group", "categorical", role="sensitive"),
        )
        vocab = {"color": ("blue", "green", "red", "violet"), "shape": ("round", "square")}

        def dataset(color, shape, height, width):
            n = len(color)
            return Dataset(
                columns={"color": color, "shape": shape, "height": height,
                         "width": width, "outcome": [1] * n, "group": [0] * n},
                schema=schema, vocab=vocab,
            )

        # shape and width are constant on train and get no column; violet
        # never occurs on train, so it encodes as an all-zero color group
        train = dataset([2, 0, 1, 2], [0, 0, 0, 0], [0.0, 10.0, 0.0, 10.0], [3.0] * 4)
        other = dataset([3, 1], [1, 0], [5.0, 20.0], [1.0, 3.0])
        want_train = [[0, 0, 1, -1], [1, 0, 0, 1], [0, 1, 0, -1], [0, 0, 1, 1]]
        want_other = [[0, 0, 0, 0], [0, 1, 0, 3]]

        enc_train, enc_other = encode(train, [other])
        assert enc_train.column_map == {
            "color": range(0, 3), "shape": range(3, 3),
            "height": range(3, 4), "width": range(4, 4),
        }
        keep = ("height", "width", "outcome", "group")
        train_c, other_c = (
            Dataset(columns={k: d.columns[k] for k in keep},
                    schema=[f for f in schema if f.name in keep])
            for d in (train, other)
        )
        continuous = encode(train_c, [other_c])
        removed = encode_splits("remove_related", [train, other], ["height"])
        cases = [
            (enc_train.X, want_train),
            (enc_other.X, want_other),
            (continuous[0].X, [[-1], [1], [-1], [1]]),
            (continuous[1].X, [[0], [3]]),
            (removed[0].X, [row[:3] for row in want_train]),
            (removed[1].X, [row[:3] for row in want_other]),
        ]
        for X, want in cases:
            assert X.flags.c_contiguous
            assert X.dtype == np.float64
            assert np.array_equal(X, np.array(want, dtype=float))

    def test_train_view_has_no_sensitive_field(self, tmp_path):
        (enc,) = encode(toy_dataset(tmp_path))
        view = enc.train_view()
        assert not hasattr(view, "s")
        assert np.array_equal(view.X, enc.X)


class TestResolveRelated:
    def _encoded(self, tmp_path):
        ds = toy_dataset(tmp_path)
        return ds, encode(ds)[0]

    def test_single_continuous(self, tmp_path):
        ds, enc = self._encoded(tmp_path)
        rel = resolve_related(ds.schema, enc, ["height"])
        assert rel.k == 1
        assert rel.column_groups == (tuple(enc.column_map["height"]),)
        assert rel.lambda0.tolist() == [1.0]

    def test_group_sizes_and_uniform_default(self, tmp_path):
        ds, enc = self._encoded(tmp_path)
        rel = resolve_related(ds.schema, enc, ["height", "color"])
        assert [len(g) for g in rel.column_groups] == [1, 2]
        assert rel.lambda0.tolist() == [0.5, 0.5]

    def test_sensitive_and_label_rejected(self, tmp_path):
        ds, enc = self._encoded(tmp_path)
        with pytest.raises(ValueError, match="role"):
            resolve_related(ds.schema, enc, ["group"])
        with pytest.raises(ValueError):
            resolve_related(ds.schema, enc, ["outcome"])

    def test_unknown_name(self, tmp_path):
        ds, enc = self._encoded(tmp_path)
        with pytest.raises(ValueError, match="nope"):
            resolve_related(ds.schema, enc, ["nope"])

    def test_repeated_name_rejected(self, tmp_path):
        ds, enc = self._encoded(tmp_path)
        with pytest.raises(ValueError, match="'height' is named twice"):
            resolve_related(ds.schema, enc, ["height", "color", "height"])

    def test_empty_names(self, tmp_path):
        ds, enc = self._encoded(tmp_path)
        with pytest.raises(ValueError):
            resolve_related(ds.schema, enc, [])


class TestDropFeatures:
    def test_drops_inputs(self, tmp_path):
        ds = toy_dataset(tmp_path)
        out = drop_features(ds, ["color"])
        assert [f.name for f in out.schema] == ["height", "outcome", "group"]
        assert list(out.columns) == ["height", "outcome", "group"]
        assert out.vocab == {}
        assert out.n == ds.n

    def test_cannot_drop_label(self, tmp_path):
        ds = toy_dataset(tmp_path)
        with pytest.raises(ValueError):
            drop_features(ds, ["outcome"])


class TestDatasetConfig:
    GOOD = {
        "name": "toy",
        "csv": "toy.csv",
        "columns": [
            {"name": "color", "kind": "categorical"},
            {"name": "height", "kind": "continuous"},
        ],
        "label": {"name": "outcome", "positive": "yes"},
        "sensitive": {"name": "group"},
        "related": ["color"],
    }

    def test_good_config_parses(self):
        cfg = parse_dataset_config(dict(self.GOOD))
        assert cfg.name == "toy"
        assert cfg.related == ("color",)
        assert cfg.label_positive == "yes"
        roles = {f.name: f.role for f in cfg.schema}
        assert roles == {
            "color": "input",
            "height": "input",
            "outcome": "label",
            "group": "sensitive",
        }

    def test_unknown_top_level_key(self):
        doc = dict(self.GOOD, extra_knob=1)
        with pytest.raises(ValueError, match="extra_knob"):
            parse_dataset_config(doc)

    def test_unknown_nested_key(self):
        doc = dict(self.GOOD)
        doc["columns"] = [{"name": "color", "kind": "categorical", "typo": 1}]
        with pytest.raises(ValueError, match="typo"):
            parse_dataset_config(doc)

    def test_related_must_be_input(self):
        doc = dict(self.GOOD, related=["group"])
        with pytest.raises(ValueError, match="group"):
            parse_dataset_config(doc)

    def test_related_names_distinct(self):
        doc = dict(self.GOOD, related=["color", "color"])
        with pytest.raises(ValueError, match="'color' is named twice"):
            parse_dataset_config(doc)

    def test_missing_required_key(self):
        doc = dict(self.GOOD)
        del doc["label"]
        with pytest.raises(ValueError, match="label"):
            parse_dataset_config(doc)

    def test_load_from_yaml_file(self, tmp_path):
        text = textwrap.dedent(
            """
            name: toy
            csv: toy.csv
            columns:
              - {name: color, kind: categorical}
              - {name: height, kind: continuous}
            label: {name: outcome, positive: "yes"}
            sensitive: {name: group}
            related: [height]
            """
        )
        path = tmp_path / "toy.yaml"
        path.write_text(text)
        cfg = load_dataset_config(path)
        assert cfg.related == ("height",)
        write_csv(
            tmp_path,
            """
            color,height,outcome,group
            red,1.0,yes,a
            blue,2.0,no,b
            """,
        )
        ds = load_from_config(cfg, data_dir=tmp_path)
        assert ds.n == 2

    @pytest.mark.parametrize("name", ["adult", "compas", "lsac"])
    def test_builtin_configs_parse(self, name):
        cfg = builtin_config(name)
        assert cfg.name == name
        assert len(cfg.related) == 3
        input_names = {f.name for f in cfg.schema if f.role == "input"}
        assert set(cfg.related) <= input_names

    def test_builtin_unknown(self):
        with pytest.raises(ValueError):
            builtin_config("census2090")
