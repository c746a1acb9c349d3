import csv
import importlib.resources
import io
import itertools
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
import yaml

import _csv_oracle
from _encode_oracle import reference_encode
from relfair import data
from relfair.data import (
    Dataset,
    FeatureSchema,
    RelatedFeatureSet,
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

    @pytest.mark.parametrize("schema, message", [
        ((FeatureSchema("a", "continuous"), FeatureSchema("a", "categorical", role="label")),
         "duplicate feature names in schema"),
        ((*TOY_SCHEMA, FeatureSchema("region", "categorical", role="sensitive")),
         "schema allows at most one sensitive feature"),
    ], ids=["duplicate-name", "two-sensitive"])
    def test_a_bad_schema_is_named(self, schema, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(columns={f.name: np.zeros(0) for f in schema}, schema=schema)


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
            ({"height": np.zeros((3, 1))}, "^column 'height': expected a 1-D array$"),
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_non_finite_continuous_value_names_the_column_and_row(self, value, row):
        cols = self._columns()
        cols["height"][row] = value
        with pytest.raises(
            ValueError, match=f"^column 'height': non-finite value {value} in row {row}$"
        ):
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

    @pytest.mark.parametrize(
        "row, want",
        [("blue,tall,no,b", "line 5: cannot parse 'tall' as number for column 'height'"),
         ("blue,2.0,no", "{path}: line 5 has 3 fields, expected 4"),
         ("blue,2.0,maybe,b", "line 5: column 'outcome' value 'maybe' is neither the "
          "declared positive value 'yes' nor 'no', the one other value a binary label "
          "may take")],
        ids=["bad_number", "field_count", "third_label_value"],
    )
    def test_lines_are_file_lines_after_a_multi_line_cell(self, tmp_path, row, want):
        # the first record spans lines 2 and 3, so the fourth record is on line 5
        path = write_csv(tmp_path, f'color,height,outcome,group\n"dark\nred",1.5,yes,a\n'
                                   f"red,2.5,no,a\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(want.format(path=path))}$"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        text = "color,height,outcome,group\ngrün,1.5,yes,a\nred,2.0,no,b\n".encode()
        loaded = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(prefix + text)
            ds = load_csv(tmp_path / name, TOY_SCHEMA, label_positive="yes")
            loaded.append(([(k, c.dtype.str, c.tobytes()) for k, c in ds.columns.items()],
                           ds.vocab, ds.n_dropped))
        assert loaded[0] == loaded[1]
        assert loaded[1][1] == {"color": ("grün", "red")}

    def test_a_byte_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("color,height,outcome,group\ngrün,1.5,yes,a\n".encode("latin-1"))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: not UTF-8 text: invalid start byte$"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_schema_column_missing_from_header(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome\nred,1,yes\n")
        with pytest.raises(ValueError, match="group"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_schema_column_named_twice_in_header(self, tmp_path):
        path = write_csv(tmp_path, "color,height,outcome,group,color\nred,1,yes,a,blue\n")
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(str(path))}: header names column 'color' more than once$",
        ):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    @pytest.mark.parametrize(
        "lines, line",
        [(["{long},height,outcome,group"], 1),
         (["color,height,outcome,group", "red,1,yes,a", "{long},1,yes,a"], 3),
         (["color,height,outcome,group", "red,1,yes,a,7", "{long},1,yes,a"], None)],
        ids=["header", "row", "malformed_record_first"],
    )
    def test_csv_module_error_names_file_and_line(self, tmp_path, lines, line):
        limit = csv.field_size_limit()
        text = "\n".join(lines).replace("{long}", "r" * (limit + 1)) + "\n"
        path = write_csv(tmp_path, text)
        # a malformed record read before the unreadable one is named first
        want = (f"line {line}: field larger than field limit ({limit})" if line
                else "line 2 has 5 fields, expected 4")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {want}')}$"):
            load_csv(path, TOY_SCHEMA, label_positive="yes")

    def test_csv_module_error_names_the_line_its_record_starts_on(self, tmp_path):
        # the unreadable record spans lines 4 and 5, and its long cell is on line 5
        limit = csv.field_size_limit()
        path = write_csv(tmp_path, f'color,height,outcome,group\n"dark\nred",1,yes,a\n'
                                   f'"x\n{"r" * (limit + 1)}",1,yes,a\n')
        want = f"{path}: line 4: field larger than field limit ({limit})"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
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

    def test_an_empty_file_is_named(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty file")):
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

    def test_peak_memory_is_one_block_plus_the_result(self, tmp_path, monkeypatch):
        # raising=False: the bound, not a missing name, is what a whole-file
        # reader fails on
        monkeypatch.setattr(data, "READ_BLOCK_ROWS", 256, raising=False)
        names = [f"c{j}" for j in range(6)]
        schema = tuple(FeatureSchema(n, "categorical") for n in names) + (
            FeatureSchema("x", "continuous"),
            FeatureSchema("y", "categorical", role="label"),
        )
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*names, "x", "y"])
            for i in range(12_000):
                writer.writerow([f"value-{rng.integers(3)}-{'x' * 24}" for _ in names]
                                + [f"{rng.normal():.6f}", "01"[i % 2]])

        tracemalloc.start()
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                block = list(zip(*itertools.islice(reader, 256)))
                block_bytes = tracemalloc.get_traced_memory()[1]
            del block
            tracemalloc.reset_peak()
            ds = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(col.nbytes for col in ds.columns.values())
        # the whole file's cells take about 40 blocks
        assert peak < 2 * block_bytes + 4 * result

    def test_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", TOY_SCHEMA)


# The block reader of load_csv against the row-wise reference reader.
ORACLE_SCHEMA = (
    FeatureSchema("color", "categorical"),
    FeatureSchema("height", "continuous"),
    FeatureSchema("shape", "categorical"),
    FeatureSchema("weight", "continuous"),
    FeatureSchema("outcome", "categorical", role="label"),
    FeatureSchema("group", "categorical", role="sensitive"),
)
HEADER = ("shape", "note", "height", "outcome", "color", "weight", "group")
ORACLE_MISSING = ("?", "", "-1", "nan")  # "-1" and "nan" parse as numbers
PADS = ("", "", " ", "  ", "\t", "\xa0", "\x1c")  # strip() drops \x1c, float() does not
CHOICES = {
    "color": ("red", "blue", "dark, red", '"quoted"'),
    "shape": ("round", "square", "tall\nthin"),
    "outcome": ("yes", "no"),
    "group": ("a", "b", "c"),
    "note": ("x", "y, z"),
}


def random_rows(rng, n):
    """n valid records of HEADER, some cells missing, most padded."""
    rows = []
    for _ in range(n):
        cell = {k: str(rng.choice(v)) for k, v in CHOICES.items()}
        for name in ("height", "weight"):
            cell[name] = str(rng.choice(
                [repr(float(rng.normal())), str(int(rng.integers(-5, 50))), "1e2", "-1.0"]
            ))
        for name in ("color", "shape", "height", "weight", "outcome", "group"):
            if rng.random() < 0.05:
                cell[name] = str(rng.choice(ORACLE_MISSING))
        rows.append([rng.choice(PADS) + cell[h] + rng.choice(PADS) for h in HEADER])
    return rows


def write_rows(path, rows, rng):
    """Write HEADER and rows with blank lines between some; each row's line number.

    A row's line is the file line it starts on, as the loader's messages
    name it: one more than the newlines before it, those of quoted cells
    included.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    starts = []  # each row's offset in the text
    for row in rows:
        while rng.random() < 0.25:
            buf.write("\n")
        starts.append(buf.tell())
        writer.writerow(row)
    text = buf.getvalue()
    path.write_text(text, encoding="utf-8")
    lines, line, previous = [], 1, 0
    for start in starts:
        line += text.count("\n", previous, start)
        lines.append(line)
        previous = start
    return lines


def contents(ds):
    """A Dataset's columns (name, dtype, bytes), vocab and n_dropped, to compare."""
    columns = [(k, c.dtype.str, c.tobytes()) for k, c in ds.columns.items()]
    return columns, ds.vocab, ds.n_dropped, type(ds.n_dropped)


def outcome(read, path, **kwargs):
    """What a reader makes of a file: the Dataset's bytes, or its error message."""
    try:
        ds = read(path, ORACLE_SCHEMA, missing_tokens=ORACLE_MISSING, **kwargs)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", *contents(ds)


def both_readers(path, **kwargs):
    new = outcome(load_csv, path, **kwargs)
    assert new == outcome(_csv_oracle.read_csv, path, **kwargs)
    return new


def clean(row):
    """row with every schema cell present, so that the row is kept."""
    return [
        cell if h == "note" or cell.strip() not in ORACLE_MISSING else "7"
        for h, cell in zip(HEADER, row)
    ]


def put(row, **cells):
    return [cells.get(h, cell) for h, cell in zip(HEADER, row)]


class TestBlockReader:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(data, "READ_BLOCK_ROWS", 3)

    @pytest.mark.parametrize("seed", range(24))
    def test_same_dataset_as_the_row_wise_reader(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "r.csv"
        write_rows(path, random_rows(rng, int(rng.integers(10, 40))), rng)
        kwargs = {"label_positive": "yes",
                  "sensitive_positive": "b" if seed % 2 else None}
        assert both_readers(path, **kwargs)[0] == "ok"

    def test_same_dataset_at_the_real_block_size(self, tmp_path, monkeypatch):
        monkeypatch.undo()
        rng = np.random.default_rng(99)
        path = tmp_path / "r.csv"
        write_rows(path, random_rows(rng, 2 * data.READ_BLOCK_ROWS + 5), rng)
        assert both_readers(path, label_positive="yes")[0] == "ok"

    @pytest.mark.parametrize("at", [1, 16], ids=["first_block", "later_block"])
    @pytest.mark.parametrize(
        "fault, want",
        [
            ("bad_number", "line {0}: cannot parse 'tall' as number for column 'height'"),
            ("bad_number_on_dropped_row", None),
            ("field_count_after_bad_number", "{path}: line {2} has 8 fields, expected 7"),
            ("inf", "line {0}: non-finite value 'inf' in continuous column 'weight'"),
            ("missing_token_spelled_otherwise", "line {0}: non-finite value 'NaN' in "
             "continuous column 'weight'"),
            ("third_label_value", "line {0}: column 'outcome' value 'maybe' is neither "
             "the declared positive value 'yes' nor 'no', the one other value a "
             "binary label may take"),
        ],
    )
    def test_same_error_as_the_row_wise_reader(self, tmp_path, fault, want, at):
        rng = np.random.default_rng(at)
        rows = [clean(row) for row in random_rows(rng, 30)]
        rows[0] = put(rows[0], outcome="no")  # the label's other value comes first
        if fault == "bad_number":
            rows[at] = put(rows[at], height=" tall ")
        elif fault == "bad_number_on_dropped_row":
            rows[at] = put(rows[at], height="tall", group="?")
        elif fault == "field_count_after_bad_number":
            rows[at] = put(rows[at], height="tall")
            rows[at + 2] = rows[at + 2] + ["extra"]
        elif fault == "inf":
            rows[at] = put(rows[at], weight="inf")
        elif fault == "missing_token_spelled_otherwise":
            rows[at - 1] = put(rows[at - 1], weight="nan")  # dropped
            rows[at] = put(rows[at], weight="NaN")
        elif fault == "third_label_value":
            rows[at] = put(rows[at], outcome="maybe")
        path = tmp_path / "f.csv"
        lines = write_rows(path, rows, rng)
        got = both_readers(path, label_positive="yes")
        if want is None:
            assert got[0] == "ok"
        else:
            assert got == ("error", want.format(*lines[at:], path=path))


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


def labelled(columns, schema, vocab):
    """A Dataset of ``columns`` plus a label and a sensitive column."""
    n = len(next(iter(columns.values())))
    return Dataset(
        columns={**columns, "outcome": np.arange(n) % 2, "group": np.arange(n) // 2 % 2},
        schema=(*schema, FeatureSchema("outcome", "categorical", role="label"),
                FeatureSchema("group", "categorical", role="sensitive")),
        vocab=vocab,
    )


def random_splits(rng, kinds, sizes, constant):
    """Splits of ``sizes`` rows over inputs of ``kinds``, train first.

    Each feature whose index is in ``constant`` holds one value on train.  A
    categorical feature's train rows never take its last category, which
    the other splits do take, so it is unseen on train.
    """
    schema = [FeatureSchema(f"f{j}", kind) for j, kind in enumerate(kinds)]
    vocab = {f"f{j}": tuple(f"v{i}" for i in range(int(rng.integers(2, 7))))
             for j, kind in enumerate(kinds) if kind == "categorical"}
    splits = []
    for index, n in enumerate(sizes):
        columns = {}
        for j, f in enumerate(schema):
            if f.kind == "categorical":
                size = len(vocab[f.name])
                high = size - 1 if index == 0 else size
                columns[f.name] = rng.integers(0, 1 if j in constant and index == 0 else high, n)
            elif j in constant and index == 0:  # fractional, so the float std may be > 0
                columns[f.name] = np.full(n, round(rng.normal(3.0, 4.0), 2))
            else:  # a few distinct values, so some repeat the mean
                columns[f.name] = rng.choice(rng.normal(3.0, 4.0, 5).round(2), n)
        splits.append(labelled(columns, schema, vocab))
    return splits


ENCODE_CASES = {  # kinds, rows per split, the features constant on train
    "mixed": (("categorical", "continuous", "continuous", "categorical",
               "categorical", "continuous"), (60, 25, 35), {2, 4}),
    "continuous": (("continuous",) * 4, (60, 25, 35), {1}),
    "categorical": (("categorical",) * 4, (60, 25, 35), {1}),
    "zero_width": (("categorical", "continuous", "categorical"), (30, 10, 10), {0, 1, 2}),
    "one_row_others": (("continuous", "categorical", "categorical"), (40, 1, 1), set()),
    "one_row_splits": (("continuous", "categorical"), (1, 1, 1), set()),
}


class TestEncodeAgainstReference:
    """encode() equals a plain row-by-row one-hot, byte for byte."""

    @pytest.mark.parametrize("block_bytes", [1, 100, data.ENCODE_BLOCK_BYTES])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", ENCODE_CASES)
    def test_bytes_equal_the_reference(self, case, seed, block_bytes, monkeypatch):
        # 1 byte makes one-row blocks, 100 bytes blocks of a few rows
        monkeypatch.setattr(data, "ENCODE_BLOCK_BYTES", block_bytes)
        kinds, sizes, constant = ENCODE_CASES[case]
        train, *others = random_splits(np.random.default_rng(seed), kinds, sizes, constant)
        encoded = encode(train, others)
        reference = reference_encode(train, others)
        for enc, (X, column_map), d in zip(encoded, reference, [train, *others]):
            assert enc.column_map == column_map
            assert enc.X.dtype == np.float64
            assert enc.X.flags.c_contiguous and not enc.X.flags.writeable
            assert enc.X.shape == X.shape and enc.X.tobytes() == X.tobytes()
            assert enc.y.tobytes() == d.columns["outcome"].astype(float).tobytes()
            assert enc.s.tobytes() == d.columns["group"].astype(int).tobytes()
        widths = {name: len(cols) for name, cols in encoded[0].column_map.items()}
        assert all(widths[f"f{j}"] == 0 for j in constant)
        if case == "zero_width":
            assert encoded[0].n_columns == 0

    def test_the_splits_take_categories_unseen_on_train(self):
        kinds, sizes, constant = ENCODE_CASES["mixed"]
        train, *others = random_splits(np.random.default_rng(0), kinds, sizes, constant)
        unseen = [set(d.columns[f"f{j}"].tolist()) - set(train.columns[f"f{j}"].tolist())
                  for d in others for j, kind in enumerate(kinds) if kind == "categorical"]
        assert any(unseen)

    def test_peak_memory_is_the_output_and_the_block_buffers(self):
        # beside its output, encode holds at most three 8-byte values per
        # kept feature and row of a block (a categorical feature's column,
        # value and scatter index), and no second X
        rng = np.random.default_rng(5)
        kinds = ("categorical", "continuous") * 4
        train, other = random_splits(rng, kinds, (30_000, 10_000), set())
        tracemalloc.start()
        try:
            encoded = encode(train, [other])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(e.X.nbytes + e.y.nbytes + e.s.nbytes for e in encoded)
        width = encoded[0].n_columns
        rows = data.ENCODE_BLOCK_BYTES // (8 * width)
        assert encoded[0].X.nbytes > 4 * data.ENCODE_BLOCK_BYTES  # a second X would show
        assert peak < out + 24 * len(kinds) * rows + 64 * 1024


class TestEncodeOverflow:
    """A continuous input too large to z-score fails naming its column."""

    SCHEMA = (FeatureSchema("big", "continuous"),)

    def test_a_mean_that_overflows(self):
        train = labelled({"big": [9e307, 1e308] * 4}, self.SCHEMA, {})
        with pytest.raises(ValueError, match="column 'big': its mean inf"):
            encode(train)

    def test_a_std_that_overflows(self):
        train = labelled({"big": [-1e308, 1e308] * 4}, self.SCHEMA, {})
        with pytest.raises(ValueError, match="column 'big': .* standard deviation inf"):
            encode(train)

    @pytest.mark.parametrize("value", [1e160, -1e160])
    def test_a_z_score_that_overflows_on_another_split(self, value):
        # the train std is 5e-151, and 1e160 / 5e-151 is above the float range
        schema = (FeatureSchema("ok", "continuous"), *self.SCHEMA)
        train = labelled({"ok": [1.0, 2.0] * 2, "big": [0.0, 1e-150] * 2}, schema, {})
        other = labelled({"ok": [1.0, 2.0], "big": [0.0, value]}, schema, {})
        encode(train)  # train alone z-scores fine
        with pytest.raises(ValueError, match="column 'big': a z-score is not finite"):
            encode(train, [other])


class TestConstantOnTrain:
    """A continuous column is dropped when its train minimum equals its maximum."""

    SCHEMA = (FeatureSchema("flat", "continuous"), FeatureSchema("ok", "continuous"))

    # each value's float std over its rows is not 0
    @pytest.mark.parametrize("value, n", [(0.1, 60), (0.3, 60), (1.7, 1000)])
    def test_dropped_from_every_split(self, value, n):
        assert np.full(n, value).std() > 0.0
        train = labelled({"flat": np.full(n, value), "ok": np.arange(n, dtype=float)},
                         self.SCHEMA, {})
        other = labelled({"flat": [0.2, value], "ok": [1.0, 2.0]}, self.SCHEMA, {})
        encoded = encode(train, [other])
        for enc in encoded:
            assert len(enc.column_map["flat"]) == 0
            assert enc.X.shape[1] == 1 and np.isfinite(enc.X).all()
        with pytest.raises(ValueError, match="'flat' .*constant on the training split"):
            resolve_related(train.schema, encoded[0], ["flat"])

    def test_a_non_constant_column_with_zero_std_names_the_column(self):
        train = labelled({"flat": [0.0, 1e-300] * 2, "ok": [1.0, 2.0] * 2}, self.SCHEMA, {})
        assert train.columns["flat"].std() == 0.0
        with pytest.raises(ValueError, match="column 'flat': a z-score is not finite"):
            encode(train)


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


@pytest.mark.parametrize("features, column_groups, message", [
    ((), (), "related feature set must name at least one feature"),
    (("a", "b"), ((0,),), "features and column_groups must align"),
], ids=["empty", "misaligned"])
def test_a_related_feature_set_of_the_wrong_shape_is_named(features, column_groups, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RelatedFeatureSet(features=features, column_groups=column_groups)


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

    def test_an_unknown_feature_is_named(self, tmp_path):
        ds = toy_dataset(tmp_path)
        with pytest.raises(ValueError, match=re.escape(
                "cannot drop unknown feature(s): ['size', 'weight']") + "$"):
            drop_features(ds, ["weight", "color", "size"])


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

    @pytest.mark.parametrize("name", ["adult", "compas", "lsac"])
    def test_builtin_configs_parse_alike_under_both_yaml_loaders(self, name, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        assert data._YAML_LOADER is yaml.CSafeLoader
        text = (importlib.resources.files("relfair") / "configs" / f"{name}.yaml").read_text()
        docs = [yaml.load(text, Loader=yaml.CSafeLoader),
                yaml.load(text, Loader=yaml.SafeLoader)]
        assert docs[0] == docs[1]
        cfg = builtin_config(name)
        monkeypatch.setattr(data, "_YAML_LOADER", yaml.SafeLoader)
        assert builtin_config(name) == cfg

    def test_builtin_unknown(self):
        with pytest.raises(ValueError):
            builtin_config("census2090")

    @pytest.mark.parametrize("suffix", ["", ".yaml"])
    def test_builtin_reads_no_file_outside_the_package(self, tmp_path, suffix):
        # a readable config beside the path is not a builtin one
        shipped = importlib.resources.files("relfair") / "configs" / "adult.yaml"
        (tmp_path / "mine.yaml").write_text(shipped.read_text())
        for name in (str(tmp_path / f"mine{suffix}"), f"adult{suffix or '.yml'}"):
            with pytest.raises(ValueError, match=(
                    r"no builtin dataset config named .*; the builtin ones are "
                    r"adult, compas, lsac, and a dataset config file needs a \.yaml or "
                    r"\.yml suffix")):
                builtin_config(name)


# The parse cache of load_from_config.
CACHE_DOC = {
    "name": "toy", "csv": "toy.csv",
    "columns": [{"name": "color", "kind": "categorical"},
                {"name": "height", "kind": "continuous"}],
    "label": {"name": "outcome", "positive": "yes"},
    "sensitive": {"name": "group"},
    "related": ["height"],
    "missing": ["?", ""],
}
CACHE_CSV = """\
color,height,outcome,group
red, 1.5,yes,a
?,2.0,no,b
-,2.5,no,b
blue,,yes,a
blue,3.0,no,b
red,3.5,yes,b
"""


def cache_file(csv_path):
    return csv_path.parent / f".{csv_path.name}.relfair.npz"


def fresh(cfg, data_dir):
    """load_csv's Dataset for what load_from_config(cfg, data_dir) reads."""
    return load_csv(data_dir / cfg.csv, cfg.schema, label_positive=cfg.label_positive,
                    sensitive_positive=cfg.sensitive_positive,
                    missing_tokens=cfg.missing_tokens)


def checked_load(cfg, data_dir):
    """load_from_config's Dataset, once it is found equal to a fresh parse."""
    got = load_from_config(cfg, data_dir=data_dir)
    assert contents(got) == contents(fresh(cfg, data_dir))
    return got


def saved(path, save, *args, **kwargs):
    """Write ``path`` with ``save`` (np.save or np.savez)."""
    with open(path, "wb") as fh:
        save(fh, *args, **kwargs)


class TestLoadCache:
    @pytest.fixture
    def hits(self, monkeypatch):
        """Per load_from_config call from here on, whether the cache served it."""
        seen = []

        def recorded(*args):
            dataset = read_cache(*args)
            seen.append(dataset is not None)
            return dataset

        read_cache = data._read_cache
        monkeypatch.setattr(data, "_read_cache", recorded)
        return seen

    def toy(self, tmp_path, doc=CACHE_DOC, text=CACHE_CSV):
        (tmp_path / "toy.csv").write_text(text)
        return parse_dataset_config(doc)

    def test_a_cached_load_equals_a_fresh_parse(self, tmp_path, hits):
        cfg = self.toy(tmp_path)
        first = load_from_config(cfg, data_dir=tmp_path)
        assert cache_file(tmp_path / "toy.csv").is_file()
        second = load_from_config(cfg, data_dir=tmp_path)
        assert hits == [False, True]
        want = fresh(cfg, tmp_path)
        assert (want.n, want.n_dropped) == (4, 2)
        assert contents(first) == contents(second) == contents(want)

    def test_a_cached_synthetic_load_equals_a_fresh_parse(self, tmp_path, hits):
        from relfair.synthetic import SyntheticSpec, generate, write_csv as write_synthetic

        spec = SyntheticSpec(n=300, label_echo=True, seed=3)
        write_synthetic(generate(spec), tmp_path / "synth.csv")
        cfg = parse_dataset_config({
            "name": "synth", "csv": "synth.csv",
            "columns": [{"name": f.name, "kind": f.kind}
                        for f in generate(spec).input_features()],
            "label": {"name": "outcome", "positive": "1"},
            "sensitive": {"name": "group", "positive": "1"},
            "related": ["proxy_a"],
        })
        load_from_config(cfg, data_dir=tmp_path)
        checked_load(cfg, tmp_path)
        assert hits == [False, True]

    @pytest.mark.parametrize(
        "change",
        [
            {"text": CACHE_CSV + "blue,4.0,no,a\n"},
            {"missing": ["?", "", "-"]},
            {"label": {"name": "outcome", "positive": "no"}},
            {"sensitive": {"name": "group", "positive": "b"}},
            {"columns": CACHE_DOC["columns"][::-1]},
            {"columns": [{"name": "color", "kind": "categorical"},
                         {"name": "height", "kind": "categorical"}]},
        ],
        ids=["csv_bytes", "missing_tokens", "label_positive", "sensitive_positive",
             "schema_order", "schema_kind"],
    )
    def test_changed_bytes_or_key_fields_are_parsed_again(self, tmp_path, hits, change):
        load_from_config(self.toy(tmp_path), data_dir=tmp_path)
        text = change.get("text", CACHE_CSV)
        doc = {**CACHE_DOC, **{k: v for k, v in change.items() if k != "text"}}
        cfg = self.toy(tmp_path, doc, text)
        checked_load(cfg, tmp_path)
        load_from_config(cfg, data_dir=tmp_path)  # the new key is cached in turn
        assert hits == [False, False, True]

    @staticmethod
    def _resave(path, **columns):
        """Write the cache file at ``path`` again with some columns replaced."""
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        saved(path, np.savez, **{**arrays, **columns})

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_text("color,height\n"),
            lambda p: saved(p, np.savez, w0=np.ones(3)),
            lambda p: saved(p, np.save, np.arange(3)),
            lambda p: TestLoadCache._resave(p, col1=np.array([np.nan, 2.0, 3.0, 3.5])),
            lambda p: TestLoadCache._resave(p, col0=np.array([0, 5, 1, 1], np.uint8)),
            lambda p: TestLoadCache._resave(p, col1=np.array([1.0, 2.0])),
        ],
        ids=["truncated", "empty", "text", "foreign_npz", "npy", "nan_height",
             "code_outside_vocab", "short_column"],
    )
    def test_a_broken_cache_file_is_parsed_again_and_replaced(self, tmp_path, hits,
                                                              damage):
        cfg = self.toy(tmp_path)
        load_from_config(cfg, data_dir=tmp_path)
        damage(cache_file(tmp_path / "toy.csv"))
        checked_load(cfg, tmp_path)
        load_from_config(cfg, data_dir=tmp_path)
        assert hits == [False, False, True]

    @pytest.mark.parametrize("step", ["tempfile.mkstemp", "numpy.savez", "os.replace"])
    def test_a_failed_write_still_loads_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                           step):
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        cfg = self.toy(tmp_path)
        monkeypatch.setattr(step, refuse)
        checked_load(cfg, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["toy.csv"]

    def test_a_malformed_csv_fails_with_its_line_on_every_load(self, tmp_path):
        cfg = self.toy(tmp_path, text=CACHE_CSV + "blue,4.0,no\n")
        for _ in range(2):
            with pytest.raises(ValueError, match=r"line 8 has 3 fields, expected 4$"):
                load_from_config(cfg, data_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["toy.csv"]

    @pytest.mark.parametrize("then", ["as_rewritten", "restored"])
    def test_a_csv_rewritten_during_a_load_is_parsed_again(self, tmp_path, hits,
                                                           monkeypatch, then):
        # Long enough that the parse has read only part of it when the first
        # block is coded; the rewrite keeps every offset and changes colors.
        old = "color,height,outcome,group\n" + "red,1.5,yes,a\nblue,2.0,no,b\n" * 2000
        new = old.replace("red", "tan")
        cfg = self.toy(tmp_path, text=old)
        path = tmp_path / "toy.csv"
        code = data._CodedColumn.read
        rewritten = []

        def rewrite_once(column, cells, drop):
            if not rewritten:
                path.write_text(new)  # in place: the open file reads on in the new bytes
                rewritten.append(path)
            return code(column, cells, drop)

        monkeypatch.setattr(data, "READ_BLOCK_ROWS", 16)
        monkeypatch.setattr(data._CodedColumn, "read", rewrite_once)
        mixed = load_from_config(cfg, data_dir=tmp_path)
        monkeypatch.setattr(data._CodedColumn, "read", code)
        assert set(mixed.vocab["color"]) == {"blue", "red", "tan"}

        if then == "restored":  # the old bytes' key must not find the mixed parse
            path.write_text(old)
        checked_load(cfg, tmp_path)
        assert hits == [False, False]
