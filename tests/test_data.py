"""CSV loading, schema inference, dataset validation and splitting."""
from __future__ import annotations

import copy
import csv
import pickle
import re

import numpy as np
import pytest

from riskcal.data import (
    DISCRETE_LIMIT,
    Continuous,
    DataError,
    Dataset,
    Discrete,
    FeatureSchema,
    RawTable,
    dataset_from_table,
    infer_schema,
    load_csv,
    train_test_split,
    validate_instances,
    write_csv,
    write_table,
)
from riskcal.model import _feature_map, param_map, posterior_matrix, predict_matrix, prob_stat_map, uniform_init


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic(tmp_path):
    p = write(tmp_path, "a,b,y\n1,cat,0\n2,dog,1\n")
    table = load_csv(p, "y")
    assert table.header == ("a", "b", "y")
    assert table.label_index == 2
    assert table.columns == (("1", "2"), ("cat", "dog"), ("0", "1"))


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM; it must not stick to the first header cell.
    p = write(tmp_path, "\ufeffy,f1,f2\n1,0.5,2\n2,1.5,3\n")
    table = load_csv(p, "y")
    assert table.header == ("y", "f1", "f2")
    assert table.label_index == 0
    assert table.columns == (("1", "2"), ("0.5", "1.5"), ("2", "3"))


def test_load_csv_label_by_index(tmp_path):
    p = write(tmp_path, "a,b,y\n1,cat,0\n2,dog,1\n")
    assert load_csv(p, 0).label_index == 0
    assert load_csv(p, np.int64(2)).label_index == 2  # a numpy integer is a position, not a header name


@pytest.mark.parametrize("text, label_column, message", [
    ("", "y", "empty file, missing header row"),
    ("a,y\n1,2\n\n3\n", "y", "row 4 has 1 cells, expected 2"),  # the blank row 3 is skipped, not refused
    ("a,b,y\n1,2,1\n", 3, "label column 3 out of range for 3 columns"),
    ("a,b,y\n1,2,1\n", -1, "label_column must be >= 0, got -1"),
    ("a,b,y\n1,2,1\n", True, "label_column must be of type int, got True"),  # not column 1
    ("a,b,y\n1,2,1\n", 2.0, "label_column must be of type int, got 2.0"),
], ids=["empty", "blank-row", "past-the-end", "negative", "bool", "float"])
def test_load_csv_refuses(tmp_path, text, label_column, message):
    with pytest.raises(DataError, match=re.escape(message)):
        load_csv(write(tmp_path, text), label_column)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "absent.csv", "y")


def test_load_csv_ragged_row_names_row(tmp_path):
    p = write(tmp_path, "a,b,y\n1,2,0\n1,2\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(p, "y")


def test_load_csv_empty_cell(tmp_path):
    p = write(tmp_path, "a,b,y\n1,,0\n")
    with pytest.raises(DataError, match="empty cell"):
        load_csv(p, "y")


def test_load_csv_no_instances(tmp_path):
    p = write(tmp_path, "a,b,y\n")
    with pytest.raises(DataError, match="no instances"):
        load_csv(p, "y")


def test_load_csv_missing_label(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(p, "y")


@pytest.mark.parametrize("content, message", [
    (b"a,y\n1,1\n\n" + b"2" * 131073 + b",2\n", "row 4: field larger than field limit (131072)"),  # csv's limit
    (b"a,y\n1,\xff\n", "not UTF-8 text: invalid start byte 0xff"),
], ids=["over-long-field", "not-utf8"])
def test_load_csv_names_the_file_of_an_unreadable_csv(tmp_path, content, message):
    p = tmp_path / "data.csv"
    p.write_bytes(content)
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_csv(p, "y")


@pytest.mark.parametrize("text, message", [
    ("y,a,y\n1,2,1\n", "header: column 2 repeats the name 'y' of column 0"),
    ("a,,y\n1,2,1\n", "header: column 1 has an empty name"),
    ("a, \t,y\n1,2,1\n", "header: column 1 has an empty name"),
    ("a,b,y,\n1,2,1,\n", "header: column 3 has an empty name"),  # before row 2's empty cell
    ("a , a,y\n1,2,1\n", "header: column 1 repeats the name 'a' of column 0"),  # names are stripped
], ids=["repeated-label", "empty", "blank", "trailing-comma", "stripped"])
def test_load_csv_refuses_an_empty_or_repeated_header_name(tmp_path, text, message):
    p = write(tmp_path, text)
    with pytest.raises(DataError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_csv(p, 0)


def test_infer_schema_mixed_types(tmp_path):
    rows = "\n".join(f"{x / 10.0},{animal},{label}" for x, animal, label in
                     [(1, "cat", 0), (25, "dog", 1), (3, "cat", 1), (47, "dog", 0),
                      (5, "cat", 0), (61, "dog", 1), (7, "cat", 1), (83, "dog", 0),
                      (9, "cat", 0), (101, "dog", 1), (11, "cat", 1), (123, "dog", 0)])
    p = write(tmp_path, "x,animal,y\n" + rows + "\n")
    schema, ds = infer_schema(load_csv(p, "y"))
    assert schema.features == (Continuous(), Discrete(2))
    assert schema.class_cardinality == 2
    # lexicographic codes: cat -> 1, dog -> 2
    assert ds.X[0, 1] == 1 and ds.X[1, 1] == 2
    # numeric labels 0 -> 1, 1 -> 2
    assert ds.y[0] == 1 and ds.y[1] == 2


def test_infer_schema_numeric_order_not_lexicographic(tmp_path):
    # 2 must sort before 10 so codes follow numeric order.
    p = write(tmp_path, "f,y\n10,a\n2,b\n10,a\n2,b\n")
    schema, ds = infer_schema(load_csv(p, "y"))
    assert schema.features == (Discrete(2),)
    assert ds.X[0, 0] == 2  # 10 got the higher code
    assert ds.X[1, 0] == 1


def test_infer_schema_distinct_value_boundary(tmp_path):
    lines = [f"{v},{v % 2}" for v in range(DISCRETE_LIMIT)] * 2
    schema, _ = infer_schema(load_csv(write(tmp_path, "f,y\n" + "\n".join(lines) + "\n"), "y"))
    assert schema.features == (Discrete(DISCRETE_LIMIT),)

    lines = [f"{v},{v % 2}" for v in range(DISCRETE_LIMIT + 1)] * 2
    schema, _ = infer_schema(load_csv(write(tmp_path, "f,y\n" + "\n".join(lines) + "\n"), "y"))
    assert schema.features == (Continuous(),)


def test_infer_schema_same_numeric_value_once(tmp_path):
    # "0" and "0.0" parse to the same number and share one code.
    p = write(tmp_path, "f,y\n0,a\n0.0,a\n1,b\n1.0,b\n")
    schema, ds = infer_schema(load_csv(p, "y"))
    assert schema.features == (Discrete(2),)
    assert list(ds.X[:, 0]) == [1.0, 1.0, 2.0, 2.0]


def test_load_and_infer_match_a_per_cell_reference(tmp_path):
    # Cells are stripped, quoted cells kept whole and blank records skipped; codes follow the sorted distinct
    # numbers, so "-0.0" and "0", "10" and "1e1" are one category each, or the sorted strings of a text column.
    text = ('num, "text" ,y\r\n10,b, 2\n\n-0.0," a,b ",1\n0,"c""",1\n 2 ,b,3\n1e1,b,2.0\n3,"x\ny",3\n'
            '0.0,c",1\n-7.5,a,2\n')
    p = write(tmp_path, text)
    table = load_csv(p, "y")
    with open(p, newline="", encoding="utf-8") as fh:
        records = [[c.strip() for c in row] for row in csv.reader(fh)]
    assert table.header == tuple(records[0])
    assert table.columns == tuple(zip(*[row for row in records[1:] if row]))
    schema, ds = infer_schema(table)

    def reference_codes(tokens):
        try:
            keys = [float(t) for t in tokens]
        except ValueError:
            keys = list(tokens)
        code = {v: k + 1 for k, v in enumerate(sorted(set(keys)))}
        return [code[v] for v in keys]

    assert schema == FeatureSchema((Discrete(5), Discrete(5)), 3)
    assert ds.X.tolist() == [list(pair) for pair in zip(*map(reference_codes, table.columns[:2]))]
    assert ds.y.tolist() == reference_codes(table.columns[2])
    assert ds.X[:, 0].tolist() == [5, 2, 2, 3, 5, 4, 2, 1]


def test_infer_schema_non_numeric_high_cardinality_rejected(tmp_path):
    lines = [f"v{k},{k % 2}" for k in range(DISCRETE_LIMIT + 1)]
    p = write(tmp_path, "f,y\n" + "\n".join(lines) + "\n")
    with pytest.raises(DataError, match="non-numeric"):
        infer_schema(load_csv(p, "y"))


def test_infer_schema_constant_column_rejected(tmp_path):
    p = write(tmp_path, "f,y\n3,a\n3,b\n3,a\n")
    with pytest.raises(DataError, match="constant"):
        infer_schema(load_csv(p, "y"))


def test_infer_schema_single_class_rejected(tmp_path):
    p = write(tmp_path, "f,y\n1,a\n2,a\n")
    with pytest.raises(DataError, match="single distinct"):
        infer_schema(load_csv(p, "y"))


def test_schema_needs_a_feature(tmp_path):
    with pytest.raises(DataError, match="need at least one feature"):
        FeatureSchema((), 2)
    with pytest.raises(DataError, match="need at least one feature"):
        infer_schema(load_csv(write(tmp_path, "y\n1\n2\n1\n"), "y"))  # a label-only CSV


def test_equal_schemas_hash_equal_and_share_one_feature_map():
    # A schema's hash is taken once; equal, copied and unpickled schemas keep looking up one feature map.
    schema = FeatureSchema((Discrete(3), Continuous(), Discrete(2)), 3)
    twins = [FeatureSchema((Discrete(3), Continuous(), Discrete(2)), 3), copy.copy(schema), copy.deepcopy(schema),
             pickle.loads(pickle.dumps(schema))]
    for twin in twins:
        assert twin == schema and hash(twin) == hash(schema) == hash((schema.features, 3))
        assert _feature_map(twin) is _feature_map(schema)
    other = FeatureSchema((Discrete(3), Continuous(), Discrete(2)), 2)
    assert other != schema and _feature_map(other) is not _feature_map(schema)
    assert len({schema, *twins, other}) == 2


@pytest.mark.parametrize("features, message", [
    ((Continuous(), "continuous"), "bad feature spec: 'continuous'"),
    ((Discrete,), "bad feature spec: <class 'riskcal.data.Discrete'>"),
], ids=["string", "class"])
def test_feature_schema_refuses_a_bad_spec(features, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        FeatureSchema(features, 2)


@pytest.mark.parametrize("X, message", [
    (np.zeros((2, 3)), "expected shape (m, 2) or (n, m, 2), got (2, 3)"),
    (np.zeros(2), "expected shape (m, 2) or (n, m, 2), got (2,)"),
    (np.zeros((2, 2, 5, 2)), "expected shape (m, 2) or (n, m, 2), got (2, 2, 5, 2)"),
], ids=["three-columns", "one-axis", "two-node-axes"])
def test_validate_instances_refuses_a_wrong_feature_count(X, message):
    # Rows are one node, X (m, d), or one stack of nodes, X (n, m, d): in a Dataset and in every call on rows.
    schema = FeatureSchema((Continuous(), Continuous()), 2)
    params = param_map(uniform_init(schema, 4.0))
    for call in (lambda: validate_instances(schema, X), lambda: Dataset(schema, X, np.ones(X.shape[:-1], dtype=int)),
                 lambda: prob_stat_map(X, params), lambda: posterior_matrix(params, X),
                 lambda: predict_matrix(params, X)):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            call()


def test_infer_schema_non_finite_rejected(tmp_path):
    p = write(tmp_path, "f,y\nnan,a\n2.5,b\n1.0,a\n" + "\n".join(f"{v}.5,b" for v in range(12)) + "\n")
    with pytest.raises(DataError, match="non-finite"):
        infer_schema(load_csv(p, "y"))
    # Non-finite is reported before constant, for features and labels alike.
    for text in ("f,y\nnan,a\nnan,b\n", "f,y\n1,inf\n2,inf\n"):
        with pytest.raises(DataError, match="non-finite"):
            infer_schema(load_csv(write(tmp_path, text), "y"))


def test_write_table_cell_format(tmp_path):
    p = tmp_path / "table.csv"
    rows = [[3, np.int64(-4), "ml", 0.25, np.float64(0.1), float("nan")], (1, 2, "a b", -0.0, 1e-300, 2.0)]
    write_table(p, ["i", "i64", "s", "f", "f64", "nan"], rows)
    assert p.read_bytes() == b"i,i64,s,f,f64,nan\r\n3,-4,ml,0.25,0.1,nan\r\n1,2,a b,-0.0,1e-300,2.0\r\n"


class Loud(float):
    """A float whose text is not its value: the float rule writes repr(float(c)), never str(c)."""

    def __repr__(self):
        return "loud"

    __str__ = __repr__


def reference_bytes(header, rows) -> bytes:
    """A CSV table written one cell at a time: repr(float(c)) for a float, else str(c), csv-quoted; CRLF."""
    def cell(c):
        text = repr(float(c)) if isinstance(c, float) else str(c)
        return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\r\n') else text
    return "".join(",".join(map(cell, row)) + "\r\n" for row in [header, *rows]).encode()


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, float("nan"), float("inf"), -float("inf"), 0.1, 2.5e-7, 1 / 3]


def test_write_table_bytes_are_the_per_cell_rule(tmp_path):
    n = len(EDGE_FLOATS)
    texts = ["a,b", '"', "line\nbreak", "cr\rhere", 'say "hi"', "plain", " padded ", "é", "", "x"]
    columns = [
        EDGE_FLOATS,
        [np.float64(v) for v in EDGE_FLOATS],
        list(range(-3, n - 3)),
        [np.int64(k) for k in range(n)],
        texts,
        [7, 0.5, np.float64(1e16), Loud(0.25), "t", np.int64(2), -0.0, 1e-5, True, 5e-324],  # first cell no float
        [Loud(v) for v in EDGE_FLOATS],
    ]
    header = ["f", "f64", "i", "i64", "s,t", "mixed", "sub"]
    rows = list(zip(*columns))
    p = tmp_path / "table.csv"
    write_table(p, header, rows)
    want = reference_bytes(header, rows)
    assert p.read_bytes() == want
    assert b"loud" not in want and b'"a,b"' in want and b'""""' in want and b'"line\nbreak"' in want
    # a table of one column writes an empty cell as "", as the csv module does for a lone empty field
    write_table(p, ["s"], [[""], ["x"], [""]])
    assert p.read_bytes() == b's\r\n""\r\nx\r\n""\r\n'
    write_table(p, ["a", "b"], [])
    assert p.read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("rows", [[(1, 2), (3,)], [(1, 2), (3, 4, 5)], [(1, 2), ()], [(1,), (2,)]],
                         ids=["short", "long", "empty", "narrow"])
def test_write_table_refuses_a_row_not_as_long_as_the_header(tmp_path, rows):
    p = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="^write_table: a row is not as long as the header: zip"):
        write_table(p, ["a", "b"], rows)
    assert not p.exists()


def test_write_csv_bytes_are_the_per_cell_rule(tmp_path):
    values = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5e-7, 1 / 3, 123456789012345.6]
    schema = FeatureSchema((Continuous(), Discrete(3), Continuous()), 3)
    X = np.column_stack([values, [1, 2, 3, 1, 2, 3, 1, 2], values[::-1]])
    y = np.array([1, 2, 3, 3, 2, 1, 1, 2], dtype=np.int64)
    p = tmp_path / "data.csv"
    write_csv(Dataset(schema, X, y), p)
    rows = [(a, int(code), b, int(label)) for a, code, b, label in zip(values, X[:, 1], values[::-1], y)]
    assert p.read_bytes() == reference_bytes(["f1", "f2", "f3", "y"], rows)
    assert b"\r\n-0.0,1,123456789012345.6,1\r\n" in p.read_bytes()


@pytest.mark.parametrize("text, message", [
    ("a,b,y\n1,2,1\n1,,2\n1,2,1\n1,2\n", "row 3, column 'b': empty cell"),
    ("a,b,y\n1,2,1\n1,2\n1,2,1\n1,,2\n", "row 3 has 2 cells, expected 3"),
    ("a,b,y\n1,2,1\n1,2,  \n,2,1\n", "row 3, column 'y': empty cell"),  # row order, not column order
    ("a,b,y\n1,2,1\n1,\t,1,5\n", "row 3 has 4 cells, expected 3"),  # ragged before empty within a row
    ("a,b,y\n\n1,2,1\n\n\n1, ,1\n", "row 6, column 'b': empty cell"),  # blank records are counted
    ('a,b,y\n1,"x\ny",1\n1,2,"\n"\n', "row 3, column 'y': empty cell"),  # records, not lines
], ids=["empty-then-ragged", "ragged-then-empty", "row-order", "ragged-first", "blank-records", "quoted-newline"])
def test_load_csv_reports_the_first_fault_in_row_order(tmp_path, text, message):
    with pytest.raises(DataError, match=f"{re.escape(message)}$"):
        load_csv(write(tmp_path, text), "y")


@pytest.mark.parametrize("kind, seed", [("blobs", 1), ("categorical", 2), ("mixed", 3)])
def test_a_generated_file_is_rewritten_byte_for_byte(tmp_path, kind, seed):
    from riskcal.synth import GENERATORS
    p, q = tmp_path / "gen.csv", tmp_path / "again.csv"
    write_csv(GENERATORS[kind](400, rng=np.random.default_rng(seed)), p)
    write_csv(infer_schema(load_csv(p, "y"))[1], q)
    assert q.read_bytes() == p.read_bytes()


def test_round_trip_write_load(tmp_path):
    rng = np.random.default_rng(3)
    schema = FeatureSchema((Continuous(), Discrete(4)), 3)
    X = np.column_stack([rng.normal(size=30), rng.integers(1, 5, size=30).astype(float)])
    y = np.concatenate([[1, 2, 3], rng.integers(1, 4, size=27)])
    ds = Dataset(schema, X, y)
    p = tmp_path / "out.csv"
    write_csv(ds, p)
    back = dataset_from_table(load_csv(p, "y"), schema)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


@pytest.mark.parametrize("header, columns, message", [
    (("f1", "y"), (("1.0",), ("1",)), "table has 1 feature columns, schema has 2"),
    (("f1", "f2", "y"), (("1.0",), ("2",), ("one",)), "label column must hold integer class codes"),
    (("f1", "f2", "y"), (("1.0",), ("two",), ("1",)), "column 'f2': non-numeric value"),
], ids=["feature-count", "label", "feature"])
def test_dataset_from_table_refuses(header, columns, message):
    schema = FeatureSchema((Continuous(), Discrete(2)), 2)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dataset_from_table(RawTable(header, columns, len(header) - 1), schema)


def test_dataset_validation():
    schema = FeatureSchema((Discrete(3), Continuous()), 2)
    good = Dataset(schema, [[1, 0.5], [3, -2.0]], [1, 2])
    assert good.m == 2
    with pytest.raises(DataError):
        Dataset(schema, [[4, 0.5]], [1])  # code out of range
    with pytest.raises(DataError):
        Dataset(schema, [[1.5, 0.5]], [1])  # non-integral code
    with pytest.raises(DataError):
        Dataset(schema, [[1, np.nan]], [1])  # non-finite
    with pytest.raises(DataError):
        Dataset(schema, [[1, 0.0]], [3])  # label out of range
    with pytest.raises(DataError):
        Dataset(schema, [[1, 0.0], [2, 0.0]], [1])  # length mismatch
    # the first offending discrete feature is named, non-integral before range
    three = FeatureSchema((Continuous(), Discrete(3), Discrete(2)), 2)
    with pytest.raises(DataError, match=r"^feature 2: code outside 1\.\.2$"):
        Dataset(three, [[0.5, 1, 2], [9.5, 3, 3]], [1, 2])
    with pytest.raises(DataError, match=r"^feature 1: non-integral code"):
        Dataset(three, [[0.5, 1, 0], [0.5, 2.5, 1]], [1, 2])
    with pytest.raises(DataError, match=r"^feature 1: non-integral code"):
        Dataset(three, [[0.5, 3.5, 1], [0.5, 0, 1]], [1, 2])
    # n same-size datasets stacked on a leading axis
    stacked = Dataset(schema, [[[1, 0.5], [3, -2.0]], [[2, 0.0], [1, 1.0]]], [[1, 2], [2, 2]])
    assert stacked.m == 2
    with pytest.raises(DataError, match=r"^feature 0: code outside 1\.\.3$"):
        Dataset(schema, [[[1, 0.5]], [[4, 0.5]]], [[1], [1]])
    with pytest.raises(DataError, match="labels shape"):
        Dataset(schema, [[[1, 0.5]], [[2, 0.5]]], [1, 1])
    # a continuous value whose square overflows would turn the statistics into inf/nan
    Dataset(schema, [[1, 1e154], [2, -1e154]], [1, 2])
    with pytest.raises(DataError, match=r"^feature 1: value too large"):
        Dataset(schema, [[1, 0.5], [2, -2e154]], [1, 2])


def test_subset_picks_rows():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, [[0.0], [1.0], [2.0], [3.0]], [1, 2, 1, 2])
    sub = ds.subset([3, 0])
    assert list(sub.X[:, 0]) == [3.0, 0.0]
    assert list(sub.y) == [2, 1]
    stacked = ds.subset([[3, 0], [1, 2]])  # one dataset of two rows per row of indices
    assert stacked.X.shape == (2, 2, 1) and stacked.m == 2
    assert stacked.y.tolist() == [[2, 1], [2, 1]]


def test_subset_refuses_indices_outside_the_dataset():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, [[0.0], [1.0], [2.0], [3.0]], [1, 2, 1, 2])
    with pytest.raises(DataError, match=r"^index 4 outside 0\.\.3$"):
        ds.subset([[0, 1], [4, 2]])
    with pytest.raises(DataError, match="index -1"):  # no counting from the end
        ds.subset([2, -1])


def test_subset_refuses_a_boolean_mask_and_takes_empty_indices():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, [[0.0], [1.0], [2.0], [3.0]], [1, 2, 1, 2])
    mask = ds.y == 2
    with pytest.raises(DataError, match=r"boolean mask: pass np\.flatnonzero\(mask\)"):
        ds.subset(mask)  # as indices, True and False would pick rows 1 and 0
    assert ds.subset(np.flatnonzero(mask)).X[:, 0].tolist() == [1.0, 3.0]
    for empty in ([], range(0)):  # float64 as arrays, yet no rows
        assert ds.subset(empty).X.shape == (0, 1)
    assert ds.subset(range(3)).y.tolist() == [1, 2, 1]


def test_subset_refuses_non_integer_indices():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, [[0.0], [1.0], [2.0], [3.0]], [1, 2, 1, 2])
    with pytest.raises(DataError, match="integer row indices, got float64"):
        ds.subset([0.9, 2.5])  # truncated, they would pick rows 0 and 2
    with pytest.raises(DataError, match="integer row indices"):
        ds.subset(np.array([[0.0, 1.0]]))  # whole-valued floats too
    assert ds.subset(np.array([3, 1], dtype=np.int32)).y.tolist() == [2, 2]


def test_labels_must_be_whole_numbers(tmp_path):
    schema = FeatureSchema((Continuous(),), 2)
    X = [[0.0], [1.0], [2.0]]
    with pytest.raises(DataError, match="non-integral class label 1.7"):
        Dataset(schema, X, [1.7, 2.0, 1.2])  # truncated, they would be classes 1, 2, 1
    with pytest.raises(DataError, match="non-integral class label nan"):
        Dataset(schema, X, [1.0, np.nan, 2.0])
    assert Dataset(schema, X, [1.0, 2.0, 1.0]).y.tolist() == [1, 2, 1]  # whole-valued floats load
    assert Dataset(schema, X, np.array([2, 1, 2], dtype=np.int32)).y.dtype == np.int64
    p = tmp_path / "labels.csv"
    p.write_text("f1,y\n0.5,1\n1.5,2.0\n2.5,2\n", encoding="utf-8")
    assert dataset_from_table(load_csv(p, "y"), schema).y.tolist() == [1, 2, 2]
    for cell in ("1.9", "nan"):
        p.write_text(f"f1,y\n0.5,1\n1.5,{cell}\n2.5,2\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"non-integral class label {cell}"):
            dataset_from_table(load_csv(p, "y"), schema)


def test_boolean_labels_are_refused():
    # True would read as class 1, and False as a label outside 1..2.
    schema = FeatureSchema((Continuous(),), 2)
    for y in ([True, True], [True, False], np.array([False, True])):
        with pytest.raises(DataError, match=r"^expected class labels 1\.\.2, not booleans$"):
            Dataset(schema, [[0.0], [1.0]], y)


def test_train_test_split_disjoint_and_seeded():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, np.arange(100.0).reshape(-1, 1), np.arange(100) % 2 + 1)
    tr1, te1 = train_test_split(ds, 60, 30, np.random.default_rng(5))
    tr2, te2 = train_test_split(ds, 60, 30, np.random.default_rng(5))
    assert tr1.m == 60 and te1.m == 30
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.X, te2.X)
    assert not set(tr1.X[:, 0]) & set(te1.X[:, 0])


def test_train_test_split_too_large():
    schema = FeatureSchema((Continuous(),), 2)
    ds = Dataset(schema, np.arange(10.0).reshape(-1, 1), np.arange(10) % 2 + 1)
    with pytest.raises(DataError, match="exceeds"):
        train_test_split(ds, 8, 3, np.random.default_rng(0))
