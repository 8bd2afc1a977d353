"""Datasets with mixed discrete/continuous features.

CSV loading, schema inference, typed materialization, deterministic
splits and the argument rules.  Tables are read, typed and written a
column at a time: ``load_csv`` strips and checks each column of the
parsed records, ``infer_schema`` parses a column in one float pass and
codes it with one sorted search, and ``write_table`` formats a column in
one ``map``.  Only the row of a fault, and a column that mixes floats
with other cells, are handled cell by cell.  The bytes are those of the
csv module's default dialect.  Conventions used across the package:

* class labels and discrete feature values are 1-based category codes,
* a column with at most ``DISCRETE_LIMIT`` distinct values is discrete,
  anything else must parse as numbers and becomes continuous,
* feature order is fixed when the schema is built and never changes,
* feature matrices are float64 even for discrete columns (codes stored
  as whole floats), labels are int64.
"""
from __future__ import annotations

import csv
import numbers
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice
from math import inf, prod
from pathlib import Path

import numpy as np

# Columns with at most this many distinct values are treated as discrete.
DISCRETE_LIMIT = 10
# Largest finite float64 (the real rule takes an int beyond it as +-inf); largest magnitude whose square is finite.
_FLOAT_MAX = float(np.finfo(np.float64).max)
_ROOT_MAX = np.sqrt(_FLOAT_MAX)


class DataError(ValueError):
    """Malformed input file or invalid dataset contents."""


# The argument rules.  Each refuses in a message naming the argument or call, raising ``error`` where it takes one.
def _is_int(value) -> bool:  # a Python or numpy integer, not a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:  # a Python or numpy real number, not a bool (np.bool_ is no numbers.Real)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(name: str, value, least: int, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int, unless not an integer or below ``least``."""
    if not _is_int(value):
        raise error(f"{name} must be of type int, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    return int(value)


def _real(name: str, value, low, high=inf, *, closed=False, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float, unless not a real number or outside (low, high), [low, high) if ``closed``, as nan is."""
    if not _is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")
    x = float(value) if not _is_int(value) or -_FLOAT_MAX <= value <= _FLOAT_MAX else inf if value > 0 else -inf
    if not (low <= x if closed else low < x) or not x < high:
        lower = f"{'>=' if closed else '>'} {low:g} and " if low > -inf else ""
        upper = "finite" if high == inf else f"< {high:g}"
        raise error(f"{name} must be {lower}{upper}, got {x}")
    return x


def _nodes(what: str, held, stacked: bool, hint: str = "", error: type[Exception] = TypeError):
    """``held``, a Dataset, X (m, d) or (n, m, d), or a table, (r, w) or (n, r, w), unless a stack where ``what`` needs
    one node, or one node where it needs a stack (``stacked``); ``hint`` ends the message."""
    data = isinstance(held, Dataset)
    shape = (held.X if data else held).shape
    if (len(shape) == 3) != stacked:  # each form: (as needed, as got)
        forms = (("pooled X (m, d)", "a pooled dataset"), ("stacked X (n, m, d)", "a stacked dataset")) if data else (
            ("one node's table (r, w)", "one node's table"), ("stacked tables (n, r, w)", "stacked tables"))
        raise error(f"{what}: expected {forms[stacked][0]}, got {forms[not stacked][1]} of shape {shape}{hint}")
    return held


def _same_schema(what: str, *schemas: FeatureSchema) -> None:
    """Nothing, unless a schema differs from the first: one that is not the first is compared by ``!=``."""
    if any(schema is not schemas[0] and schema != schemas[0] for schema in schemas[1:]):
        raise ValueError(f"schema mismatch between {what}")


@dataclass(frozen=True)
class Discrete:
    """Categorical feature taking codes 1..cardinality."""

    cardinality: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cardinality", _count("cardinality", self.cardinality, 2, DataError))


@dataclass(frozen=True)
class Continuous:
    """Real-valued feature."""


FeatureSpec = Discrete | Continuous


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature types plus the number of classes."""

    features: tuple[FeatureSpec, ...]
    class_cardinality: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_cardinality", _count("class_cardinality", self.class_cardinality, 2, DataError))
        if not self.features:
            raise DataError("need at least one feature")
        for spec in self.features:
            if not isinstance(spec, (Discrete, Continuous)):
                raise DataError(f"bad feature spec: {spec!r}")
        object.__setattr__(self, "_hash", hash((self.features, self.class_cardinality)))

    def __hash__(self) -> int:  # hashed once: every table looks its schema's feature map up by it
        return self._hash

    @property
    def d(self) -> int:
        return len(self.features)


def validate_instances(schema: FeatureSchema, X) -> np.ndarray:
    """A feature array, one node (m, d) or a stack (n, m, d), as float64, checked against a schema: any fault raises."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != schema.d:
        raise DataError(f"expected shape (m, {schema.d}) or (n, m, {schema.d}), got {X.shape}")
    # One pass flags nan, inf and values whose square, held by the statistics, overflows.
    huge = not np.abs(X).max(initial=0.0) <= _ROOT_MAX
    if huge and not np.all(np.isfinite(X)):
        raise DataError("non-finite feature value")
    rows = X.reshape(prod(X.shape[:-1]), schema.d)  # instances of every stacked dataset
    disc = [i for i, spec in enumerate(schema.features) if isinstance(spec, Discrete)]
    if disc:
        codes = rows[:, disc]
        cards = np.array([schema.features[i].cardinality for i in disc])
        bad = (codes != np.floor(codes)) | (codes < 1) | (codes > cards)
        # Report the first offending feature, fractional codes before range.
        for j in np.flatnonzero(bad.any(axis=0))[:1]:
            fractional = np.any(codes[:, j] != np.floor(codes[:, j]))
            problem = "non-integral code for discrete feature" if fractional else f"code outside 1..{cards[j]}"
            raise DataError(f"feature {disc[j]}: {problem}")
    if huge:  # valid discrete codes are far below the bound
        j = np.argmax((np.abs(rows) > _ROOT_MAX).any(axis=0))
        raise DataError(f"feature {j}: value too large, its square overflows")
    return X


def _row_indices(indices) -> np.ndarray:
    """``indices`` as a fresh int64 array; a boolean mask, ragged blocks and non-integer values are refused."""
    try:
        idx = np.asarray(indices)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DataError("ragged row indices: blocks differ in length") from None
    if idx.dtype == bool:
        raise DataError("expected row indices, not a boolean mask: pass np.flatnonzero(mask)")
    if idx.size and not np.issubdtype(idx.dtype, np.integer):  # [] and range(0) come as float64
        raise DataError(f"expected integer row indices, got {idx.dtype}")
    return idx.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and 1-based labels bound to a schema; X (n, m, d), y (n, m) stack n same-size datasets."""

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y)
        if y.dtype == bool:  # True would read as class 1
            raise DataError(f"expected class labels 1..{self.schema.class_cardinality}, not booleans")
        if y.dtype.kind == "f":  # refused, not truncated to a class
            for label in y[~(np.isfinite(y) & (y == np.floor(y)))][:1]:
                raise DataError(f"non-integral class label {label}")
        y = np.asarray(y, dtype=np.int64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        validate_instances(self.schema, X)
        if y.shape != X.shape[:-1]:
            raise DataError(f"labels shape {y.shape} does not match {X.shape[-2]} instances")
        if y.size and (y.min() < 1 or y.max() > self.schema.class_cardinality):
            raise DataError(f"label outside 1..{self.schema.class_cardinality}")

    @property
    def m(self) -> int:
        return self.X.shape[-2]

    def subset(self, indices) -> "Dataset":
        """The instances at ``indices`` of a pooled dataset, any shape: (n, m_v) indices give n stacked datasets."""
        _nodes("Dataset.subset", self, False, error=DataError)
        idx = _row_indices(indices)
        for i in idx[(idx < 0) | (idx >= len(self.X))][:1]:
            raise DataError(f"index {i} outside 0..{len(self.X) - 1}")
        return Dataset(self.schema, self.X[idx], self.y[idx])


@dataclass(frozen=True)
class RawTable:
    """Parsed CSV cells, still untyped strings: one tuple of stripped cells per column, in header order."""

    header: tuple[str, ...]
    columns: tuple[tuple[str, ...], ...]
    label_index: int


def _not_utf8(path, e: UnicodeDecodeError) -> str:
    """The refusal of ``path``, naming why decoding stopped and the byte it stopped at."""
    return f"{path}: not UTF-8 text: {e.reason} {e.object[e.start]:#04x}"


def _read_text(path, error: type[ValueError]) -> str:
    """The UTF-8 text of ``path``, less a leading byte order mark; other bytes are refused as ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise error(_not_utf8(path, e)) from None


def _first_fault(path, header: tuple[str, ...], records: list[list[str]]) -> DataError:
    """The fault of the first faulty data record, numbered as the file's records: its length before an empty cell."""
    for lineno, row in enumerate(islice(records, 1, None), start=2):
        if row and len(row) != len(header):
            return DataError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
        cells = [c.strip() for c in row]
        if "" in cells:
            return DataError(f"{path}: row {lineno}, column {header[cells.index('')]!r}: empty cell")
    raise AssertionError("no faulty record")


def load_csv(path, label_column: int | str) -> RawTable:
    """Read a CSV file with a header row into string cells, a column at a time.

    ``label_column`` selects the class column either by 0-based position
    or by header name.  Header names must be non-empty and distinct.
    Every row must have exactly as many cells as the header; empty cells
    are rejected (missing values are not supported).  Blank records are
    skipped but counted: a fault names the row of its record, the header
    being row 1, and the first faulty row is the one named.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"no such file: {path}")
    records: list[list[str]] = []
    with open(p, newline="", encoding="utf-8-sig") as fh:  # -sig drops a leading byte order mark
        try:
            records.extend(csv.reader(fh))  # extend keeps the records read before a fault: its row is the next
        except csv.Error as e:  # a field over csv.field_size_limit(), say
            raise DataError(f"{path}: row {len(records) + 1}: {e}") from None
        except UnicodeDecodeError as e:
            raise DataError(_not_utf8(path, e)) from None
    if not records:
        raise DataError(f"{path}: empty file, missing header row")
    header = tuple(map(str.strip, records[0]))
    for j, name in enumerate(header):  # a name picks the label column and names a column in messages
        if not name:
            raise DataError(f"{path}: header: column {j} has an empty name")
        if header.index(name) < j:
            raise DataError(f"{path}: header: column {j} repeats the name {name!r} of column {header.index(name)}")
    rows = list(filter(None, islice(records, 1, None)))
    columns = tuple(tuple(map(str.strip, column)) for column in zip(*rows))
    if not set(map(len, rows)) <= {len(header)} or any("" in column for column in columns):
        raise _first_fault(path, header, records)
    if not rows:
        raise DataError(f"{path}: no instances after the header row")

    if isinstance(label_column, str):
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {list(header)}")
        label_index = header.index(label_column)
    else:  # a position, by the count rule: a bool or a float is refused
        label_index = _count("label_column", label_column, 0, DataError)
        if label_index >= len(header):
            raise DataError(f"label column {label_index} out of range for {len(header)} columns")
    return RawTable(header, columns, label_index)


def _parse_floats(tokens: tuple[str, ...]) -> np.ndarray | None:
    """A column's cells as float64, or None when any fails to parse as a number."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None


def _parse_column(tokens: tuple[str, ...], name: str) -> tuple[np.ndarray | None, Sequence]:
    """Cells as finite floats, or None if one is not a number; their distinct values, sorted: numerically if numbers."""
    values = _parse_floats(tokens)
    if values is None:
        return None, sorted(set(tokens))
    if not np.isfinite(values).all():
        raise DataError(f"column {name!r}: non-finite value")
    ordered = np.sort(values)  # as np.unique does, without the extra MB of code it pages in
    return values, ordered[np.append(True, ordered[1:] != ordered[:-1])]


def _encode_categories(tokens: tuple[str, ...], values: np.ndarray | None, distinct: Sequence) -> np.ndarray:
    """Codes 1..k that follow the sorted distinct values; "1" and "1.0" are one number and share a code."""
    if values is not None:
        return np.searchsorted(distinct, values) + 1.0
    code = {v: float(k) for k, v in enumerate(distinct, start=1)}
    return np.fromiter(map(code.__getitem__, tokens), np.float64, len(tokens))


def _encode_label_column(tokens: tuple[str, ...], name: str) -> tuple[np.ndarray, int]:
    values, distinct = _parse_column(tokens, name)
    if len(distinct) < 2:
        raise DataError(f"label column {name!r} has a single distinct value")
    return _encode_categories(tokens, values, distinct).astype(np.int64), len(distinct)


def _encode_feature_column(tokens: tuple[str, ...], name: str) -> tuple[FeatureSpec, np.ndarray]:
    values, distinct = _parse_column(tokens, name)
    if len(distinct) == 1:
        raise DataError(f"column {name!r} is constant; constant features are not supported")
    if len(distinct) <= DISCRETE_LIMIT:
        return Discrete(len(distinct)), _encode_categories(tokens, values, distinct)
    if values is None:
        raise DataError(
            f"column {name!r}: non-numeric value in a column with more than "
            f"{DISCRETE_LIMIT} distinct values (would be continuous)"
        )
    return Continuous(), values


def infer_schema(table: RawTable) -> tuple[FeatureSchema, Dataset]:
    """Type every column of a raw table and materialize the dataset.

    Numeric columns are sorted numerically when assigning category codes
    ("2" before "10"); non-numeric columns sort lexicographically.  The
    label column may have any number of distinct values >= 2; feature
    columns with more than ``DISCRETE_LIMIT`` distinct values must be
    fully numeric.
    """
    label = table.label_index
    y, r = _encode_label_column(table.columns[label], table.header[label])
    specs: list[FeatureSpec] = []
    columns: list[np.ndarray] = []
    for j, (name, tokens) in enumerate(zip(table.header, table.columns)):
        if j == label:
            continue
        spec, col = _encode_feature_column(tokens, name)
        specs.append(spec)
        columns.append(col)
    schema = FeatureSchema(tuple(specs), r)
    X = np.column_stack(columns)
    return schema, Dataset(schema, X, y)


def dataset_from_table(table: RawTable, schema: FeatureSchema) -> Dataset:
    """Materialize a raw table under a known schema.

    Discrete cells must already hold 1-based integer codes and the label
    column 1-based class indices, as produced by :func:`write_csv`; a
    label that parses as a fractional number or nan is refused.
    """
    if len(table.header) - 1 != schema.d:
        raise DataError(f"table has {len(table.header) - 1} feature columns, schema has {schema.d}")
    y_values = _parse_floats(table.columns[table.label_index])
    if y_values is None:
        raise DataError("label column must hold integer class codes")
    X = np.empty((len(y_values), schema.d), dtype=np.float64)
    features = (j for j in range(len(table.header)) if j != table.label_index)
    for i, j in enumerate(features):
        values = _parse_floats(table.columns[j])
        if values is None:
            raise DataError(f"column {table.header[j]!r}: non-numeric value")
        X[:, i] = values
    return Dataset(schema, X, y_values)


# A cell holding any of these is quoted, as the csv module's default dialect quotes it.
_QUOTED = re.compile('[,"\r\n]')


def _cells(column, lone: bool) -> list[str]:
    """One column's cells as text: ``repr(float(c))`` for a float, numpy's included, else ``str(c)`` quoted as the
    csv module quotes it; in a table of one column (``lone``) an empty cell is quoted too, as csv does."""
    floats = {issubclass(kind, float) for kind in set(map(type, column))}
    if floats == {True}:
        return list(map(float.__repr__, column))
    if True in floats:
        cells = [float.__repr__(c) if isinstance(c, float) else str(c) for c in column]
    else:
        cells = list(map(str, column))
    if _QUOTED.search("".join(cells)) or lone and "" in cells:
        cells = ['"' + c.replace('"', '""') + '"' if _QUOTED.search(c) or lone and not c else c for c in cells]
    return cells


def write_table(path, header, rows) -> None:
    """Write a CSV table, a column at a time: the one place the package's CSV byte format is set.

    Float cells, numpy float64 included, are written as ``repr(float(c))``,
    full precision that reads back exactly; every other cell as the csv
    module writes it (``str``, quoted where it holds a comma, a quote or
    a line break).  UTF-8 with CRLF line ends.  Rows must all be as long
    as the header; the file is opened only once every cell is formatted.
    """
    try:  # the header leads every column, so each row must be as long as it
        columns = list(zip(header, *rows, strict=True))
    except ValueError as e:  # zip counts the header as argument 1
        raise ValueError(f"write_table: a row is not as long as the header: {e}") from None
    lone = len(columns) == 1
    lines = map(",".join, zip(*(_cells(column[1:], lone) for column in columns)))
    text = "\r\n".join(chain([",".join(_cells(list(header), lone))], lines))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text + "\r\n")


def write_csv(dataset: Dataset, path) -> None:
    """Write a pooled dataset as CSV: features f1..fd, label column 'y' last.

    Discrete codes and labels are written as integers, continuous values
    with full repr precision, so a written file reloads exactly under
    the same schema via :func:`dataset_from_table`.  A stacked dataset
    is refused before the file is opened.
    """
    _nodes("write_csv", dataset, False, error=DataError)
    header = [f"f{i + 1}" for i in range(dataset.schema.d)] + ["y"]
    columns = [(dataset.X[:, i].astype(np.int64) if isinstance(spec, Discrete) else dataset.X[:, i]).tolist()
               for i, spec in enumerate(dataset.schema.features)]
    write_table(path, header, zip(*columns, dataset.y.tolist()))


def train_test_split(
    dataset: Dataset, train_size: int, test_size: int, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Draw disjoint uniformly random train and test subsets of a pooled dataset; a stacked one is refused."""
    train_size, test_size = _count("train_size", train_size, 1, DataError), _count("test_size", test_size, 1, DataError)
    if train_size + test_size > _nodes("train_test_split", dataset, False, error=DataError).m:
        raise DataError(f"train {train_size} + test {test_size} exceeds {dataset.m} available instances")
    perm = rng.permutation(dataset.m)
    return dataset.subset(perm[:train_size]), dataset.subset(perm[train_size : train_size + test_size])
