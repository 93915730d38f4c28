"""emit_table writes the bytes csv.writer writes, and refuses what it would quote.

The reference is the plain writer kept in tests/oracles.py: every cell of
the broadcast table through csv.writer. Each table here is written by both
and the files must be equal byte for byte. A str cell or column name that
csv would quote is refused before any file is written.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_emit_table
from tacd.report import _BLOCK_ROWS, emit_table, load_csv_columns

EDGE_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 1e22, 123456789012345680.0,
               2.5e-308, 1.7976931348623157e308, 1.0, -1e-7, 1e15, 9999999999999998.0, 0.0001]


def _same_bytes(table, tmp_path, name="t"):
    got = emit_table(table, tmp_path / f"{name}.csv").read_bytes()
    want = reference_emit_table(table, tmp_path / f"{name}_ref.csv").read_bytes()
    assert got == want
    return got


def test_float_edge_values(tmp_path):
    x = np.array(EDGE_FLOATS)
    with np.errstate(over="ignore"):  # the largest doubles are inf in float32
        f32 = x.astype(np.float32)
    text = _same_bytes({"x": x, "neg": -x, "f32": f32, "shifted": np.roll(x, 3)}, tmp_path)
    assert b"\n-0.0,0.0," in text and b"\n5e-324,-5e-324," in text and b"\n1e+16,-1e+16," in text


def test_int_columns(tmp_path):
    big = np.array([0, -1, 7, 2**63 - 1, -(2**63), 42])
    _same_bytes({"i64": big, "u8": np.arange(6, dtype=np.uint8), "u64": np.full(6, 2**64 - 1, dtype=np.uint64),
                 "i32": np.arange(-3, 3, dtype=np.int32), "value": np.linspace(0.0, 1.0, 6)}, tmp_path)


@pytest.mark.parametrize("cells", [
    ["", "plain", " lead", "é", "tab\there", "'single'", "trailing "],
    ["", "", ""],
    ["x", "", "y"],
])
def test_plain_str_cells_match_csv_writer(cells, tmp_path):
    # empty cells are plain in a row of two or more cells
    names = np.array(cells)
    _same_bytes({"name": names, "value": np.arange(len(cells)) * 0.1, "again": names[::-1]}, tmp_path, "mixed")
    _same_bytes({" lead": names, "é": np.arange(len(cells))}, tmp_path, "plain_header")
    _same_bytes({"only": names[names != ""]}, tmp_path, "one_column")


@pytest.mark.parametrize("header, cell", [
    (("name", "value"), "a,b"),
    (("name", "value"), 'say "x"'),
    (("name", "value"), "cr\rhere"),
    (("name", "value"), "two\nlines"),
    (("name",), ""),
    (("a,b", "value"), "plain"),
    (("",), "plain"),
], ids=["comma", "double-quote", "cr", "lf", "one-column-empty", "name-comma", "one-column-empty-name"])
def test_cells_csv_would_quote_are_refused(header, cell, tmp_path):
    # the cell sits past the first block; the check names the column and
    # comes before any file is opened
    n = 2 * _BLOCK_ROWS + 3
    names = np.array([f"r{i}" for i in range(n)], dtype="U16")
    names[_BLOCK_ROWS + 1] = cell
    table = dict(zip(header, (names, np.arange(n) * 0.1)))
    # caught by hand, not with pytest.raises: a missed refusal must fail as
    # an AssertionError, which is what tests/test_mutations.py expects
    message = ""
    try:
        emit_table(table, tmp_path / "out" / "t.csv")
    except ValueError as err:
        message = str(err)
    assert message.startswith(f"CSV column {header[0]!r}: ") and "would need quoting" in message
    assert not list(tmp_path.iterdir())


def test_broadcast_and_zero_stride_columns(tmp_path):
    runs, horizon = 4, 7
    rng = np.random.default_rng(3)
    table = {
        "run": np.arange(runs)[:, None],
        "k": np.arange(horizon),
        "value": rng.standard_normal((runs, horizon)),
        "nan": np.broadcast_to(np.nan, (runs, horizon)),
        "per_period": np.broadcast_to(rng.standard_normal(horizon), (runs, horizon)),
        "per_run": np.broadcast_to(rng.standard_normal((runs, 1)), (runs, horizon)),
        "scalar": np.float64(2.5),
        "one": np.ones((1, 1)),
        "label": np.array(["a", "b c", "d", "e"])[:, None],
    }
    _same_bytes(table, tmp_path)


def test_tables_larger_than_one_block(tmp_path):
    # blocks of leading-axis slices cover every row once, in order
    rng = np.random.default_rng(5)
    for shape in [(600,), (3, 200), (130, 3), (2, 3, 100)]:
        table = {"x": rng.standard_normal(shape), "i": np.arange(shape[-1]), "lead": np.arange(shape[0]).reshape(
            (shape[0],) + (1,) * (len(shape) - 1))}
        _same_bytes(table, tmp_path, "x".join(map(str, shape)))


@pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0)])
def test_empty_table_is_its_header(shape, tmp_path):
    table = {"k": np.zeros(shape, dtype=int), "x": np.zeros(shape), "name": np.full(shape, "a")}
    assert _same_bytes(table, tmp_path) == b"k,x,name\n"


def test_unwritable_column_types_rejected(tmp_path):
    for column in (np.array([True, False]), np.array([1 + 2j, 0j]), np.array([b"a", b"b"]),
                   np.array(["a", 1.0], dtype=object)):
        with pytest.raises(TypeError, match="'bad' holds"):
            emit_table({"k": np.arange(2), "bad": column}, tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="at least one axis"):
        emit_table({"x": np.float64(1.0)}, tmp_path / "scalar.csv")
    assert not list(tmp_path.iterdir())


_column_shapes = st.sampled_from(["full", "per_run", "per_period", "scalar", "zero_stride"])
_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def _tables(draw):
    runs, horizon = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    table = {}
    for j in range(draw(st.integers(1, 5))):
        kind = draw(_column_shapes)
        shape = {"full": (runs, horizon), "per_run": (runs, 1), "per_period": (horizon,), "scalar": (1, 1),
                 "zero_stride": ()}[kind]
        elements = _ints if draw(st.booleans()) else _floats
        values = draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        column = np.array(values, dtype=np.int64 if elements is _ints else np.float64).reshape(shape)
        table[f"c{j}"] = np.broadcast_to(column, (runs, horizon)) if kind == "zero_stride" else column
    table["k"] = np.arange(horizon)
    return table


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=_tables())
def test_random_numeric_tables_match_csv_writer(table, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("table")
    text = _same_bytes(table, tmp_path)
    cols = load_csv_columns(tmp_path / "t.csv")
    for name, want in zip(table, np.broadcast_arrays(*table.values())):
        assert np.array_equal(cols[name], want.reshape(-1).astype(float), equal_nan=True), name
    assert text.count(b"\n") == 1 + np.broadcast(*table.values()).size
