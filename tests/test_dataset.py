"""Row-block rendering against the cell-by-cell reference renderers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from dickelab.dataset import Dataset

EDGE_INTS = [0, 1, -1, 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63)]
EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0, 2.0**53 + 2]

texts = st.text(st.sampled_from('%"\\,aé€𝄞 '), max_size=6)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70),
                    st.floats(allow_nan=True, allow_infinity=True), texts)


def int_arrays(n):
    return st.lists(st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**63 - 1)),
                    min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))


def float_arrays(n):
    return st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                    min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))


@st.composite
def tables(draw):
    """(columns, row blocks, the rows they stand for): ordinary rows of
    scalars mixed with blocks of scalar and array cells."""
    width = draw(st.integers(1, 5))
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            row = tuple(draw(scalars) for _ in range(width))
            blocks.append(row)
            rows.append(row)
            continue
        n = draw(st.integers(0, 5))
        cells = [draw(st.one_of(scalars, int_arrays(n), float_arrays(n))) for _ in range(width)]
        if not any(isinstance(c, np.ndarray) for c in cells):
            cells[0] = draw(float_arrays(n))
        blocks.append(tuple(cells))
        for i in range(n):
            rows.append(tuple((int(c[i]) if c.dtype.kind == "i" else float(c[i]))
                              if isinstance(c, np.ndarray) else c for c in cells))
    return [f"c{j}" for j in range(width)], blocks, rows


def _typed(rows):
    """Rows as comparable text: nan is never equal to itself."""
    return [[(type(v), repr(v)) for v in row] for row in rows]


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.dictionaries(texts, scalars, max_size=3))
    def test_bytes_and_rows_match_the_reference(self, table, meta):
        columns, blocks, rows = table
        ds = Dataset(meta, columns, blocks)
        assert ds.to_csv() == brute.render_csv(meta, columns, rows)
        assert ds.to_json() == brute.render_json(meta, columns, rows)
        assert len(ds.rows) == len(rows)
        assert _typed(ds.rows) == _typed(rows)
        assert _typed(ds.rows[i] for i in range(-len(rows), len(rows))) == _typed(rows + rows)

    def test_non_finite_floats_keep_json_spelling(self):
        ds = Dataset({}, ["k", "p"], [(np.arange(3), np.array([math.nan, math.inf, -math.inf]))])
        assert ds.to_json().endswith('"rows":[[0,NaN],[1,Infinity],[2,-Infinity]]}\n')
        assert ds.to_csv().endswith("0,nan\n1,inf\n2,-inf\n")

    def test_block_arrays_of_one_length(self):
        with pytest.raises(ValueError):
            Dataset({}, ["a", "b"], [(np.arange(2), np.arange(3))]).to_csv()

    def test_block_arrays_are_int_or_float(self):
        with pytest.raises(TypeError):
            Dataset({}, ["a"], [(np.array([True, False]),)]).to_csv()
