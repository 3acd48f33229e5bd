"""Unit tests for the small dense linear-algebra kernel and the export writers."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasepovm.numerics import (
    adjoint,
    is_unitary,
    partial_trace_ancilla,
    rotate_rows,
    write_csv_rows,
    write_json_rows,
)

SEED = 20240811

# Signed zeros, non-finite values, subnormals, and the values around 1e16
# and 1e-4 where repr switches between positional and exponent notation
SPECIAL_FLOATS = [
    0.0,
    -0.0,
    np.nan,
    np.inf,
    -np.inf,
    5e-324,
    -2.225073858507201e-308,
    1e16,
    -np.nextafter(1e16, 0.0),
    1e-5,
    np.nextafter(1e-4, 0.0),
    1e-4,
]

# A JSON row built around its float values: a flat list, [re, im] pairs,
# and the sweep's {"phi": ..., "probabilities": [...]} object
ROW_LAYOUTS = [
    lambda v: v,
    lambda v: [v[i : i + 2] for i in range(0, len(v), 2)],
    lambda v: {"phi": v[0], "probabilities": v[1:]},
]


@st.composite
def float_blocks(draw):
    """1-3 blocks of float64 rows that share one even row length."""
    cols = 2 * draw(st.integers(min_value=1, max_value=4))
    elements = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
    return [
        draw(arrays(np.float64, (draw(st.integers(1, 4)), cols), elements=elements))
        for _ in range(draw(st.integers(1, 3)))
    ]


SPECIAL_BLOCKS = [np.array(SPECIAL_FLOATS).reshape(3, 4), np.array([SPECIAL_FLOATS[::-1][:4]])]


@settings(max_examples=100, deadline=None)
@given(blocks=float_blocks(), layout=st.sampled_from(ROW_LAYOUTS))
@example(blocks=SPECIAL_BLOCKS, layout=ROW_LAYOUTS[1])
def test_json_writer_equals_json_dumps(blocks, layout):
    fields = {"M": 4, "column_order": [0, 2, 1, 3]}
    rows = [layout([float(x) for x in row]) for block in blocks for row in block]
    buf = io.StringIO()
    write_json_rows(buf, fields, "rows", layout, blocks)
    assert buf.getvalue() == json.dumps({**fields, "rows": rows}, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(blocks=float_blocks())
@example(blocks=SPECIAL_BLOCKS)
def test_csv_writer_equals_the_repr_join(blocks):
    lines = [",".join(repr(float(x)) for x in row) for block in blocks for row in block]
    buf = io.StringIO()
    write_csv_rows(buf, "a,b", blocks)
    assert buf.getvalue() == "a,b\n" + "".join(line + "\n" for line in lines)


def _random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(SEED)
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    np.testing.assert_allclose(adjoint(adjoint(a)), a)
    np.testing.assert_allclose(adjoint(a), a.conj().T)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_is_unitary_accepts_random_unitaries(n):
    rng = np.random.default_rng(SEED + n)
    for _ in range(20):
        assert is_unitary(_random_unitary(rng, n))


def test_is_unitary_rejects_scaled_and_singular():
    assert not is_unitary(2.0 * np.eye(3))
    assert not is_unitary(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="square"):
        is_unitary(np.ones((2, 3)))


def test_rotate_rows_applies_the_plane_rotation_convention():
    rng = np.random.default_rng(SEED)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    c, s = np.cos(0.3), np.sin(0.3)
    expected = a.copy()
    expected[[1, 3]] = np.array([[c, s], [-s, c]]) @ a[[1, 3]]
    rotate_rows(a, 1, 3, 0.3)
    np.testing.assert_allclose(a, expected, rtol=0, atol=1e-15)
    v = np.array([1.0, 2.0j])
    rotate_rows(v, 0, 1, np.pi / 2)
    np.testing.assert_allclose(v, [2.0j, -1.0], atol=1e-15)


def _rotate_rows_two_copies(arr, i, j, angle):
    """The two-copy form of the plane rotation (bit-exact reference)."""
    c, s = np.cos(angle), np.sin(angle)
    ri, rj = arr[i].copy(), arr[j].copy()
    arr[i] = c * ri + s * rj
    arr[j] = -s * ri + c * rj


# finite parts, signed zeros among them; NaN bit patterns are not compared
_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300]
_ENTRIES = np.array([complex(re, im) for re in _PARTS for im in _PARTS])
# a subnormal part, whose products underflow to a signed zero
_SUBNORMAL = np.array([complex(-5e-324, 1.0), complex(0.5, -5e-324), complex(-0.0, 5e-324)])


@pytest.mark.parametrize("angle", [0.0, -0.0, 0.3, -0.3, np.pi / 2, np.pi, 3.5342917352885173])
def test_rotate_rows_equals_the_two_copy_form_bit_for_bit(angle):
    # every pair of entries meets in rows 0 and 2; row 1 must stay as it is
    first, second = np.meshgrid(_ENTRIES, _ENTRIES)
    with_subnormals = np.concatenate([_ENTRIES, _SUBNORMAL])
    rows, cols = np.meshgrid(with_subnormals, with_subnormals)
    a = np.stack([rows.ravel(), np.full(rows.size, 7.0 + 0j), cols.ravel()])
    expected = a.copy()
    _rotate_rows_two_copies(expected, 0, 2, angle)
    rotate_rows(a, 0, 2, angle)
    assert np.array_equal(a.view(np.int64), expected.view(np.int64))
    # a 1-D amplitude vector, whose entries are the rows; its reference
    # runs numpy's scalar arithmetic, which may round an underflowing
    # product to the other signed zero, so no subnormals here
    for x, y in zip(first.ravel()[::5], second.ravel()[::5]):
        v = np.array([x, 7.0, y])
        w = v.copy()
        _rotate_rows_two_copies(w, 2, 0, angle)
        rotate_rows(v, 2, 0, angle)
        assert np.array_equal(v.view(np.int64), w.view(np.int64))


def test_partial_trace_ancilla_extracts_first_qubit_block():
    rng = np.random.default_rng(SEED)
    p = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    block = partial_trace_ancilla(p)
    np.testing.assert_allclose(block, p[:2, :2])
    # returned block is a copy, not a view
    block[0, 0] = 123.0
    assert p[0, 0] != 123.0


def test_partial_trace_ancilla_rejects_bad_shapes():
    with pytest.raises(ValueError):
        partial_trace_ancilla(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        partial_trace_ancilla(np.zeros((4, 6)))
