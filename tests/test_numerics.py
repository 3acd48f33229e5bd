"""Unit tests for the small dense linear-algebra kernel and the export writers."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasepovm.numerics import (
    gram_residuals,
    is_unitary,
    partial_trace_ancilla,
    rotate_rows,
    write_csv_rows,
    write_json_rows,
)

SEED = 20240811

# Signed zeros, two NaN payloads, infinities, subnormals, and the values
# around 1e16 and 1e-4 where repr switches between positional and
# exponent notation
SPECIAL_FLOATS = [
    0.0,
    -0.0,
    np.nan,
    float(np.array(0x7FF8000000000001).view(np.float64)),
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
    """1-4 blocks of float64 rows that share one even row length.

    Each later block draws part of its entries from the values of the
    blocks before it, so a writer's table carried from one block to the
    next is both hit and missed.
    """
    cols = 2 * draw(st.integers(min_value=1, max_value=4))
    fresh = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        seen = [x for block in blocks for x in block.ravel().tolist()]
        elements = st.one_of(fresh, st.sampled_from(seen)) if seen else fresh
        blocks.append(draw(arrays(np.float64, (draw(st.integers(1, 4)), cols), elements=elements)))
    return blocks


# each special value in consecutive blocks, beside fresh values
SPECIAL_BLOCKS = [
    np.array(SPECIAL_FLOATS + [1.0]).reshape(7, 2),
    np.array([2.0] + SPECIAL_FLOATS[::-1]).reshape(7, 2),
    np.array(SPECIAL_FLOATS[:6]).reshape(3, 2),
    np.array([[3.0, -0.0]]),
]


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
    with pytest.raises(ValueError, match="square"):
        gram_residuals(np.ones((3, 2)))


@st.composite
def square_matrices(draw):
    """A complex n x n matrix: unitary, a scaled unitary or Gaussian, maybe with one NaN.

    Only the rows of a drawn subset (none, some or all) have an imaginary
    part, as only the top two rows of an extension do; the unitary kinds
    are a real orthogonal matrix with those rows multiplied by phases, or
    a generic complex unitary for all rows. The NaN lands in a real or a
    complex row, in either part of its entry.
    """
    # n >= 2: a 1 x 1 matrix has no off-diagonal entry to take the maximum of
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subset = draw(st.sampled_from(["none", "some", "all"]))
    complex_rows = {"none": [], "all": list(range(n))}.get(subset) or sorted(
        draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    )
    kind = draw(st.sampled_from(["unitary", "scaled", "gaussian"]))
    if kind == "gaussian":
        a = rng.normal(size=(n, n)) + 0j
        a.imag[complex_rows] = rng.normal(size=(len(complex_rows), n))
    elif subset == "all":
        a = _random_unitary(rng, n)
    else:
        a = np.linalg.qr(rng.normal(size=(n, n)))[0] + 0j
        a[complex_rows] *= np.exp(1j * rng.uniform(0.1, 3.0, size=(len(complex_rows), 1)))
    if kind == "scaled":
        a *= draw(st.floats(0.25, 2.0))
    if draw(st.booleans()):
        nan = draw(st.sampled_from([complex(np.nan, 0.0), complex(0.5, np.nan)]))
        a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = nan
    return a


@settings(max_examples=100, deadline=None)
@given(a=square_matrices())
# a NaN in a real row, in the real and in the imaginary part of a complex row
@example(a=np.array([[np.nan, 0.0], [0.0, 1j]]))
@example(a=np.array([[1.0, 0.0], [np.nan, 1j]]))
@example(a=np.array([[1.0, 0.0], [0.0, complex(0.0, np.nan)]]))
# one complex row, where the imaginary part of AA† sets unitarity
@example(a=np.array([[0.5 + 0.1j, 1.6 + 0.6j, -0.8 - 0.9j], [-0.1, 1.2, -1.5], [0.4, -0.3, -0.9]]))
def test_gram_residuals_equal_the_dense_products(a):
    eye = np.eye(len(a))
    gram, outer = a.conj().T @ a, a @ a.conj().T
    off_diagonal = gram[~np.eye(len(a), dtype=bool)]
    expected = {
        "orthogonality": np.max(np.abs(off_diagonal)),
        "norms": np.max(np.abs(np.diag(gram).real - 1.0)),
        # np.maximum, not max: a NaN must survive
        "unitarity": np.maximum(np.max(np.abs(gram - eye)), np.max(np.abs(outer - eye))),
    }
    got = gram_residuals(a)
    assert list(got) == list(expected)
    for name, value in expected.items():
        np.testing.assert_allclose(got[name], value, rtol=0, atol=1e-13, err_msg=name)
    assert np.isnan(got["unitarity"]) == bool(np.isnan(a).any())
    assert is_unitary(a) == (got["unitarity"] <= 1e-10)


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
