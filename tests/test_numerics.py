"""Unit tests for the small dense linear-algebra kernel and the export writers."""

import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasepovm.compiler import (
    BOOTSTRAP,
    GivensRotation,
    Netlist,
    apply_netlist,
    eliminate,
    evaluate_netlist,
)
from phasepovm.numerics import (
    BLOCK_VALUES,
    WORK_VALUES,
    identity_gap,
    max_gap,
    partial_trace_ancilla,
    rotate_rows,
    row_slices,
    squared_column_norms,
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
    """0-4 blocks of 0-4 float64 rows that share one even row length.

    Each later block draws part of its entries from the values of the
    blocks before it, so a writer's table carried from one block to the
    next is both hit and missed. No block, or only empty ones, is a
    table with no rows.
    """
    cols = 2 * draw(st.integers(min_value=1, max_value=4))
    fresh = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        seen = [x for block in blocks for x in block.ravel().tolist()]
        elements = st.one_of(fresh, st.sampled_from(seen)) if seen else fresh
        blocks.append(draw(arrays(np.float64, (draw(st.integers(0, 4)), cols), elements=elements)))
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
@example(blocks=[], layout=ROW_LAYOUTS[2])
@example(blocks=[np.empty((0, 3))], layout=ROW_LAYOUTS[0])
@example(blocks=[np.empty((0, 2)), np.ones((1, 2)), np.empty((0, 2))], layout=ROW_LAYOUTS[1])
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


@pytest.mark.parametrize("special", [None, np.nan, complex(0.0, np.nan), 1e200, -np.inf])
def test_squared_column_norms_over_three_blocks(special):
    rng = np.random.default_rng(SEED)
    a = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    assert len(list(row_slices(len(a), len(a), WORK_VALUES))) == 3
    if special is not None:
        a[199, 7] = special
    with np.errstate(over="ignore"):
        expected = np.sum(np.abs(a) ** 2, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a square past float64 is inf, silently
        got = squared_column_norms(a)
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    assert np.isnan(got[7]) == (special is not None and np.isnan(special))


def _random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_schedule_unitary(rng, m):
    """Z = E† for E the elimination schedule's rotations at random angles.

    Half the draws start E with the bootstrap pair, which leaves Z's top
    two rows complex.
    """
    elements = list(BOOTSTRAP) if rng.random() < 0.5 else []
    for k in range(m // 2 - 1):
        a, b, c = rng.uniform(-np.pi, np.pi, size=3)
        elements += [
            GivensRotation(2 * k + 1, 2 * k + 3, a),
            GivensRotation(2 * k + 2, 2 * k + 4, b),
            GivensRotation(2 * k + 3, 2 * k + 4, c),
        ]
    return evaluate_netlist(Netlist(M=m, elements=tuple(elements))).conj().T


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_unitarity_residual_accepts_random_unitaries(n):
    """The sweep certifies every unitary of its schedule, at M = 2n."""
    rng = np.random.default_rng(SEED + n)
    for _ in range(20):
        assert eliminate(_random_schedule_unitary(rng, 2 * n))[2] <= 1e-10


def test_unitarity_residual_rejects_scaled_and_singular():
    assert not eliminate(2.0 * np.eye(4))[2] <= 1e-10
    assert not eliminate(np.zeros((2, 2)))[2] <= 1e-10
    with pytest.raises(ValueError, match="square"):
        eliminate(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        eliminate(np.ones((3, 2)))


@st.composite
def square_matrices(draw):
    """A complex n x n matrix, n even: unitary, a scaled unitary or Gaussian, maybe with one NaN.

    Only the rows of a drawn subset (none, some or all) have an imaginary
    part, as only the top two rows of an extension do; the unitary kinds
    are a real orthogonal matrix with those rows multiplied by phases, or
    a generic complex unitary for all rows. The NaN lands in a real or a
    complex row, in either part of its entry.
    """
    # even n >= 2, as the sweep takes
    n = 2 * draw(st.integers(1, 4))
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
def test_gram_residuals_equal_the_dense_products(a):
    """norms is the dense diagonal's; the sweep's bound is above every dense residual."""
    eye = np.eye(len(a))
    gram, outer = a.conj().T @ a, a @ a.conj().T
    has_nan = bool(np.isnan(a).any())
    norms = max_gap(squared_column_norms(a), 1.0)
    np.testing.assert_allclose(norms, np.max(np.abs(np.diag(gram).real - 1.0)), rtol=0, atol=1e-13)
    # a NaN entry meets zeros in the sweep's rotations
    with np.errstate(invalid="ignore"):
        bound = eliminate(a)[2]
    assert np.isnan(bound) == has_nan
    if not has_nan:
        off_diagonal = np.max(np.abs(gram[~np.eye(len(a), dtype=bool)]))
        dense = max(np.max(np.abs(gram - eye)), np.max(np.abs(outer - eye)))
        assert off_diagonal <= bound and dense <= bound


def last_block_unitary(change, complex_rows):
    """A 200 x 200 unitary, complex in ``complex_rows``, changed in its last column.

    Its rows fall in three working blocks, and the changed entries in the
    last: "tilt" leans column 199 towards 198; any other change is the
    new value of the corner entry.
    """
    rng = np.random.default_rng(SEED)
    a = np.linalg.qr(rng.normal(size=(200, 200)))[0] + 0j
    a[complex_rows] *= np.exp(1j * rng.uniform(0.1, 3.0, size=(len(a[complex_rows]), 1)))
    if change == "tilt":
        a[:, 199] += 0.01 * a[:, 198]
    else:
        a[199, 199] = change
    return a


@pytest.mark.parametrize("complex_rows", [[], [0, 1], slice(None)])
@pytest.mark.parametrize("change", ["tilt", np.nan, complex(0.5, np.nan), np.inf])
def test_gram_residuals_over_three_blocks_equal_the_one_shot_bits(change, complex_rows):
    """norms and the sweep's identity miss, each taken a block at a time, have the whole-array bits."""
    a = last_block_unitary(change, complex_rows)
    assert len(list(row_slices(len(a), len(a), WORK_VALUES))) == 3
    column_sums = np.add.reduce(np.square(a.real) + np.square(a.imag), axis=0)
    got = squared_column_norms(a)
    assert np.array_equal(got.view(np.int64), column_sums.view(np.int64))
    norms = np.max(np.abs(column_sums - 1.0))
    assert np.float64(max_gap(got, 1.0)).view(np.int64) == norms.view(np.int64)
    # an infinite entry meets zeros in the sweep's rotations
    with np.errstate(invalid="ignore"):
        net, residual, _ = eliminate(a)
        swept = apply_netlist(net, a.copy())
    swept -= np.eye(len(a))
    assert np.float64(residual).view(np.int64) == np.max(np.abs(swept)).view(np.int64)


# entry parts of the gap tests: any float64, mixed with 0.0, -0.0, 1.0 and NaN
GAP_PARTS = st.one_of(st.floats(width=64), st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan]))


@st.composite
def identity_gap_inputs(draw):
    """A complex n x n array whose parts mix any float64 with 0.0, -0.0, 1.0 and NaN."""
    n = draw(st.integers(1, 6))
    return draw(arrays(np.float64, (n, n, 2), elements=GAP_PARTS)).view(complex)[..., 0]


def last_block_square(value, n=200):
    """An n x n array near I, three working blocks of rows, with ``value`` in its last row."""
    assert len(list(row_slices(n, n, WORK_VALUES))) == 3
    a = np.eye(n, dtype=complex) + 1e-3 * np.sin(np.arange(n * n)).reshape(n, n)
    a[-1, 5] = value
    return a


@settings(max_examples=200, deadline=None)
@given(a=identity_gap_inputs())
@example(a=np.array([[complex(-0.0, -0.0), 0.0], [np.nan, 1.0]]))
@example(a=np.eye(3, dtype=complex))
@example(a=last_block_square(np.nan))
@example(a=last_block_square(complex(0.0, np.inf)))
@example(a=last_block_square(3.0))
def test_identity_gap_is_the_max_gap_in_place_bit_for_bit(a):
    expected_matrix = a - np.eye(len(a))
    expected = np.max(np.abs(expected_matrix))
    work = a.copy()
    got = identity_gap(work)
    assert type(got) is float
    # the same bits, a NaN's payload and a zero's sign included
    assert np.float64(got).view(np.int64) == expected.view(np.int64)
    assert np.array_equal(work.view(np.int64), expected_matrix.view(np.int64))


@st.composite
def gap_pairs(draw):
    """Two complex arrays of one shape, their parts as in identity_gap_inputs."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    pair = draw(arrays(np.float64, (2, *shape, 2), elements=GAP_PARTS)).view(complex)[..., 0]
    return pair[0], pair[1]


def test_row_slices_are_made_one_at_a_time():
    # sweep --M 4096 --steps 10**7: a list of all 666 667 slices traces 82 MiB
    tracemalloc.start()
    try:
        first = next(iter(row_slices(10**7, 4097, BLOCK_VALUES)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == slice(0, BLOCK_VALUES // 4097)
    assert peak < 1 << 20, peak


def three_block_pair(value, budget=BLOCK_VALUES, n_rows=520):
    """Two n_rows x 256 arrays a gap of 0.5 apart, with ``value`` in the last of their three blocks."""
    assert len(list(row_slices(n_rows, 256, budget))) == 3
    a, b = np.zeros((n_rows, 256), dtype=complex), np.full((n_rows, 256), 0.5 + 0j)
    a[-1, 7] = value
    return a, b


@settings(max_examples=200, deadline=None)
@given(pair=gap_pairs())
@example(pair=(np.array([[1.0, np.nan]]), np.array([[1.0, 2.0]])))
@example(pair=(np.array([[complex(0.0, np.inf)]]), np.array([[complex(np.inf, np.inf)]])))
@example(pair=three_block_pair(np.nan))
@example(pair=three_block_pair(complex(0.0, np.inf)))
@example(pair=three_block_pair(3.0))
@example(pair=three_block_pair(np.nan, WORK_VALUES, 130))
@example(pair=three_block_pair(complex(0.0, np.inf), WORK_VALUES, 130))
@example(pair=three_block_pair(3.0, WORK_VALUES, 130))
def test_max_gap_keeps_a_nan_and_the_bits_of_the_max_abs_difference(pair):
    a, b = pair
    with np.errstate(invalid="ignore", over="ignore"):
        expected = np.max(np.abs(a - b))
        got = max_gap(a, b)
        # |inf + nan j| is inf (C99 hypot), so a NaN part beside an infinite
        # one gives an infinite gap, not a NaN one
        has_nan = np.isnan(np.abs(a - b)).any()
        non_finite = not np.isfinite(a - b).all()
    assert type(got) is float
    assert np.float64(got).view(np.int64) == expected.view(np.int64)
    assert np.isnan(got) == has_nan
    # either way a NaN or infinite difference never passes a tolerance check
    assert not (non_finite and got <= np.finfo(float).max)


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
