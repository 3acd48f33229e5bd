"""Tests for the M-outcome phase POVM layer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phasepovm.povm as povm_module
from phasepovm.povm import (
    DENSITY_TOL,
    TWO_PI,
    OutcomeDistribution,
    PhasePovm,
    analytic_phase_distribution,
    click_probabilities,
    guessing_probability,
    outcome_distribution,
    outcome_probability,
    phase_povm,
    povm_element,
    psi_k,
    pure_phase_state,
    random_density,
    validate_density,
    validate_outcome_count,
    wrap_phase,
)

SEED = 20240811
POWERS = [2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize("m", POWERS)
def test_validate_outcome_count_accepts_powers_of_two(m):
    assert validate_outcome_count(m) == m


@pytest.mark.parametrize("bad", [0, 1, 3, 6, -8, 2.0, "8"])
def test_validate_outcome_count_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        validate_outcome_count(bad)


def test_psi_k_is_normalized_and_equatorial():
    for m in POWERS:
        for k in range(m):
            v = psi_k(m, k)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14
            # both components carry weight 1/2 (equatorial direction)
            np.testing.assert_allclose(np.abs(v) ** 2, [0.5, 0.5], atol=1e-14)


def test_povm_element_is_weighted_projector():
    for m in (2, 8, 32):
        for k in range(m):
            e = povm_element(m, k)
            v = psi_k(m, k)
            np.testing.assert_allclose(e, (2.0 / m) * np.outer(v, v.conj()), atol=1e-15)
            np.testing.assert_allclose(e, e.conj().T, atol=1e-15)
            assert np.min(np.linalg.eigvalsh(e)) >= -1e-14


@pytest.mark.parametrize("m", POWERS)
def test_completeness_sums_to_identity(m):
    povm = phase_povm(m)
    total = povm.elements.sum(axis=0)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-13)


@pytest.mark.parametrize("m", [2, 8, 256, 1024])
def test_phase_povm_equals_the_per_element_loop_exactly(m):
    expected = np.stack([povm_element(m, k) for k in range(m)])
    assert np.array_equal(phase_povm(m).elements, expected)


@pytest.mark.parametrize("m", [2, 8, 256])
def test_outcome_distribution_equals_the_per_outcome_trace_exactly(m):
    povm = phase_povm(m)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        rho = random_density(rng)
        expected = [np.trace(povm.elements[k] @ rho).real for k in range(m)]
        dist = outcome_distribution(povm, rho)
        assert dist.M == m
        assert np.array_equal(dist.probabilities, expected)
        assert outcome_probability(povm, m - 1, rho) == expected[-1]
    with pytest.raises(ValueError, match="negative"):
        outcome_distribution(povm, np.diag([1.5, -0.5]))


@pytest.mark.parametrize("m", [2, 8, 256])
def test_guessing_probability_equals_the_running_total_exactly(m):
    total = 0.0
    for k in range(m):
        rho = pure_phase_state(2.0 * np.pi * k / m)
        total += float(np.trace(povm_element(m, k) @ rho).real)
    assert guessing_probability(m) == total / m


@settings(max_examples=100, deadline=None)
@given(
    m=st.sampled_from(POWERS),
    seed=st.integers(0, 2**32 - 1),
    states=st.one_of(st.none(), st.integers(1, 5)),
)
def test_click_probabilities_equal_the_dense_trace_and_sum_to_one(m, seed, states):
    # an M x 2 isometry V: the Q factor of a complex Gaussian
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2)))[0]
    if states is None:
        rho = random_density(rng)
    else:
        rho = np.array([random_density(rng) for _ in range(states)])
    p = click_probabilities(v, rho)
    assert p.shape == rho.shape[:-2] + (m,)
    # Tr[V_k† V_k rho] for row k of V, each as a dense 2 x 2 product
    dense = [np.trace(np.outer(v[k].conj(), v[k]) @ rho, axis1=-2, axis2=-1).real for k in range(m)]
    np.testing.assert_allclose(p, np.moveaxis(np.array(dense), 0, -1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-14)


def test_outcome_index_range_checked():
    povm = phase_povm(4)
    rho = pure_phase_state(0.0)
    with pytest.raises(ValueError, match="out of range"):
        outcome_probability(povm, 4, rho)
    with pytest.raises(ValueError, match="out of range"):
        outcome_probability(povm, -1, rho)


def test_analytic_distribution_closed_form_matches_trace_route():
    # dual route: (1/M)(1 + cos(phi - 2 pi k / M)) against Tr[Pi_k rho]
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        m = int(rng.choice(POWERS))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        dist = analytic_phase_distribution(m, phi)
        povm = phase_povm(m)
        rho = pure_phase_state(phi)
        traced = [outcome_probability(povm, k, rho) for k in range(m)]
        np.testing.assert_allclose(dist.probabilities, traced, atol=1e-12)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12


def test_analytic_distribution_m2_phi0():
    dist = analytic_phase_distribution(2, 0.0)
    np.testing.assert_allclose(dist.probabilities, [1.0, 0.0], atol=1e-15)


def test_covariance_shift_property():
    # advancing the phase by 2 pi / M relabels outcomes by one step
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        m = int(rng.choice(POWERS))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        base = analytic_phase_distribution(m, phi).probabilities
        shifted = analytic_phase_distribution(m, phi + 2.0 * np.pi / m).probabilities
        np.testing.assert_allclose(shifted, np.roll(base, 1), atol=1e-12)


def test_wrap_phase_lands_in_principal_interval():
    for phi in (-7.0, -np.pi, 0.0, np.pi, 6.2, 100.0):
        w = wrap_phase(phi)
        assert 0.0 <= w < 2.0 * np.pi
        assert abs(np.exp(1j * w) - np.exp(1j * phi)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(-5e-324)  # the smallest subnormal
@example(-1e-300)
@example(-1e-20)
@example(-4.4e-16)
@example(-5e-16)
def test_wrap_phase_never_reaches_two_pi(phi):
    # % rounds a tiny negative phase up to exactly 2*pi
    assert 0.0 <= wrap_phase(phi) < TWO_PI


@pytest.mark.parametrize("m", [2, 16])
def test_analytic_table_reads_a_tiny_negative_phase_as_zero(m):
    got = analytic_phase_distribution(m, [-1e-20, -0.0]).probabilities
    zero = analytic_phase_distribution(m, [0.0, 0.0]).probabilities
    assert np.array_equal(got.view(np.int64), zero.view(np.int64))


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_analytic_table_refuses_a_non_finite_phase_by_name(phi):
    # the message of the CLI's --phi check
    message = f"phi must be finite, got {phi}"
    with pytest.raises(ValueError, match=message):
        analytic_phase_distribution(8, [0.5, phi, 1.0])
    with pytest.raises(ValueError, match=message):
        analytic_phase_distribution(8, phi)


def test_validate_density_accepts_states_and_rejects_garbage():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        validate_density(random_density(rng))
    with pytest.raises(ValueError, match="2x2"):
        validate_density(np.eye(3) / 3.0)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        validate_density(np.diag([1.5, -0.5]))


@st.composite
def hermitian_unit_trace(draw):
    """A Hermitian unit-trace 2x2 matrix: random, near pure, huge off its diagonal,
    or with its smallest eigenvalue near -DENSITY_TOL or +DENSITY_TOL."""
    kind = draw(st.sampled_from(["random", "near_pure", "huge", "threshold"]))
    if kind in ("near_pure", "threshold"):
        if kind == "near_pure":
            low = draw(st.floats(-1e-9, 1e-9))
        else:
            low = draw(st.sampled_from([-DENSITY_TOL, DENSITY_TOL])) + draw(st.floats(-1e-12, 1e-12))
        # eigenvalues low and 1 - low in a random basis
        theta, phase = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, TWO_PI))
        c, s = np.cos(theta), np.exp(1j * phase) * np.sin(theta)
        u = np.array([[c, -s.conjugate()], [s, c]])
        rho = u @ np.diag([low, 1.0 - low]) @ u.conj().T
    else:
        bound = 1.0 if kind == "random" else 1e300
        a = draw(st.floats(-1.0, 2.0))
        off = complex(draw(st.floats(-bound, bound)), draw(st.floats(-bound, bound)))
        rho = np.array([[a, off.conjugate()], [off, 1.0 - a]])
    # the upper triangle may miss the lower's conjugate within the Hermitian
    # tolerance; the positivity test, like eigvalsh, reads the lower
    rho[0, 1] += draw(st.floats(-0.5, 0.5)) * DENSITY_TOL
    return rho


@settings(max_examples=400, deadline=None)
@given(st.lists(hermitian_unit_trace(), min_size=1, max_size=4))
@example([np.diag([1.0 + DENSITY_TOL, -DENSITY_TOL]).astype(complex)])
@example([np.diag([DENSITY_TOL, 1.0 - DENSITY_TOL]).astype(complex)])
@example([np.array([[0.5, 1e300], [1e300, 0.5]], dtype=complex)])
def test_the_positivity_test_decides_as_eigvalsh(states):
    stack = np.array(states)
    # eigvalsh is the oracle only; validate_density does not call it
    oracle = np.min(np.linalg.eigvalsh(stack))
    try:
        validate_density(stack)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "density matrix has a negative eigenvalue"
        accepted = False
    # within 1e-14 of the threshold either rounding may decide
    if abs(oracle + DENSITY_TOL) > 1e-14:
        assert accepted == (oracle >= -DENSITY_TOL), (oracle, stack)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, np.nan], [0.0, 0.5]]),
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.eye(2),
        np.diag([1.5, -0.5]),
    ],
)
def test_a_stack_with_one_bad_state_raises_that_states_message(bad):
    rng = np.random.default_rng(SEED)
    stack = np.array([random_density(rng) for _ in range(5)])
    stack[3] = bad
    with pytest.raises(ValueError) as alone:
        validate_density(bad)
    with pytest.raises(ValueError) as stacked:
        validate_density(stack)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError, match=str(alone.value)):
        outcome_distribution(phase_povm(4), stack)


@pytest.mark.parametrize(
    "shape", [(3, 3), (2,), (2, 3), (5, 3, 3), (5, 2, 3), (0, 2, 2), (4, 2, 2, 2)]
)
def test_validate_density_rejects_wrong_trailing_shapes(shape):
    with pytest.raises(ValueError, match="2x2"):
        validate_density(np.full(shape, 0.5))


def test_random_density_pure_flag_controls_rank():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        pure = random_density(rng, pure=True)
        assert abs(np.trace(pure @ pure).real - 1.0) < 1e-12
        mixed = random_density(rng, pure=False)
        assert np.trace(mixed @ mixed).real < 1.0 - 1e-6


def test_pure_phase_state_is_equatorial_projector():
    rho = pure_phase_state(1.3)
    validate_density(rho)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-14
    np.testing.assert_allclose(np.diag(rho).real, [0.5, 0.5], atol=1e-14)


@pytest.mark.parametrize("m,expected", [(2, 1.0), (4, 0.5), (8, 0.25)])
def test_guessing_probability_is_two_over_m(m, expected):
    assert abs(guessing_probability(m) - expected) < 1e-12


def test_outcome_distribution_shape_checked():
    for shape in [(), (2, 5, 4)]:
        with pytest.raises(ValueError):
            OutcomeDistribution(probabilities=np.zeros(shape))


def test_records_read_m_off_their_arrays():
    assert phase_povm(16).M == 16
    assert OutcomeDistribution(probabilities=np.zeros(8)).M == 8
    assert OutcomeDistribution(probabilities=np.zeros((3, 8))).M == 8


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


PHASES = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8)
TINY_PHASES = [-0.0, 0.0, -5e-324, -1e-300, -1e-20, -4.4e-16, -5e-16, TWO_PI, 1e308]


@settings(max_examples=100, deadline=None)
@given(PHASES)
@example(TINY_PHASES)
def test_phase_functions_on_an_array_equal_the_scalar_calls_row_by_row(phis):
    wrapped = wrap_phase(np.array(phis))
    states = pure_phase_state(np.array(phis))
    for i, phi in enumerate(phis):
        assert type(wrap_phase(phi)) is float
        assert _same_bits(wrapped[i], wrap_phase(phi))
        assert _same_bits(states[i], pure_phase_state(phi))
    for m in (2, 16):
        table = analytic_phase_distribution(m, phis)
        assert table.M == m and table.probabilities.shape == (len(phis), m)
        for i, phi in enumerate(phis):
            row = analytic_phase_distribution(m, phi).probabilities
            assert row.shape == (m,) and _same_bits(table.probabilities[i], row)


@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from([2**j for j in range(1, 13)]), data=st.data())
def test_psi_k_and_povm_element_on_an_array_equal_the_scalar_calls_row_by_row(m, data):
    ks = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))
    vectors, elements = psi_k(m, np.array(ks)), povm_element(m, ks)
    for i, k in enumerate(ks):
        assert psi_k(m, k).shape == (2,) and _same_bits(vectors[i], psi_k(m, k))
        assert povm_element(m, k).shape == (2, 2) and _same_bits(elements[i], povm_element(m, k))


@pytest.mark.parametrize("m", [2**j for j in range(1, 13)])
def test_guessing_probability_keeps_the_bits_of_its_own_state_formula(m):
    # the candidate states as guessing_probability built them before it
    # read them from pure_phase_state
    u = np.exp(1j * (TWO_PI * np.arange(m) / m))
    v = np.stack([np.ones(m), u], axis=1) / np.sqrt(2.0)
    states = v[:, :, None] * v.conj()[:, None, :]
    p = np.trace(phase_povm(m).elements @ states, axis1=1, axis2=2).real
    assert guessing_probability(m).hex() == (float(np.cumsum(p)[-1]) / m).hex()


# signed zeros, infinities and NaN beside ordinary values, for each part of an entry
TRACE_PARTS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, 1e-300, 1e308])
# states whose entries hold +0.0 and -0.0 parts, one at a time or stacked
TRACE_STATES = [np.eye(2) / 2.0, np.diag([1.0, 0.0]), pure_phase_state(np.pi), pure_phase_state(1.1)]


@st.composite
def special_povms(draw):
    """A PhasePovm whose elements draw both parts of each entry from TRACE_PARTS."""
    shape = (draw(st.sampled_from([2, 4, 8])), 2, 2)
    elements = np.empty(shape, dtype=complex)
    elements.real = draw(arrays(np.float64, shape, elements=TRACE_PARTS))
    elements.imag = draw(arrays(np.float64, shape, elements=TRACE_PARTS))
    return PhasePovm(elements=elements)


@settings(max_examples=200, deadline=None)
@given(
    povm=special_povms(),
    picks=st.lists(st.sampled_from(range(len(TRACE_STATES))), min_size=1, max_size=3),
)
def test_traces_of_special_blocks_equal_np_trace_bit_for_bit(povm, picks):
    # outcome_distribution and guessing_probability sum each 2x2 diagonal
    # by hand; np.trace is the reference, the -0.0 + -0.0 = +0.0 case included
    m = povm.M
    rho = np.array([TRACE_STATES[i] for i in picks], dtype=complex)
    rho = rho[0] if len(picks) == 1 else rho
    states = pure_phase_state(TWO_PI * np.arange(m) / m)
    with np.errstate(all="ignore"):
        blocks = (povm.elements.reshape(2 * m, 2) @ rho).reshape(*rho.shape[:-2], m, 2, 2)
        expected = np.trace(blocks, axis1=-2, axis2=-1).real
        assert _same_bits(outcome_distribution(povm, rho).probabilities, expected)
        p = np.trace(povm.elements @ states, axis1=1, axis2=2).real
        with mock.patch.object(povm_module, "phase_povm", lambda _: povm):
            got = guessing_probability(m)
        assert _same_bits(np.float64(got), np.float64(float(np.cumsum(p)[-1]) / m))


@pytest.mark.parametrize("bad", [2.7, -0.5, "3", np.float64(1.0), True])
def test_a_non_integer_outcome_index_is_refused(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        psi_k(8, bad)
    with pytest.raises(ValueError, match="must be an integer"):
        povm_element(8, bad)
    with pytest.raises(ValueError, match="must be an integer"):
        outcome_probability(phase_povm(8), bad, pure_phase_state(0.3))


@pytest.mark.parametrize("bad", [8, -1, 11])
def test_an_array_with_one_bad_index_is_refused_by_name(bad):
    ks = np.array([0, 3, bad, 7, 12])
    with pytest.raises(ValueError, match=f"outcome index k={bad} out of range for M=8"):
        psi_k(8, ks)
    with pytest.raises(ValueError, match=f"outcome index k={bad} out of range for M=8"):
        povm_element(8, ks)


def test_an_array_with_one_nan_phase_is_refused_by_name():
    phis = np.linspace(0.0, 6.0, 50)
    phis[31] = np.nan
    with pytest.raises(ValueError, match="phi must be finite, got nan"):
        analytic_phase_distribution(8, phis)


def test_the_phase_wrap_refuses_a_non_finite_phase_by_name():
    # the one finite check sits in wrap_phase, so every phase-taking function shares it
    with pytest.raises(ValueError, match="phi must be finite, got nan"):
        pure_phase_state(float("nan"))
    with pytest.raises(ValueError, match="phi must be finite, got inf"):
        pure_phase_state(np.array([0.1, np.inf]))
    with pytest.raises(ValueError, match="phi must be finite, got -inf"):
        wrap_phase(-np.inf)


@pytest.mark.parametrize("m", [2, 8, 256])
def test_outcome_probability_takes_an_index_array(m):
    povm, rho = phase_povm(m), pure_phase_state(0.3)
    ks = [m - 1, 0, m // 2, 1]
    got = outcome_probability(povm, ks, rho)
    expected = [outcome_probability(povm, k, rho) for k in ks]
    assert all(type(p) is float for p in expected)
    assert got.shape == (4,)
    assert np.array_equal(got.view(np.int64), np.array(expected).view(np.int64))
