"""Property tests for the invariants the README promises, over (M, phi, rho)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepovm.optics import build_direct_scheme, simulate_direct, simulate_folded
from phasepovm.povm import (
    analytic_phase_distribution,
    outcome_distribution,
    phase_povm,
    pure_phase_state,
    random_density,
)

TWO_PI = 2.0 * np.pi


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([4, 8, 16, 32, 64]),
    phi=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_completeness_covariance_and_simulators_agree(m, phi, seed):
    povm = phase_povm(m)
    rho = random_density(np.random.default_rng(seed))
    p = outcome_distribution(povm, rho).probabilities
    assert abs(p.sum() - 1.0) <= 1e-12

    pure = outcome_distribution(povm, pure_phase_state(phi)).probabilities
    np.testing.assert_allclose(
        pure, analytic_phase_distribution(m, phi).probabilities, rtol=0, atol=1e-12
    )
    shifted = outcome_distribution(povm, pure_phase_state(phi + TWO_PI / m))
    np.testing.assert_allclose(shifted.probabilities, np.roll(pure, 1), rtol=0, atol=1e-12)

    direct = simulate_direct(build_direct_scheme(m), rho).probabilities
    folded = simulate_folded(m, rho).probabilities
    np.testing.assert_allclose(direct, p, rtol=0, atol=1e-10)
    np.testing.assert_allclose(folded, p, rtol=0, atol=1e-10)
