"""Symmetric M-outcome phase measurement on a single qubit.

The measurement has M = 2^N rank-one elements pointing at equally
spaced phases 2*pi*k/M on the equator of the Bloch sphere,

    Pi_k = (2/M) |psi_k><psi_k|,
    |psi_k> = (e^{-i pi k/M} |0> + e^{i pi k/M} |1>) / sqrt(2).

It is the optimal discrimination measurement for the symmetric family
of pure states |phi_k> = (|0> + e^{i phi_k} |1>)/sqrt(2) with
phi_k = 2*pi*k/M drawn with uniform prior 1/M.

outcome_distribution and guessing_probability take the trace of each
2x2 block as two additions, with the bits of np.trace (_real_traces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

DENSITY_TOL = 1e-10


def validate_outcome_count(m: int) -> int:
    """Check that an outcome count is a power of two, at least 2."""
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"outcome count must be an integer, got {m!r}")
    m = int(m)
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError(f"M must be a power of 2 with M >= 2, got {m}")
    return m


def _check_outcome_index(m: int, k):
    """Check that k, or each entry of an array k, is an integer in range(m); an int stays an int."""
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise ValueError(f"outcome index must be an integer, got {k!r}")
    bad = ks[(ks < 0) | (ks >= m)]
    if bad.size:
        raise ValueError(f"outcome index k={bad[0]} out of range for M={m}")
    return ks if ks.ndim else int(ks)


def wrap_phase(phi):
    """Wrap a float or an array into [0, 2*pi); a value that rounds up to 2*pi there is 0.

    A NaN or infinite phase is a ValueError that names it.
    """
    phi = np.asarray(phi, dtype=float)
    bad = phi[~np.isfinite(phi)]
    if bad.size:
        raise ValueError(f"phi must be finite, got {float(bad[0])}")
    w = np.remainder(phi, TWO_PI)
    w = np.where(w == TWO_PI, 0.0, w)
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the M outcomes, indexed by k; (S, M) for S states."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim not in (1, 2):
            raise ValueError(f"expected (M,) or (S, M) probabilities, got shape {p.shape}")
        object.__setattr__(self, "probabilities", p)

    @property
    def M(self) -> int:
        return self.probabilities.shape[-1]


@dataclass(frozen=True)
class PhasePovm:
    """The full element list of the M-outcome phase measurement.

    elements[k] is the 2x2 operator Pi_k; the list sums to the identity.
    """

    elements: np.ndarray  # shape (M, 2, 2)

    @property
    def M(self) -> int:
        return len(self.elements)


def psi_k(m: int, k) -> np.ndarray:
    """Unit vector along which element k of the measurement projects.

    Returns (e^{-i pi k/M}, e^{i pi k/M}) / sqrt(2); an array of S indices
    gives one vector per row, shape (S, 2).
    """
    m = validate_outcome_count(m)
    a = np.pi * _check_outcome_index(m, k) / m
    return np.stack([np.exp(-1j * a), np.exp(1j * a)], axis=-1) / np.sqrt(2.0)


def _outer(v: np.ndarray) -> np.ndarray:
    """|v><v| for a vector, or one per row of a stack."""
    return v[..., :, None] * v.conj()[..., None, :]


def povm_element(m: int, k) -> np.ndarray:
    """Measurement element Pi_k = (2/M) |psi_k><psi_k|; (S, 2, 2) for S indices."""
    return (2.0 / m) * _outer(psi_k(m, k))


def phase_povm(m: int) -> PhasePovm:
    """Build all M elements of the phase measurement."""
    m = validate_outcome_count(m)
    return PhasePovm(elements=povm_element(m, np.arange(m)))


def pure_phase_state(phi) -> np.ndarray:
    """Density matrix of (|0> + e^{i phi} |1>)/sqrt(2); (S, 2, 2) for S phases."""
    u = np.exp(1j * wrap_phase(phi))
    return _outer(np.stack([np.ones_like(u), u], axis=-1) / np.sqrt(2.0))


def validate_density(rho) -> np.ndarray:
    """Validate a 2x2 density matrix or (S, 2, 2) stack: Hermitian, unit trace, positive.

    Returns the states as a complex array; raises ValueError on any
    violation beyond DENSITY_TOL, worded as for that state alone.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (2, 2) or rho.size == 0:
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().swapaxes(-2, -1))) > DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if (abs(trace.real - 1.0) > DENSITY_TOL).any() or (abs(trace.imag) > DENSITY_TOL).any():
        raise ValueError("density matrix trace differs from 1")
    # the smallest eigenvalue of the Hermitian lower triangle in closed form,
    # the triangle eigvalsh reads by default; the halves are taken before
    # subtracting, so no step can overflow
    a, d = rho[..., 0, 0].real, rho[..., 1, 1].real
    smallest = 0.5 * (a + d) - np.hypot(0.5 * a - 0.5 * d, np.abs(rho[..., 1, 0]))
    if np.min(smallest) < -DENSITY_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def random_density(rng: np.random.Generator, pure: bool | None = None) -> np.ndarray:
    """Draw a random qubit state, pure or mixed.

    With ``pure=None`` the choice is itself random. Mixed states are
    G G† normalized for a complex Gaussian G, which samples full-rank
    states almost surely.
    """
    if pure is None:
        pure = bool(rng.integers(2))
    if pure:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        return _outer(v)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _real_traces(blocks: np.ndarray) -> np.ndarray:
    """Real part of the trace of each 2x2 block of a stack, as two additions.

    It has the bits of np.trace(blocks, axis1=-2, axis2=-1).real at a
    fraction of a reduction's cost. The sum starts from +0.0 as np.trace's
    does, so two -0.0 diagonal entries give +0.0.
    """
    return 0.0 + blocks[..., 0, 0].real + blocks[..., 1, 1].real


def outcome_distribution(povm: PhasePovm, rho) -> OutcomeDistribution:
    """Probabilities Tr[Pi_k rho] of every outcome k on a state or (S, 2, 2) stack."""
    rho = validate_density(rho)
    # one BLAS product of the 2M x 2 stacked elements with each state; the
    # trace of each 2x2 block of the result gives the bits of the per-element
    # product Pi_k @ rho, which an einsum does not
    blocks = povm.elements.reshape(2 * povm.M, 2) @ rho
    p = _real_traces(blocks.reshape(*rho.shape[:-2], povm.M, 2, 2))
    return OutcomeDistribution(probabilities=p)


def click_probabilities(v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(V rho V†)_kk for each row k of an M x 2 map V, on a validated state or (S, 2, 2) stack."""
    return np.einsum("ka,...ab,kb->...k", v, rho, v.conj()).real


def outcome_probability(povm: PhasePovm, k, rho):
    """Probability Tr[Pi_k rho] of recording outcome k on state rho.

    One index gives a float; an array of indices gives one probability
    per index, in an array of its shape.
    """
    k = _check_outcome_index(povm.M, k)
    p = outcome_distribution(povm, rho).probabilities[..., k]
    return p if p.ndim else float(p)


def analytic_phase_distribution(m: int, phi) -> OutcomeDistribution:
    """Closed-form outcome distribution for the pure input phase phi.

    P(k) = (1/M) (1 + cos(phi - 2*pi*k/M)); sums to 1 for every phi. An
    array of S phases gives one row per phase, shape (S, M). A NaN or
    infinite phase is a ValueError that names it (wrap_phase's).
    """
    m = validate_outcome_count(m)
    p = (1.0 + np.cos(np.expand_dims(wrap_phase(phi), -1) - TWO_PI * np.arange(m) / m)) / m
    return OutcomeDistribution(probabilities=p)


def guessing_probability(m: int) -> float:
    """Probability of correctly identifying which |phi_k> was sent.

    The M candidate states carry uniform prior 1/M and outcome k is
    read as the guess "state k", so the success probability is
    (1/M) * sum_k <phi_k| Pi_k |phi_k|>, which evaluates to 2/M.
    """
    m = validate_outcome_count(m)
    states = pure_phase_state(TWO_PI * np.arange(m) / m)
    p = _real_traces(phase_povm(m).elements @ states)
    # cumsum adds left to right; np.sum's pairwise order moves the last digit
    return float(np.cumsum(p)[-1]) / m
