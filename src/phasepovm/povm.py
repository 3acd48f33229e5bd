"""Symmetric M-outcome phase measurement on a single qubit.

The measurement has M = 2^N rank-one elements pointing at equally
spaced phases 2*pi*k/M on the equator of the Bloch sphere,

    Pi_k = (2/M) |psi_k><psi_k|,
    |psi_k> = (e^{-i pi k/M} |0> + e^{i pi k/M} |1>) / sqrt(2).

It is the optimal discrimination measurement for the symmetric family
of pure states |phi_k> = (|0> + e^{i phi_k} |1>)/sqrt(2) with
phi_k = 2*pi*k/M drawn with uniform prior 1/M.
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


def _check_outcome_index(m: int, k: int) -> int:
    k = int(k)
    if not 0 <= k < m:
        raise ValueError(f"outcome index k={k} out of range for M={m}")
    return k


def wrap_phase(phi: float) -> float:
    """Wrap a phase into [0, 2*pi)."""
    return float(phi) % TWO_PI


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the M outcomes, indexed by k; (S, M) for S states."""

    M: int
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.M:
            raise ValueError(f"expected {self.M} probabilities, got shape {p.shape}")
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True)
class PhasePovm:
    """The full element list of the M-outcome phase measurement.

    elements[k] is the 2x2 operator Pi_k; the list sums to the identity.
    """

    M: int
    elements: np.ndarray  # shape (M, 2, 2)


def psi_k(m: int, k: int) -> np.ndarray:
    """Unit vector along which element k of the measurement projects.

    Returns (e^{-i pi k/M}, e^{i pi k/M}) / sqrt(2).
    """
    m = validate_outcome_count(m)
    k = _check_outcome_index(m, k)
    a = np.pi * k / m
    return np.array([np.exp(-1j * a), np.exp(1j * a)]) / np.sqrt(2.0)


def povm_element(m: int, k: int) -> np.ndarray:
    """Measurement element Pi_k = (2/M) |psi_k><psi_k|."""
    v = psi_k(m, k)
    return (2.0 / m) * np.outer(v, v.conj())


def phase_povm(m: int) -> PhasePovm:
    """Build all M elements of the phase measurement."""
    m = validate_outcome_count(m)
    a = np.pi * np.arange(m) / m
    v = np.stack([np.exp(-1j * a), np.exp(1j * a)], axis=1) / np.sqrt(2.0)
    elements = (2.0 / m) * (v[:, :, None] * v.conj()[:, None, :])
    return PhasePovm(M=m, elements=elements)


def pure_phase_state(phi: float) -> np.ndarray:
    """Density matrix of (|0> + e^{i phi} |1>)/sqrt(2)."""
    v = np.array([1.0, np.exp(1j * wrap_phase(phi))]) / np.sqrt(2.0)
    return np.outer(v, v.conj())


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
    if np.min(np.linalg.eigvalsh(rho)) < -DENSITY_TOL:
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
        return np.outer(v, v.conj())
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def outcome_distribution(povm: PhasePovm, rho) -> OutcomeDistribution:
    """Probabilities Tr[Pi_k rho] of every outcome k on a state or (S, 2, 2) stack."""
    rho = validate_density(rho)
    # one BLAS product of the 2M x 2 stacked elements with each state; the
    # trace of each 2x2 block of the result gives the bits of the per-element
    # product Pi_k @ rho, which an einsum does not
    blocks = povm.elements.reshape(2 * povm.M, 2) @ rho
    blocks = blocks.reshape(*rho.shape[:-2], povm.M, 2, 2)
    p = np.trace(blocks, axis1=-2, axis2=-1).real
    return OutcomeDistribution(M=povm.M, probabilities=p)


def outcome_probability(povm: PhasePovm, k: int, rho) -> float:
    """Probability Tr[Pi_k rho] of recording outcome k on state rho."""
    k = _check_outcome_index(povm.M, k)
    return float(outcome_distribution(povm, rho).probabilities[k])


def analytic_phase_table(m: int, phis) -> np.ndarray:
    """Closed-form P(k | phi) for every phase in ``phis``, one row per phase.

    Row i is (1/M) (1 + cos(wrap(phis[i]) - 2*pi*k/M)) for k = 0..M-1,
    the same elementwise arithmetic as analytic_phase_distribution.
    """
    m = validate_outcome_count(m)
    phis = np.remainder(np.asarray(phis, dtype=float), TWO_PI)
    k = np.arange(m)
    return (1.0 + np.cos(phis[:, None] - TWO_PI * k / m)) / m


def analytic_phase_distribution(m: int, phi: float) -> OutcomeDistribution:
    """Closed-form outcome distribution for the pure input phase phi.

    P(k) = (1/M) (1 + cos(phi - 2*pi*k/M)); sums to 1 for every phi.
    """
    m = validate_outcome_count(m)
    p = analytic_phase_table(m, [wrap_phase(phi)])[0]
    return OutcomeDistribution(M=m, probabilities=p)


def guessing_probability(m: int) -> float:
    """Probability of correctly identifying which |phi_k> was sent.

    The M candidate states carry uniform prior 1/M and outcome k is
    read as the guess "state k", so the success probability is
    (1/M) * sum_k <phi_k| Pi_k |phi_k|>, which evaluates to 2/M.
    """
    m = validate_outcome_count(m)
    u = np.exp(1j * (TWO_PI * np.arange(m) / m))
    v = np.stack([np.ones(m), u], axis=1) / np.sqrt(2.0)
    states = v[:, :, None] * v.conj()[:, None, :]
    p = np.trace(phase_povm(m).elements @ states, axis1=1, axis2=2).real
    # cumsum adds left to right; np.sum's pairwise order moves the last digit
    return float(np.cumsum(p)[-1]) / m
