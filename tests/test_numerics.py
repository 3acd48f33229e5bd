"""Unit tests for the small dense linear-algebra kernel."""

import numpy as np
import pytest

from phasepovm.numerics import (
    adjoint,
    is_unitary,
    partial_trace_ancilla,
    rotate_rows,
)

SEED = 20240811


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
