"""Small dense complex linear-algebra kernel shared by the other modules.

Matrices and vectors are numpy arrays of complex128. Composite
ancilla-plus-qubit spaces always use ancilla-major ordering: basis index
2*a + s for ancilla level a and qubit level s, so the qubit index varies
fastest. Everything here is a pure function and safe to call from
multiple threads.
"""

from __future__ import annotations

import numpy as np

# Default tolerance for comparisons between computed quantities.
COMPARISON_TOL = 1e-10


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {m.shape}")
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose. An involution: adjoint(adjoint(a)) == a."""
    return _as_matrix(a).conj().T.copy()


def is_unitary(a, tol: float = COMPARISON_TOL) -> bool:
    """Check whether a square matrix is unitary within ``tol``.

    True iff the max-abs entries of both A†A - I and AA† - I are <= tol.
    Raises ValueError for non-square input rather than returning False,
    since that is a usage bug and not a numerical answer.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"is_unitary needs a square matrix, got shape {a.shape}")
    eye = np.eye(n)
    left = np.max(np.abs(a.conj().T @ a - eye))
    right = np.max(np.abs(a @ a.conj().T - eye))
    return bool(max(left, right) <= tol)


def rotate_rows(arr: np.ndarray, i: int, j: int, angle: float) -> None:
    """Apply [[cos, sin], [-sin, cos]] of ``angle`` to rows i, j in place.

    The one plane-rotation kernel (netlist evaluation, elimination, optical
    elements); O(row length) instead of an M x M product.
    """
    c, s = np.cos(angle), np.sin(angle)
    ri, rj = arr[i].copy(), arr[j].copy()
    arr[i] = c * ri + s * rj
    arr[j] = -s * ri + c * rj


def partial_trace_ancilla(p) -> np.ndarray:
    """Reduce an operator on the ancilla+qubit space to a qubit operator.

    The M-dimensional space is read as H_A (dim M/2) tensor H_S (dim 2)
    with the ancilla-major index convention 2*a + s, and the ancilla is
    taken in its first basis level |e1><e1|. Under that ordering the
    reduction Tr_A[P (|e1><e1| x I)] is exactly the top-left 2x2 block
    of P.

    Parameters
    ----------
    p : array_like
        Square matrix of even dimension M >= 2.

    Returns
    -------
    numpy.ndarray
        2x2 reduced operator.
    """
    p = _as_matrix(p)
    n, m = p.shape
    if n != m:
        raise ValueError(f"partial trace needs a square matrix, got shape {p.shape}")
    if n % 2 != 0:
        raise ValueError(f"dimension must be even to split off a qubit, got {n}")
    return p[:2, :2].copy()
