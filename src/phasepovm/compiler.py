"""Factorization of the extension unitary into Givens rotations.

The adjoint of the extension matrix Z is written as an ordered product
of real plane rotations W(u, v, omega) and single-mode phase shifts
S(u, phi) = diag(..., e^{-i phi}, ...). Netlists store the factors in
APPLICATION order: the first element acts first on the input vector, so

    evaluate_netlist([e1, e2, ..., en]) = En @ ... @ E2 @ E1.

Two routes produce the same netlist for extension matrices: a closed
form (one bootstrap pair followed by rotation triplets on neighbouring
mode pairs) and a generic elimination that left-multiplies Z by
rotations until the identity remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .naimark import ExtensionMatrix
from .numerics import COMPARISON_TOL, is_unitary, rotate_rows
from .povm import validate_outcome_count

# Entries at or below this magnitude count as already eliminated and
# emit no rotation.
PIVOT_TOL = 1e-12

# Max-abs deviation from the identity tolerated after elimination.
ELIMINATION_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class GivensRotation:
    """Plane rotation by omega acting on modes u < v (1-based)."""

    u: int
    v: int
    omega: float

    def __post_init__(self):
        if not (1 <= self.u < self.v):
            raise ValueError(f"need 1 <= u < v, got u={self.u}, v={self.v}")


@dataclass(frozen=True)
class PhaseShift:
    """Phase shift by e^{-i phi} on mode u (1-based)."""

    u: int
    phi: float

    def __post_init__(self):
        if self.u < 1:
            raise ValueError(f"mode index must be >= 1, got u={self.u}")


NetlistElement = GivensRotation | PhaseShift


@dataclass(frozen=True)
class Netlist:
    """Ordered element list over M modes, in application order."""

    M: int
    elements: tuple[NetlistElement, ...]

    def __post_init__(self):
        for e in self.elements:
            top = e.v if isinstance(e, GivensRotation) else e.u
            if top > self.M:
                raise ValueError(f"element {e} exceeds mode count M={self.M}")
        object.__setattr__(self, "elements", tuple(self.elements))


# W(1,2,pi/4) then S(2,pi/2): makes the top two rows of Z real.
BOOTSTRAP = (GivensRotation(1, 2, float(np.pi / 4)), PhaseShift(2, float(np.pi / 2)))


def _apply_element(a: np.ndarray, e: NetlistElement) -> None:
    """Left-multiply ``a`` by one netlist element, in place on its rows."""
    if isinstance(e, GivensRotation) and e.v <= len(a):
        rotate_rows(a, e.u - 1, e.v - 1, e.omega)
    elif isinstance(e, PhaseShift) and e.u <= len(a):
        a[e.u - 1] *= np.exp(-1j * e.phi)
    else:
        raise ValueError(f"element {e!r} out of range for M={len(a)}")


def givens_matrix(m: int, g: GivensRotation) -> np.ndarray:
    """Embed a plane rotation into an M x M identity.

    Rows and columns u, v carry [[cos w, sin w], [-sin w, cos w]]; the
    result is real orthogonal with determinant +1.
    """
    a = np.eye(m, dtype=complex)
    _apply_element(a, g)
    return a


def phase_matrix(m: int, s: PhaseShift) -> np.ndarray:
    """Embed a single-mode phase shift into an M x M identity."""
    a = np.eye(m, dtype=complex)
    _apply_element(a, s)
    return a


def triplet_angle(m: int, k: int) -> float:
    """Mixing angle of block k: arctan sqrt((M - 2 - 2k)/2)."""
    return float(np.arctan(np.sqrt((m - 2 - 2 * k) / 2.0)))


def decompose_closed(m: int) -> Netlist:
    """Closed-form netlist realizing Z† for the extension of size M.

    Application order: W(1,2,pi/4), S(2,pi/2), then for each block
    k = 0..M/2-2 the triplet W(2k+1,2k+3,theta_k), W(2k+2,2k+4,theta_k),
    W(2k+3,2k+4,pi+pi/M) with theta_k = arctan sqrt((M-2-2k)/2).
    Total element count: 2 + 3(M/2 - 1).
    """
    m = validate_outcome_count(m)
    elements: list[NetlistElement] = list(BOOTSTRAP)
    for k in range(m // 2 - 1):
        theta = triplet_angle(m, k)
        elements.append(GivensRotation(2 * k + 1, 2 * k + 3, theta))
        elements.append(GivensRotation(2 * k + 2, 2 * k + 4, theta))
        elements.append(GivensRotation(2 * k + 3, 2 * k + 4, float(np.pi + np.pi / m)))
    return Netlist(M=m, elements=tuple(elements))


def evaluate_netlist(n: Netlist) -> np.ndarray:
    """Total transfer matrix of a netlist (last element leftmost)."""
    a = np.eye(n.M, dtype=complex)
    for e in n.elements:
        _apply_element(a, e)
    return a


def decompose_by_elimination(
    z,
    pivot_tol: float = PIVOT_TOL,
    residual_tol: float = ELIMINATION_RESIDUAL_TOL,
) -> Netlist:
    """Factorize a unitary by eliminating it down to the identity.

    Accepts an ExtensionMatrix or a plain square unitary array. If the
    top two rows carry imaginary parts, the fixed bootstrap pair
    W(1,2,pi/4) then S(2,pi/2) makes them real. Afterwards the
    below-diagonal entries are zeroed in the block schedule
    (2k+3,2k+1), (2k+4,2k+2), (2k+4,2k+3) for k = 0..M/2-2, each by a
    rotation whose angle atan2(lower, diagonal) also leaves the pivot
    positive. Entries already below ``pivot_tol`` emit nothing. The
    emitted list, in the order applied, is the application-order netlist
    of the adjoint.

    Raises ValueError for non-unitary input and RuntimeError (carrying
    the residual) if the schedule does not reach the identity, which
    happens for unitaries outside the extension family.
    """
    if isinstance(z, ExtensionMatrix):
        z = z.Z
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    m = z.shape[0]
    if m < 2 or m % 2 != 0:
        raise ValueError(f"mode count must be even and >= 2, got {m}")
    if not is_unitary(z):
        raise ValueError(f"input matrix is not unitary within {COMPARISON_TOL}")

    a = z.copy()
    elements: list[NetlistElement] = []
    if np.max(np.abs(a[:2, :].imag)) > pivot_tol:
        elements += BOOTSTRAP
        for e in BOOTSTRAP:
            _apply_element(a, e)

    for k in range(m // 2 - 1):
        schedule = (
            (2 * k + 1, 2 * k + 3, 2 * k + 1),
            (2 * k + 2, 2 * k + 4, 2 * k + 2),
            (2 * k + 3, 2 * k + 4, 2 * k + 3),
        )
        for u, v, col in schedule:
            lower = a[v - 1, col - 1]
            if abs(lower) <= pivot_tol:
                continue
            omega = float(np.arctan2(lower.real, a[u - 1, col - 1].real))
            g = GivensRotation(u, v, omega)
            _apply_element(a, g)
            elements.append(g)

    residual = float(np.max(np.abs(a - np.eye(m))))
    if not residual <= residual_tol:
        raise RuntimeError(
            f"elimination did not reach the identity, residual {residual:.3e}"
        )
    return Netlist(M=m, elements=tuple(elements))


def canonical_angle(a: float) -> float:
    """Map an angle into (-pi, pi]."""
    c = (float(a) + np.pi) % (2.0 * np.pi) - np.pi
    if c == -np.pi:
        c = np.pi
    return float(c)


def netlists_equal(a: Netlist, b: Netlist, tol: float = 1e-10) -> bool:
    """Element-for-element equality with angles compared mod 2*pi.

    A NaN angle never compares equal. ``tol`` must be finite and >= 0.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    if a.M != b.M or len(a.elements) != len(b.elements):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if type(ea) is not type(eb):
            return False
        if isinstance(ea, GivensRotation):
            if (ea.u, ea.v) != (eb.u, eb.v):
                return False
            da = canonical_angle(ea.omega - eb.omega)
        else:
            if ea.u != eb.u:
                return False
            da = canonical_angle(ea.phi - eb.phi)
        if not abs(da) <= tol:
            return False
    return True


def netlist_to_json_dict(n: Netlist) -> dict:
    """The interchange schema consumed by the optics simulator and CLI."""
    elements = []
    for e in n.elements:
        if isinstance(e, GivensRotation):
            elements.append(
                {"kind": "givens", "u": e.u, "v": e.v, "omega": float(e.omega)}
            )
        else:
            elements.append({"kind": "phase", "u": e.u, "phi": float(e.phi)})
    return {"M": n.M, "elements": elements}


def netlist_from_json_dict(d: dict) -> Netlist:
    m = int(d["M"])
    elements: list[NetlistElement] = []
    for entry in d["elements"]:
        kind = entry.get("kind")
        if kind == "givens":
            elements.append(
                GivensRotation(int(entry["u"]), int(entry["v"]), float(entry["omega"]))
            )
        elif kind == "phase":
            elements.append(PhaseShift(int(entry["u"]), float(entry["phi"])))
        else:
            raise ValueError(f"unknown netlist element kind: {kind!r}")
    return Netlist(M=m, elements=tuple(elements))
