"""Factorization of the extension unitary into Givens rotations.

The adjoint of the extension matrix Z is written as an ordered product
of real plane rotations W(u, v, omega) and single-mode phase shifts
S(u, phi) = diag(..., e^{-i phi}, ...). Netlists store the factors in
APPLICATION order: the first element acts first on the input vector, so

    evaluate_netlist([e1, e2, ..., en]) = En @ ... @ E2 @ E1,

and apply_netlist(net, a) left-multiplies ``a`` by that product in
place, one element at a time, without forming it.

Two routes produce the same netlist for extension matrices: a closed
form (one bootstrap pair followed by rotation triplets on neighbouring
mode pairs) and a generic elimination that left-multiplies Z by
rotations until the identity remains, and carries the identity along
to give the elimination netlist's transfer matrix in the same sweep.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .naimark import ExtensionMatrix
from .numerics import COMPARISON_TOL, gram_residuals, rotate_rows
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


def apply_netlist(n: Netlist, a: np.ndarray) -> np.ndarray:
    """Left-multiply ``a`` by the netlist's transfer matrix, in place.

    ``a`` is a complex array with M rows (or M entries) and any number
    of columns; each element costs O(columns). Returns ``a``.
    """
    if a.dtype != complex or len(a) != n.M:
        raise ValueError(
            f"need a complex array with {n.M} rows, got {a.dtype} of shape {a.shape}"
        )
    for e in n.elements:
        _apply_element(a, e)
    return a


def evaluate_netlist(n: Netlist) -> np.ndarray:
    """Total transfer matrix of a netlist (last element leftmost)."""
    return apply_netlist(n, np.eye(n.M, dtype=complex))


def eliminate(z) -> tuple[Netlist, np.ndarray]:
    """Factorize a unitary by eliminating it down to the identity.

    Accepts an ExtensionMatrix or a plain square unitary array. If the
    top two rows carry imaginary parts, the fixed bootstrap pair
    W(1,2,pi/4) then S(2,pi/2) makes them real. Afterwards the
    below-diagonal entries are zeroed in the block schedule
    (2k+3,2k+1), (2k+4,2k+2), (2k+4,2k+3) for k = 0..M/2-2, each by a
    rotation whose angle atan2(lower, diagonal) also leaves the pivot
    positive. Entries at or below PIVOT_TOL emit nothing. The
    emitted list, in the order applied, is the application-order netlist
    of the adjoint.

    Returns that netlist and its transfer matrix. The rotations sweep
    [Z | I] once, and every column takes the same arithmetic, so the
    right half ends as evaluate_netlist(netlist), bit for bit, without
    a second pass.

    Unitarity is judged at COMPARISON_TOL on numerics.gram_residuals, the
    copy an ExtensionMatrix caches or one formed from a plain array. Raises
    ValueError for non-unitary input and RuntimeError (carrying the
    residual) if the schedule does not reach the identity, which happens
    for unitaries outside the extension family.
    """
    ext = z if isinstance(z, ExtensionMatrix) else None
    z = np.asarray(z if ext is None else ext.Z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    m = z.shape[0]
    if m < 2 or m % 2 != 0:
        raise ValueError(f"mode count must be even and >= 2, got {m}")
    # a NaN residual must fail, so test "<=" rather than ">"
    residuals = gram_residuals(z) if ext is None else ext.gram_residuals
    if not residuals["unitarity"] <= COMPARISON_TOL:
        raise ValueError(f"input matrix is not unitary within {COMPARISON_TOL}")

    a = np.hstack([z, np.eye(m)])
    left = a[:, :m]
    elements: list[NetlistElement] = []
    if np.max(np.abs(left[:2].imag)) > PIVOT_TOL:
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
            lower = left[v - 1, col - 1]
            if abs(lower) <= PIVOT_TOL:
                continue
            omega = float(np.arctan2(lower.real, left[u - 1, col - 1].real))
            g = GivensRotation(u, v, omega)
            _apply_element(a, g)
            elements.append(g)

    # in place: [Z | I] is the largest array alive here
    left[np.diag_indices(m)] -= 1.0
    residual = float(np.max(np.abs(left)))
    if not residual <= ELIMINATION_RESIDUAL_TOL:
        raise RuntimeError(
            f"elimination did not reach the identity, residual {residual:.3e}"
        )
    return Netlist(M=m, elements=tuple(elements)), a[:, m:].copy()


def decompose_by_elimination(z) -> Netlist:
    """The netlist of eliminate(z), which documents the algorithm and its errors."""
    return eliminate(z)[0]


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
    """The interchange schema that ``compile`` writes and ``netlist_from_json_dict`` reads."""
    elements = []
    for e in n.elements:
        if isinstance(e, GivensRotation):
            elements.append(
                {"kind": "givens", "u": e.u, "v": e.v, "omega": float(e.omega)}
            )
        else:
            elements.append({"kind": "phase", "u": e.u, "phi": float(e.phi)})
    return {"M": n.M, "elements": elements}


# Each netlist JSON kind: its element type and typed fields, in argument order
_JSON_ELEMENTS = {
    "givens": (GivensRotation, (("u", int), ("v", int), ("omega", float))),
    "phase": (PhaseShift, (("u", int), ("phi", float))),
}


def _json_field(obj: dict, key: str, kind: type, index: int | None = None) -> int | float:
    """obj[key] as an int (no bool), or as a real that fits a finite float64 (no NaN).

    ``index`` is the element's position, or None for the netlist itself;
    the error message names it, and is built only on failure.
    """
    value = obj.get(key)
    ok = isinstance(value, Integral if kind is int else Real) and not isinstance(value, bool)
    if not ok or (kind is float and not abs(value) <= sys.float_info.max):
        where = "netlist" if index is None else f"netlist element {index} {obj!r}"
        raise ValueError(f"{where}: needs a finite {kind.__name__} {key!r}, got {value!r}")
    return kind(value)


def netlist_from_json_dict(d: dict) -> Netlist:
    """Parse the interchange schema; ValueError names any malformed entry."""
    if not isinstance(d, dict) or not isinstance(d.get("elements"), list):
        raise ValueError("netlist must be an object with an 'elements' list")
    elements: list[NetlistElement] = []
    for i, entry in enumerate(d["elements"]):
        if not isinstance(entry, dict) or entry.get("kind") not in _JSON_ELEMENTS:
            raise ValueError(
                f"netlist element {i} {entry!r}: not an object of kind 'givens' or 'phase'"
            )
        cls, fields = _JSON_ELEMENTS[entry["kind"]]
        elements.append(cls(*(_json_field(entry, k, t, i) for k, t in fields)))
    return Netlist(M=_json_field(d, "M", int), elements=tuple(elements))
