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
mode pairs) and a generic elimination that left-multiplies a copy of Z
by rotations until the identity remains, so the copy it leaves is the
elimination netlist's own round trip EZ.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .naimark import ExtensionMatrix
from .numerics import gram_residuals, identity_gap, rotate_rows
from .povm import validate_outcome_count

# Largest unitarity residual of a matrix that decompose_by_elimination accepts.
COMPARISON_TOL = 1e-10

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
        if self.M < 1:
            raise ValueError(f"netlist mode count M must be >= 1, got M={self.M}")
        for e in self.elements:
            top = e.v if isinstance(e, GivensRotation) else e.u
            if top > self.M:
                raise ValueError(f"element {e} exceeds mode count M={self.M}")
        object.__setattr__(self, "elements", tuple(self.elements))


# W(1,2,pi/4) then S(2,pi/2): makes the top two rows of Z real.
BOOTSTRAP = (GivensRotation(1, 2, float(np.pi / 4)), PhaseShift(2, float(np.pi / 2)))


def _apply_element(a: np.ndarray, e: NetlistElement) -> None:
    """Left-multiply ``a`` by one element in place; Netlist and apply_netlist check the range."""
    if isinstance(e, GivensRotation):
        rotate_rows(a, e.u - 1, e.v - 1, e.omega)
    elif isinstance(e, PhaseShift):
        a[e.u - 1] *= np.exp(-1j * e.phi)


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


def _matrix(z) -> np.ndarray:
    """The complex array of an ExtensionMatrix or of a plain array."""
    return np.asarray(z.Z if isinstance(z, ExtensionMatrix) else z, dtype=complex)


def eliminate(z) -> tuple[Netlist, float]:
    """Factorize a unitary by eliminating it down to the identity.

    Accepts an ExtensionMatrix or a plain square array. If the
    top two rows carry imaginary parts, the fixed bootstrap pair
    W(1,2,pi/4) then S(2,pi/2) makes them real. Afterwards the
    below-diagonal entries are zeroed in the block schedule
    (2k+3,2k+1), (2k+4,2k+2), (2k+4,2k+3) for k = 0..M/2-2, each by a
    rotation whose angle atan2(lower, diagonal) also leaves the pivot
    positive. Entries at or below PIVOT_TOL emit nothing. The
    emitted list, in the order applied, is the application-order netlist
    of the adjoint.

    Returns that netlist and the max-abs entry of the swept copy of Z
    minus the identity. That is the netlist's own round trip EZ - I, with
    the bits of identity_gap(apply_netlist(netlist, z.copy())), since
    every column gets the same arithmetic. It raises only for a shape
    that is not square, even and >= 2; decompose_by_elimination judges.
    """
    z = _matrix(z)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {z.shape}")
    m = z.shape[0]
    if m < 2 or m % 2 != 0:
        raise ValueError(f"mode count must be even and >= 2, got {m}")

    a = z.copy()
    elements: list[NetlistElement] = []
    if np.max(np.abs(a[:2].imag)) > PIVOT_TOL:
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
            if abs(lower) <= PIVOT_TOL:
                continue
            omega = float(np.arctan2(lower.real, a[u - 1, col - 1].real))
            g = GivensRotation(u, v, omega)
            _apply_element(a, g)
            elements.append(g)

    return Netlist(M=m, elements=tuple(elements)), identity_gap(a)


def decompose_by_elimination(z) -> Netlist:
    """The netlist of eliminate(z), once it passes both judgments.

    ValueError for a bad shape, or for unitarity above COMPARISON_TOL in
    numerics.gram_residuals; RuntimeError, with the residual, for an
    identity miss above ELIMINATION_RESIDUAL_TOL.
    """
    z = _matrix(z)
    net, residual = eliminate(z)
    # a NaN residual must fail, so test "<=" rather than ">"
    if not gram_residuals(z)["unitarity"] <= COMPARISON_TOL:
        raise ValueError(f"input matrix is not unitary within {COMPARISON_TOL}")
    if not residual <= ELIMINATION_RESIDUAL_TOL:
        raise RuntimeError(
            f"elimination did not reach the identity, residual {residual:.3e}"
        )
    return net


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


# Each netlist JSON kind: its element type and typed fields, in argument order
_JSON_ELEMENTS = {
    "givens": (GivensRotation, (("u", int), ("v", int), ("omega", float))),
    "phase": (PhaseShift, (("u", int), ("phi", float))),
}


def netlist_to_json_dict(n: Netlist) -> dict:
    """The interchange schema that ``compile`` writes and ``netlist_from_json_dict`` reads."""
    kinds = {cls: (kind, fields) for kind, (cls, fields) in _JSON_ELEMENTS.items()}
    elements = []
    for e in n.elements:
        kind, fields = kinds[type(e)]
        elements.append({"kind": kind, **{key: t(getattr(e, key)) for key, t in fields}})
    return {"M": n.M, "elements": elements}


def is_json_number(value) -> bool:
    """True iff a parsed JSON value is a number, not a bool, that fits a finite float64."""
    return isinstance(value, Real) and type(value) is not bool and abs(value) <= sys.float_info.max


def _json_field(obj: dict, key: str, kind: type, index: int | None = None) -> int | float:
    """obj[key] as a JSON number (see is_json_number), and an integral one for an int.

    ``index`` is the element's position, or None for the netlist itself;
    the error message names it, and is built only on failure.
    """
    value = obj.get(key)
    if not (is_json_number(value) and (kind is float or isinstance(value, Integral))):
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
