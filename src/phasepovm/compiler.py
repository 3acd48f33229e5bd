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
elimination netlist's own round trip EZ. That copy is also a
certificate: E is unitary, so the size of EZ - I bounds Z†Z - I and
ZZ† - I without forming either product (see eliminate).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .naimark import ExtensionMatrix
from .numerics import identity_gap, rotate_rows, squared_column_norms
from .povm import validate_outcome_count

# Largest unitarity bound, from eliminate's sweep, of a matrix that
# decompose_by_elimination accepts; the bound is at least twice the sweep's
# identity miss, so an accepted sweep misses the identity by at most half of it.
COMPARISON_TOL = 1e-10

# Entries at or below this magnitude count as already eliminated and
# emit no rotation.
PIVOT_TOL = 1e-12


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


def _block_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """Mode pairs (u, v) of block k's three rotations, in application order."""
    return (2 * k + 1, 2 * k + 3), (2 * k + 2, 2 * k + 4), (2 * k + 3, 2 * k + 4)


def decompose_closed(m: int) -> Netlist:
    """Closed-form netlist realizing Z† for the extension of size M.

    Application order: W(1,2,pi/4), S(2,pi/2), then for each block
    k = 0..M/2-2 one rotation on each mode pair of _block_pairs(k), by
    theta_k = arctan sqrt((M-2-2k)/2), theta_k and pi+pi/M in turn.
    Total element count: 2 + 3(M/2 - 1).
    """
    m = validate_outcome_count(m)
    elements: list[NetlistElement] = list(BOOTSTRAP)
    turn = float(np.pi + np.pi / m)
    for k in range(m // 2 - 1):
        theta = triplet_angle(m, k)
        (u1, v1), (u2, v2), (u3, v3) = _block_pairs(k)
        elements.append(GivensRotation(u1, v1, theta))
        elements.append(GivensRotation(u2, v2, theta))
        elements.append(GivensRotation(u3, v3, turn))
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


def eliminate(z) -> tuple[Netlist, float, float]:
    """Factorize a unitary by eliminating it down to the identity.

    Accepts an ExtensionMatrix or a plain square array. If the
    top two rows carry imaginary parts, the fixed bootstrap pair
    W(1,2,pi/4) then S(2,pi/2) makes them real. Afterwards the
    below-diagonal entries are zeroed in the block schedule: for
    k = 0..M/2-2 and each pair (u, v) of _block_pairs(k), entry (v, u)
    against the pivot (u, u), by a rotation whose angle atan2(lower,
    pivot) also leaves the pivot positive. Entries at or below PIVOT_TOL
    emit nothing. The emitted list, in the order applied, is the
    application-order netlist of the adjoint.

    Returns (netlist, residual, bound). The swept copy of Z holds
    F = EZ - I, the netlist's own round trip, and residual is its max-abs
    entry, with the bits of identity_gap(apply_netlist(netlist, z.copy())),
    since every column gets the same arithmetic.

    bound certifies unitarity in O(M^2). For E exact and G = EZ - I,
    Z†Z - I = G + G† + G†G and ZZ† - I = E†(G + G† + GG†)E, so every entry
    of either is at most 2g + g² for any g >= ||G||_2. The sweep measures
    f = ||F||_F through numerics.squared_column_norms. Each element changes
    only the two rows it touches, by at most gamma_6 of their norm, about
    1 here (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    §19.6, Lemma 19.8), and no row of the schedule is touched by more than
    t = 3 elements. So the rounding term is

        rho = t gamma_6,  gamma_k = k u / (1 - k u),  u = 2^-53,

    about 2.0e-15, and with g = f + rho

        bound = 2g + g² = 2f + f² + r,  r = (2 + 2f + rho) rho.

    Rounding that a rotation carries on along the chain of rows shows in
    the measured F itself. bound >= 2 residual always; a NaN entry gives a
    NaN bound, and an F beyond the float64 range an infinite one, without
    a RuntimeWarning. It raises only for a shape that is not square, even
    and >= 2; decompose_by_elimination judges.
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
        for u, v in _block_pairs(k):
            lower = a[v - 1, u - 1]
            if abs(lower) <= PIVOT_TOL:
                continue
            omega = float(np.arctan2(lower.real, a[u - 1, u - 1].real))
            g = GivensRotation(u, v, omega)
            _apply_element(a, g)
            elements.append(g)

    residual = identity_gap(a)  # a now holds F
    gamma_6 = 6 * 2.0**-53 / (1 - 6 * 2.0**-53)
    # g = f + rho as a Python float, whose square overflows to inf without a RuntimeWarning
    gap = float(np.sqrt(np.add.reduce(squared_column_norms(a)))) + 3 * gamma_6
    return Netlist(M=m, elements=tuple(elements)), residual, 2.0 * gap + gap * gap


def decompose_by_elimination(z) -> Netlist:
    """The netlist of eliminate(z), once its bound certifies z unitary.

    ValueError for a bad shape, or for a bound above COMPARISON_TOL; that
    includes a unitary matrix outside the elimination schedule, which the
    sweep cannot bring to the identity.
    """
    net, _, bound = eliminate(z)
    # a NaN bound must fail, so test "<=" rather than ">"
    if not bound <= COMPARISON_TOL:
        raise ValueError(f"input matrix is not unitary within {COMPARISON_TOL}")
    return net


def canonical_angle(a: float) -> float:
    """Map an angle into (-pi, pi]."""
    c = (float(a) + np.pi) % (2.0 * np.pi) - np.pi
    if c == -np.pi:
        c = np.pi
    return float(c)


# Each netlist JSON kind: its element type and typed fields, in argument order;
# _ELEMENT_FIELDS is the same table keyed by element type
_JSON_ELEMENTS = {
    "givens": (GivensRotation, (("u", int), ("v", int), ("omega", float))),
    "phase": (PhaseShift, (("u", int), ("phi", float))),
}
_ELEMENT_FIELDS = {cls: (kind, fields) for kind, (cls, fields) in _JSON_ELEMENTS.items()}


def netlists_equal(a: Netlist, b: Netlist, tol: float = 1e-10) -> bool:
    """Element-for-element equality: int fields exactly, float fields (angles) mod 2*pi.

    A NaN angle never compares equal. ``tol`` must be finite and >= 0.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    if a.M != b.M or len(a.elements) != len(b.elements):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if type(ea) is not type(eb):
            return False
        for key, t in _ELEMENT_FIELDS[type(ea)][1]:
            x, y = getattr(ea, key), getattr(eb, key)
            if not (x == y if t is int else abs(canonical_angle(x - y)) <= tol):
                return False
    return True


def netlist_to_json_dict(n: Netlist) -> dict:
    """The interchange schema that ``compile`` writes and ``netlist_from_json_dict`` reads."""
    elements = []
    for e in n.elements:
        kind, fields = _ELEMENT_FIELDS[type(e)]
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
