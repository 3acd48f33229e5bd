"""Single-photon interferometer simulation of the phase measurement.

The photon lives in polarization-resolved spatial modes: path m carries
an H slot at vector index 2m-1 and a V slot at index 2m (1-based), and
a state is the list of creation-operator coefficients over those slots.
Each element lowers to netlist elements on netlist modes mode_index + 1:
a polarization rotation to W(H, V), a waveplate to S(V), a PPBS to
W(H_a, H_b) then W(V_a, V_b), and a detector to nothing (a PBS is the
PPBS at angles (0, pi/2)). Scheme.isometry runs the direct layout's
lowered netlist on the two input modes in Python complex scalars, with
the bits compiler.apply_netlist gives on them; apply_element runs one
element through apply_netlist. The folded layout keeps its own slot
loop as the independent cross-check.

Two layouts realize the M-outcome measurement:

* the direct scheme, a chain of M/2 - 1 modular blocks, each tapping a
  beam splitter output into a polarizing splitter and a detector pair
  while the other output continues through a polarization rotation, and
* the folded scheme, one such block in a loop with a time-varying beam
  splitter, reading the outcome from the polarization and the time slot
  of the click.

Both reproduce the qubit POVM statistics exactly; a click on the H
detector of block k means outcome k, on the V detector outcome k + M/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import GivensRotation, Netlist, PhaseShift, apply_netlist, triplet_angle
from .povm import OutcomeDistribution, click_probabilities, validate_density, validate_outcome_count

NORM_TOL = 1e-12


def mode_index(path: int, polarization: str) -> int:
    """0-based amplitude slot of (path, polarization), paths 1-based."""
    if polarization not in ("H", "V"):
        raise ValueError(f"polarization must be 'H' or 'V', got {polarization!r}")
    if path < 1:
        raise ValueError(f"path index must be >= 1, got {path}")
    return 2 * (path - 1) + (0 if polarization == "H" else 1)


@dataclass(frozen=True)
class ModeAmplitudes:
    """Creation-operator coefficients over 2*paths polarization modes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).copy()
        if a.ndim != 1 or len(a) < 2 or len(a) % 2 != 0:
            raise ValueError(
                f"amplitudes must have even length >= 2, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes contain non-finite entries")
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if norm_sq > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {norm_sq} exceeds 1")
        object.__setattr__(self, "amplitudes", a)

    @property
    def paths(self) -> int:
        return len(self.amplitudes) // 2


@dataclass(frozen=True)
class PolarizationRotation:
    """Rotation of the polarization plane by ``angle`` on one path."""

    path: int
    angle: float


@dataclass(frozen=True)
class WaveplatePhase:
    """Waveplate applying e^{-i phase} to the V slot of one path."""

    path: int
    phase: float


@dataclass(frozen=True)
class PPBS:
    """Partially polarizing beam splitter between two paths.

    H slots mix with angle ``angle_h`` and V slots with ``angle_v``; the
    path_a slots take the (cos, sin) row of each rotation. Equal angles
    give an ordinary beam splitter.
    """

    path_a: int
    path_b: int
    angle_h: float
    angle_v: float

    def __post_init__(self):
        if self.path_a == self.path_b:
            raise ValueError("PPBS needs two distinct paths")


def beam_splitter(path_a: int, path_b: int, angle: float) -> PPBS:
    """Polarization-independent beam splitter."""
    return PPBS(path_a, path_b, angle, angle)


def PBS(path_a: int, path_b: int) -> PPBS:
    """Polarizing beam splitter: transmits H, moves V across paths.

    The limiting PPBS with angle_h = 0, angle_v = pi/2; V of path_b
    lands on path_a with a plus sign, V of path_a on path_b with a
    minus sign.
    """
    return PPBS(path_a, path_b, 0.0, np.pi / 2)


@dataclass(frozen=True)
class Detector:
    """Readout marker assigning an outcome to one (path, polarization)."""

    path: int
    polarization: str
    outcome: int


OpticalElement = PolarizationRotation | WaveplatePhase | PPBS | Detector


def _rotation(u: int, v: int, angle: float) -> GivensRotation:
    """Rotate netlist modes (u, v) by angle; for u > v that is W(v, u, -angle)."""
    if u < v:
        return GivensRotation(u, v, angle)
    return GivensRotation(v, u, -angle)


def _lower(e: OpticalElement, paths: int) -> tuple[GivensRotation | PhaseShift, ...]:
    """Netlist elements of one element on ``paths`` paths, as the module docstring lists.

    Path p has its H slot on netlist mode 2p - 1 and its V slot on 2p
    (mode_index + 1).
    """
    kind = type(e)
    if kind is PPBS:
        a, b = e.path_a, e.path_b
        low, top = min(a, b), max(a, b)
    elif kind is PolarizationRotation or kind is WaveplatePhase or kind is Detector:
        low = top = e.path
    else:
        raise TypeError(f"not an optical element: {e!r}")
    if top > paths:
        raise ValueError(f"path {top} out of range ({paths} paths)")
    if kind is Detector:
        return ()  # a readout marker
    if low < 1:
        raise ValueError(f"path index must be >= 1, got {low}")
    if kind is PolarizationRotation:
        return (GivensRotation(2 * top - 1, 2 * top, e.angle),)
    if kind is WaveplatePhase:
        return (PhaseShift(2 * top, e.phase),)
    return _rotation(2 * a - 1, 2 * b - 1, e.angle_h), _rotation(2 * a, 2 * b, e.angle_v)


def apply_element(state: ModeAmplitudes, e: OpticalElement) -> ModeAmplitudes:
    """Propagate a state through a single element (pure function)."""
    arr = state.amplitudes.copy()
    apply_netlist(Netlist(len(arr), _lower(e, state.paths)), arr)
    return ModeAmplitudes(arr)


@dataclass(frozen=True)
class Scheme:
    """A concrete interferometer layout; its Detector elements assign outcomes.

    The Detector elements are the one record of which (path, polarization)
    reads which outcome, and they must cover outcomes 0..M-1 exactly once.
    """

    M: int
    n_paths: int
    elements: tuple[OpticalElement, ...]

    def __post_init__(self):
        outcomes = sorted(e.outcome for e in self.elements if isinstance(e, Detector))
        if outcomes != list(range(self.M)) or len(self.detector_map) != self.M:
            raise ValueError(
                f"detectors must read each outcome 0..{self.M - 1} once, at distinct modes"
            )

    @property
    def detector_map(self) -> dict[tuple[int, str], int]:
        """Map from (path, polarization) to its detector's outcome."""
        return {
            (e.path, e.polarization): e.outcome for e in self.elements if isinstance(e, Detector)
        }

    @property
    def netlist(self) -> Netlist:
        """The layout lowered; its M counts the 2 * n_paths modes, not the outcomes."""
        lowered = (x for e in self.elements for x in _lower(e, self.n_paths))
        return Netlist(M=2 * self.n_paths, elements=tuple(lowered))

    @property
    def isometry(self) -> np.ndarray:
        """M x 2 map V from the photon's input pair to the detectors, built on each read.

        Row k holds the amplitudes at the detector of outcome k for a
        photon entering on mode 1H and on mode 1V.

        The two identity columns run through the netlist as one [x, y]
        pair of Python complex numbers per mode, which costs a few scalar
        operations per element where an array call costs microseconds. It
        gives the bits of apply_netlist(netlist, eye(modes, 2)): the
        operands are those of numerics.rotate_rows and of a phase shift,
        in the same order and both complex, so the multiply is the same
        complex product as numpy's.
        """
        amps = [[0j, 0j] for _ in range(2 * self.n_paths)]
        amps[0][0] = amps[1][1] = 1 + 0j
        for e in self.netlist.elements:
            if isinstance(e, GivensRotation):
                c, s = np.cos(e.omega), np.sin(e.omega)
                c, s, minus_s = complex(c), complex(s), complex(-s)
                (xu, yu), (xv, yv) = amps[e.u - 1], amps[e.v - 1]
                amps[e.u - 1] = [c * xu + s * xv, c * yu + s * yv]
                amps[e.v - 1] = [c * xv + minus_s * xu, c * yv + minus_s * yu]
            else:
                shift = complex(np.exp(-1j * e.phi))
                x, y = amps[e.u - 1]
                amps[e.u - 1] = [x * shift, y * shift]
        rows = [0] * self.M
        for (path, pol), k in self.detector_map.items():
            rows[k] = mode_index(path, pol)
        return np.array([amps[r] for r in rows], dtype=complex)


def build_direct_scheme(m: int) -> Scheme:
    """Lay out the chain interferometer for M outcomes.

    Path 1 carries the photon through the initial polarization rotation
    pi/4 and waveplate pi/2. Each modular block k then splits the
    current path on a beam splitter with angle theta_k toward a fresh
    vacuum path, sends the tapped side through a polarizing splitter
    onto an H detector (outcome k) and a V detector (outcome k + M/2),
    and rotates the pass-through polarization by pi + pi/M. The final
    pass-through pair meets one last polarizing splitter and detector
    pair. Polarizing splitters are oriented with the fresh detector
    path first so the reflected V amplitude keeps a plus sign; the
    transfer matrix of Scheme.netlist restricted to its logical ports
    then equals the compiled netlist of Z† exactly.
    """
    m = validate_outcome_count(m)
    elements: list[OpticalElement] = [
        PolarizationRotation(1, float(np.pi / 4)),
        WaveplatePhase(1, float(np.pi / 2)),
    ]
    current = 1
    next_path = 2
    for k in range(m // 2 - 1):
        passthrough = next_path
        det = next_path + 1
        next_path += 2
        theta = triplet_angle(m, k)
        elements.append(beam_splitter(current, passthrough, theta))
        elements.append(PBS(det, current))
        elements.append(Detector(current, "H", k))
        elements.append(Detector(det, "V", k + m // 2))
        elements.append(PolarizationRotation(passthrough, float(np.pi + np.pi / m)))
        current = passthrough
    det = next_path
    next_path += 1
    elements.append(PBS(det, current))
    elements.append(Detector(current, "H", m // 2 - 1))
    elements.append(Detector(det, "V", m - 1))
    return Scheme(M=m, n_paths=next_path - 1, elements=tuple(elements))


def _click_statistics(v: np.ndarray, rho) -> OutcomeDistribution:
    """Click probabilities P_k = (V rho V†)_kk of an M x 2 isometry V.

    The photon enters on two modes, so every layout acts on the qubit
    state through V alone; a mixed state needs no diagonalization. An
    (S, 2, 2) stack of states gives one row of probabilities per state.
    """
    p = click_probabilities(v, validate_density(rho))
    return OutcomeDistribution(probabilities=p)


def simulate_direct(scheme: Scheme, rho) -> OutcomeDistribution:
    """Detector-click statistics of the direct scheme on a qubit state."""
    return _click_statistics(scheme.isometry, rho)


def build_folded_schedule(m: int) -> list[float]:
    """Tap fraction of each of the M/2 slots of the folded (loop) scheme.

    Slot k+1 (k = 0..M/2-1) lets out the share 2/(M - 2k) of the loop's
    remaining probability, so each slot carries 2/M; its splitter
    transmits sqrt(tap) and keeps sqrt(1 - tap). The taps come from the
    outcome weights, not from triplet_angle, so the direct and folded
    layouts cross-check their splitters too; tap k is cos^2 of block k's
    angle. The last tap, of block k = M/2-1 with angle 0, is exactly 1:
    slot M/2 sends everything out. Every slot rotates the loop
    polarization by pi + pi/M. M=2 needs no loop and is rejected.
    """
    m = validate_outcome_count(m)
    if m == 2:
        raise ValueError("M=2 has a single block and no loop; use the direct scheme")
    return [2.0 / (m - 2 * k) for k in range(m // 2)]


def _folded_isometry(m: int) -> np.ndarray:
    """M x 2 map V of the loop scheme, unrolled slot by slot.

    hv holds the loop amplitudes (rows H, V) for a photon entering on
    each of the two input modes (columns). Each round trip applies the
    slot's beam splitter, records the exiting pair on the detectors, and
    keeps the reflected pair in the loop through the polarization
    rotation. The last slot's tap is 1 (see build_folded_schedule), so it
    exits everything. This builds V independently of the direct scheme's
    element list, so the two cross-check.
    """
    taps = build_folded_schedule(m)  # validates m first
    # initial block: polarization rotation pi/4 then waveplate pi/2
    hv = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    hv[1] *= np.exp(-1j * np.pi / 2)
    # clicks[k] is the exiting pair of slot k+1: outcomes k (H) and k + M/2 (V)
    clicks = np.empty((len(taps), 2, 2), dtype=complex)
    cr, sr = np.cos(np.pi + np.pi / m), np.sin(np.pi + np.pi / m)
    rotation = np.array([[cr, sr], [-sr, cr]])  # every slot's loop polarization rotation
    for k, tap in enumerate(taps):
        clicks[k] = np.sqrt(tap) * hv
        # reflected pair stays in the loop and gets rotated
        hv = rotation @ (-np.sqrt(1.0 - tap) * hv)
    return clicks.transpose(1, 0, 2).reshape(m, 2)


def simulate_folded(m: int, rho) -> OutcomeDistribution:
    """The loop scheme unrolled slot by slot (see _folded_isometry), in outcome order.

    Slot k+1's H click is outcome k, and its V click is outcome k + M/2.
    """
    return _click_statistics(_folded_isometry(m), rho)
