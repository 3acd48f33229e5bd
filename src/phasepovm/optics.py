"""Single-photon interferometer simulation of the phase measurement.

The photon lives in polarization-resolved spatial modes: path m carries
an H slot at vector index 2m-1 and a V slot at index 2m (1-based), and
a state is the list of creation-operator coefficients over those slots.
Each element lowers to netlist elements on netlist modes mode_index + 1:
a polarization rotation to W(H, V), a waveplate to S(V), a PPBS to
W(H_a, H_b) then W(V_a, V_b), a PBS to that PPBS at angles (0, pi/2),
and a detector to nothing; compiler.apply_netlist runs every layout.

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
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .compiler import GivensRotation, Netlist, PhaseShift, apply_netlist, triplet_angle
from .povm import OutcomeDistribution, validate_density, validate_outcome_count

NORM_TOL = 1e-12

# In the final time slot of the folded scheme the loop splitter is set
# fully transmissive, so the whole remaining amplitude exits to the
# detectors and nothing survives in the loop.
EXIT_SLOT_BS_ANGLE = 0.0


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


@dataclass(frozen=True)
class PBS:
    """Polarizing beam splitter: transmits H, moves V across paths.

    The limiting PPBS with angle_h = 0, angle_v = pi/2; V of path_b
    lands on path_a with a plus sign, V of path_a on path_b with a
    minus sign.
    """

    path_a: int
    path_b: int

    def __post_init__(self):
        if self.path_a == self.path_b:
            raise ValueError("PBS needs two distinct paths")


@dataclass(frozen=True)
class Detector:
    """Readout marker assigning an outcome to one (path, polarization)."""

    path: int
    polarization: str
    outcome: int


OpticalElement = PolarizationRotation | WaveplatePhase | PPBS | PBS | Detector


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
    if kind is PPBS or kind is PBS:
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
    h, v = (e.angle_h, e.angle_v) if kind is PPBS else (0.0, np.pi / 2)
    return _rotation(2 * a - 1, 2 * b - 1, h), _rotation(2 * a, 2 * b, v)


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

    @cached_property
    def detector_map(self) -> MappingProxyType:
        """Read-only map from (path, polarization) to its detector's outcome, built once."""
        return MappingProxyType(
            {
                (e.path, e.polarization): e.outcome
                for e in self.elements
                if isinstance(e, Detector)
            }
        )

    @cached_property
    def netlist(self) -> Netlist:
        """The layout lowered once; its M counts the 2 * n_paths modes, not the outcomes."""
        lowered = (x for e in self.elements for x in _lower(e, self.n_paths))
        return Netlist(M=2 * self.n_paths, elements=tuple(lowered))

    @cached_property
    def isometry(self) -> np.ndarray:
        """M x 2 map V from the photon's input pair to the detectors.

        Row k holds the amplitudes at the detector of outcome k for a
        photon entering on mode 1H and on mode 1V. The elements are a
        tuple of frozen records, so V is built once per scheme; the
        array is read-only.
        """
        rows = np.empty(self.M, dtype=int)
        for (path, pol), k in self.detector_map.items():
            rows[k] = mode_index(path, pol)
        v = apply_netlist(self.netlist, np.eye(2 * self.n_paths, 2, dtype=complex))[rows]
        v.flags.writeable = False
        return v


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
    rho = validate_density(rho)
    p = np.einsum("ka,...ab,kb->...k", v, rho, v.conj()).real
    return OutcomeDistribution(M=len(v), probabilities=p)


def simulate_direct(scheme: Scheme, rho) -> OutcomeDistribution:
    """Detector-click statistics of the direct scheme on a qubit state."""
    return _click_statistics(scheme.isometry, rho)


@dataclass(frozen=True)
class FoldedSlotSetting:
    """Loop configuration during one time slot (1-based slot index)."""

    slot: int
    bs_angle: float
    loop_rotation: float


def build_folded_schedule(m: int) -> list[FoldedSlotSetting]:
    """Per-slot splitter settings for the folded (loop) scheme.

    Slot k+1 (k = 0..M/2-2) uses the block angle theta_k and the loop
    polarization rotation pi + pi/M. In the final slot M/2 the splitter
    is set fully transmissive (EXIT_SLOT_BS_ANGLE), sending every
    remaining amplitude out to the detectors, so only M/2 - 1 active
    settings are needed. M=2 needs no loop at all and is rejected.
    """
    m = validate_outcome_count(m)
    if m == 2:
        raise ValueError("M=2 has a single block and no loop; use the direct scheme")
    return [
        FoldedSlotSetting(
            slot=k + 1,
            bs_angle=triplet_angle(m, k),
            loop_rotation=float(np.pi + np.pi / m),
        )
        for k in range(m // 2 - 1)
    ]


@dataclass(frozen=True)
class SlotDistribution:
    """Click probabilities per time slot of the folded scheme.

    probabilities has shape (M/2, 2); row k holds (P_H, P_V) for slot
    k+1, which map to outcomes k and k + M/2; (S, M/2, 2) for S states.
    """

    M: int
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim not in (2, 3) or p.shape[-2:] != (self.M // 2, 2):
            raise ValueError(
                f"expected shape {(self.M // 2, 2)}, got {p.shape}"
            )
        object.__setattr__(self, "probabilities", p)

    @property
    def slots(self) -> int:
        return self.M // 2

    def flatten(self) -> OutcomeDistribution:
        p = self.probabilities.swapaxes(-2, -1)
        return OutcomeDistribution(M=self.M, probabilities=p.reshape(*p.shape[:-2], self.M))


def _folded_isometry(m: int) -> np.ndarray:
    """M x 2 map V of the loop scheme, unrolled slot by slot.

    hv holds the loop amplitudes (rows H, V) for a photon entering on
    each of the two input modes (columns). Each round trip applies the
    slot's beam splitter, records the exiting pair on the detectors, and
    keeps the reflected pair in the loop through the polarization
    rotation. The final slot exits everything (see build_folded_schedule),
    leaving zero residual norm in the loop. This builds V independently
    of the direct scheme's element list, so the two cross-check.
    """
    schedule = build_folded_schedule(m)
    # initial block: polarization rotation pi/4 then waveplate pi/2
    hv = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    hv[1] *= np.exp(-1j * np.pi / 2)
    # clicks[k] is the exiting pair of slot k+1: outcomes k (H) and k + M/2 (V)
    clicks = np.empty((m // 2, 2, 2), dtype=complex)
    for setting in schedule:
        c, s = np.cos(setting.bs_angle), np.sin(setting.bs_angle)
        clicks[setting.slot - 1] = c * hv
        # reflected pair stays in the loop and gets rotated
        cr, sr = np.cos(setting.loop_rotation), np.sin(setting.loop_rotation)
        hv = np.array([[cr, sr], [-sr, cr]]) @ (-s * hv)
    clicks[m // 2 - 1] = np.cos(EXIT_SLOT_BS_ANGLE) * hv
    return clicks.transpose(1, 0, 2).reshape(m, 2)


def simulate_folded(m: int, rho) -> SlotDistribution:
    """Time-slot-unrolled simulation of the loop scheme (see _folded_isometry)."""
    m = validate_outcome_count(m)
    p = _click_statistics(_folded_isometry(m), rho).probabilities
    p = p.reshape(*p.shape[:-1], 2, m // 2).swapaxes(-2, -1)
    return SlotDistribution(M=m, probabilities=p)


def distribution_to_json_dict(dist: OutcomeDistribution) -> dict:
    return {"M": dist.M, "probabilities": [float(p) for p in dist.probabilities]}


def distribution_to_csv(dist: OutcomeDistribution) -> str:
    lines = ["k,probability"]
    for k, p in enumerate(dist.probabilities):
        lines.append(f"{k},{float(p)!r}")
    return "\n".join(lines) + "\n"


def slot_distribution_to_json_dict(sd: SlotDistribution) -> dict:
    return {
        "M": sd.M,
        "slots": sd.slots,
        "pairs": [[float(a), float(b)] for a, b in sd.probabilities],
    }


def slot_distribution_to_csv(sd: SlotDistribution) -> str:
    lines = ["slot,p_h,p_v"]
    for k in range(sd.slots):
        ph, pv = sd.probabilities[k]
        lines.append(f"{k + 1},{float(ph)!r},{float(pv)!r}")
    return "\n".join(lines) + "\n"
