"""Tests for the mode-amplitude interferometer simulation."""

import dataclasses
import re

import numpy as np
import pytest

from phasepovm.compiler import (
    GivensRotation,
    PhaseShift,
    apply_netlist,
    decompose_closed,
    evaluate_netlist,
    triplet_angle,
)
from phasepovm.naimark import build_extension_closed, column_order
from phasepovm.numerics import gram_residuals, rotate_rows
from phasepovm.optics import (
    Detector,
    ModeAmplitudes,
    PBS,
    PPBS,
    PolarizationRotation,
    WaveplatePhase,
    _click_statistics,
    _folded_isometry,
    _lower,
    apply_element,
    beam_splitter,
    build_direct_scheme,
    build_folded_schedule,
    mode_index,
    simulate_direct,
    simulate_folded,
)
from phasepovm.povm import (
    outcome_distribution,
    outcome_probability,
    phase_povm,
    pure_phase_state,
    random_density,
    validate_outcome_count,
)

SEED = 20240811


def _eigen_pairs(rho):
    """Eigenvalues and eigenvectors of rho, skipping numerically empty ones."""
    vals, vecs = np.linalg.eigh(rho)
    pairs = zip(vals[::-1], vecs[:, ::-1].T)
    return [(val, vec) for val, vec in pairs if val >= 1e-15]


def _reference_direct(scheme, rho):
    """Propagate each eigenvector of rho through every element separately."""
    p = np.zeros(scheme.M)
    for val, vec in _eigen_pairs(rho):
        arr = np.zeros(2 * scheme.n_paths, dtype=complex)
        arr[0:2] = vec
        for e in scheme.elements:
            arr = apply_element(ModeAmplitudes(arr), e).amplitudes
        for (path, pol), k in scheme.detector_map.items():
            p[k] += val * float(np.abs(arr[mode_index(path, pol)]) ** 2)
    return p


def _reference_folded(m, rho):
    """Scalar slot-by-slot loop of the folded scheme, one eigenvector at a time."""
    pairs = np.zeros((m // 2, 2))
    for val, vec in _eigen_pairs(rho):
        h = (vec[0] + vec[1]) / np.sqrt(2.0)
        v = (-vec[0] + vec[1]) / np.sqrt(2.0) * np.exp(-1j * np.pi / 2)
        cr, sr = np.cos(np.pi + np.pi / m), np.sin(np.pi + np.pi / m)
        for k, tap in enumerate(build_folded_schedule(m)):
            c, s = np.sqrt(tap), np.sqrt(1.0 - tap)
            pairs[k, 0] += val * float(np.abs(c * h) ** 2)
            pairs[k, 1] += val * float(np.abs(c * v) ** 2)
            h, v = -s * h, -s * v
            h, v = cr * h + sr * v, -sr * h + cr * v
    return pairs


def _reference_apply(arr, e, paths):
    """Each element applied in place by its own kernel call, not through a netlist."""
    if isinstance(e, PolarizationRotation):
        if e.path > paths:
            raise ValueError(f"path {e.path} out of range ({paths} paths)")
        rotate_rows(arr, mode_index(e.path, "H"), mode_index(e.path, "V"), e.angle)
    elif isinstance(e, WaveplatePhase):
        if e.path > paths:
            raise ValueError(f"path {e.path} out of range ({paths} paths)")
        arr[mode_index(e.path, "V")] *= np.exp(-1j * e.phase)
    elif isinstance(e, PPBS):
        if max(e.path_a, e.path_b) > paths:
            raise ValueError(
                f"paths ({e.path_a}, {e.path_b}) out of range ({paths} paths)"
            )
        rotate_rows(arr, mode_index(e.path_a, "H"), mode_index(e.path_b, "H"), e.angle_h)
        rotate_rows(arr, mode_index(e.path_a, "V"), mode_index(e.path_b, "V"), e.angle_v)
    elif isinstance(e, Detector):
        if e.path > paths:
            raise ValueError(f"path {e.path} out of range ({paths} paths)")
    else:
        raise TypeError(f"not an optical element: {e!r}")


def _reference_isometry(scheme):
    """V from the two input modes sent through _reference_apply, element by element."""
    arr = np.eye(2 * scheme.n_paths, 2, dtype=complex)
    for e in scheme.elements:
        _reference_apply(arr, e, scheme.n_paths)
    rows = np.empty(scheme.M, dtype=int)
    for (path, pol), k in scheme.detector_map.items():
        rows[k] = mode_index(path, pol)
    return arr[rows]


def _reference_lower(e, paths):
    """Each element lowered through mode_index."""

    def rotation(i, j, angle):
        if i < j:
            return GivensRotation(i + 1, j + 1, angle)
        return GivensRotation(j + 1, i + 1, -angle)

    top = max(e.path_a, e.path_b) if isinstance(e, PPBS) else e.path
    if top > paths:
        raise ValueError(f"path {top} out of range ({paths} paths)")
    if isinstance(e, PolarizationRotation):
        return (rotation(mode_index(e.path, "H"), mode_index(e.path, "V"), e.angle),)
    if isinstance(e, WaveplatePhase):
        return (PhaseShift(mode_index(e.path, "V") + 1, e.phase),)
    if isinstance(e, PPBS):
        return tuple(
            rotation(mode_index(e.path_a, pol), mode_index(e.path_b, pol), angle)
            for pol, angle in (("H", e.angle_h), ("V", e.angle_v))
        )
    return ()


def simulate_netlist(netlist, rho):
    """Statistics of a compiled netlist driven on its first two modes.

    Output port j carries the outcome given by the interleaved column
    order, the same assignment the direct scheme realizes physically.
    """
    rows = np.argsort(column_order(netlist.M))  # outcome k is read at port rows[k]
    v = apply_netlist(netlist, np.eye(netlist.M, 2, dtype=complex))[rows]
    return _click_statistics(v, rho)


def _same_bits(a, b):
    """Equal shapes and equal bits, so signed zeros and NaN payloads count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _random_element(rng, paths):
    """One seeded element of any kind; PPBS and PBS often run from a higher path."""
    p1, p2 = (int(p) for p in rng.choice(paths, size=2, replace=False) + 1)
    h, v = (float(a) for a in rng.uniform(-2 * np.pi, 2 * np.pi, size=2))
    return (
        PolarizationRotation(p1, h),
        WaveplatePhase(p1, h),
        PPBS(p1, p2, h, v),
        PBS(p1, p2),
        Detector(p1, "HV"[int(rng.integers(2))], 0),
    )[int(rng.integers(5))]


def _seeded_states(seed, count=6):
    rng = np.random.default_rng(seed)
    return [random_density(rng, pure=i % 2 == 0) for i in range(count)]


def test_mode_index_convention():
    assert mode_index(1, "H") == 0
    assert mode_index(1, "V") == 1
    assert mode_index(3, "H") == 4
    with pytest.raises(ValueError):
        mode_index(1, "D")
    with pytest.raises(ValueError):
        mode_index(0, "H")


def test_mode_amplitudes_validation():
    ModeAmplitudes(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="even length"):
        ModeAmplitudes(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        ModeAmplitudes(np.array([1.0, 1.0]))
    # partial norm is fine (sub-block of a larger state)
    ModeAmplitudes(np.array([0.5, 0.0]))


def input_state(phi, paths):
    """Reference: a single photon on path 1 carrying the phase, (1, e^{i phi})/sqrt(2)."""
    a = np.zeros(2 * paths, dtype=complex)
    a[0] = 1.0 / np.sqrt(2.0)
    a[1] = np.exp(1j * phi) / np.sqrt(2.0)
    return ModeAmplitudes(a)


def test_input_state_examples():
    s = input_state(0.0, 2)
    np.testing.assert_allclose(
        s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-15
    )
    s = input_state(np.pi, 1)
    np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15
    # the photon's polarization pair is the qubit state the POVM reads
    for phi in (0.0, 1.1, np.pi):
        pair = input_state(phi, 3).amplitudes[:2]
        np.testing.assert_allclose(np.outer(pair, pair.conj()), pure_phase_state(phi), atol=1e-15)


def test_waveplate_applies_conjugate_phase_to_v():
    s = ModeAmplitudes(np.array([1 / np.sqrt(2), 1 / np.sqrt(2)]))
    out = apply_element(s, WaveplatePhase(1, np.pi / 2))
    np.testing.assert_allclose(
        out.amplitudes, [1 / np.sqrt(2), -1j / np.sqrt(2)], atol=1e-15
    )


def test_pbs_transmits_h_and_crosses_v():
    s = ModeAmplitudes(np.array([0.6, 0.8, 0.0, 0.0]))
    out = apply_element(s, PBS(1, 2))
    # H stays on path 1; V of path 1 lands on path 2 with a minus sign
    np.testing.assert_allclose(out.amplitudes, [0.6, 0.0, 0.0, -0.8], atol=1e-15)
    back = apply_element(out, PBS(1, 2))
    # V of path 2 returns to path 1 with a plus sign
    np.testing.assert_allclose(back.amplitudes[1], -0.8, atol=1e-15)


def test_ppbs_with_equal_angles_is_a_beam_splitter_on_both_pairs():
    rng = np.random.default_rng(SEED)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    a /= np.linalg.norm(a)
    s = ModeAmplitudes(a)
    out = apply_element(s, beam_splitter(1, 2, 0.7)).amplitudes
    c, sn = np.cos(0.7), np.sin(0.7)
    w = np.array([[c, sn], [-sn, c]])
    np.testing.assert_allclose(out[[0, 2]], w @ a[[0, 2]], atol=1e-14)
    np.testing.assert_allclose(out[[1, 3]], w @ a[[1, 3]], atol=1e-14)


def test_norm_conserved_through_random_element_chains():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        paths = int(rng.integers(2, 5))
        a = rng.normal(size=2 * paths) + 1j * rng.normal(size=2 * paths)
        a /= np.linalg.norm(a)
        state = ModeAmplitudes(a)
        for _ in range(10):
            kind = rng.integers(4)
            p1, p2 = rng.choice(paths, size=2, replace=False) + 1
            if kind == 0:
                e = PolarizationRotation(int(p1), float(rng.uniform(0, 2 * np.pi)))
            elif kind == 1:
                e = WaveplatePhase(int(p1), float(rng.uniform(0, 2 * np.pi)))
            elif kind == 2:
                e = PPBS(
                    int(p1), int(p2),
                    float(rng.uniform(0, 2 * np.pi)),
                    float(rng.uniform(0, 2 * np.pi)),
                )
            else:
                e = PBS(int(p1), int(p2))
            state = apply_element(state, e)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_apply_element_matches_the_reference_dispatcher_bit_for_bit():
    rng = np.random.default_rng(SEED)
    reversed_splitters = 0
    for _ in range(300):
        paths = int(rng.integers(2, 6))
        a = rng.normal(size=2 * paths) + 1j * rng.normal(size=2 * paths)
        a /= np.linalg.norm(a)
        # exact zeros of both signs, so a flipped signed zero shows
        a.real[rng.random(2 * paths) < 0.3] = 0.0
        a.imag[rng.random(2 * paths) < 0.3] = -0.0
        state, ref = ModeAmplitudes(a), a.copy()
        for _ in range(10):
            e = _random_element(rng, paths)
            if isinstance(e, PPBS) and e.path_a > e.path_b:
                reversed_splitters += 1
            state = apply_element(state, e)
            _reference_apply(ref, e, paths)
            assert _same_bits(state.amplitudes, ref), e
    assert reversed_splitters > 100


@pytest.mark.parametrize("m", [2, 8, 256])
def test_lowering_equals_the_reference_lowering(m):
    scheme = build_direct_scheme(m)
    expected = tuple(x for e in scheme.elements for x in _reference_lower(e, scheme.n_paths))
    got = scheme.netlist.elements
    # repr tells a signed zero angle from 0.0, which == does not
    assert got == expected and repr(got) == repr(expected)
    # every kind, splitters from a higher path, and paths out of range
    rng = np.random.default_rng(SEED + m)
    cases = [(_random_element(rng, 5), int(rng.integers(2, 6))) for _ in range(200)]
    below = (PolarizationRotation(0, 0.1), WaveplatePhase(0, 0.1), PPBS(2, 0, 0.1, 0.2), PBS(0, 1))
    cases += [(e, 2) for e in below + (Detector(0, "H", 0),)]
    for e, paths in cases:
        try:
            expected = _reference_lower(e, paths)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _lower(e, paths)
            continue
        got = _lower(e, paths)
        assert got == expected and repr(got) == repr(expected), e


def test_apply_element_rejects_out_of_range_paths():
    s = ModeAmplitudes(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="out of range"):
        apply_element(s, PolarizationRotation(2, 0.1))
    with pytest.raises(ValueError, match="out of range"):
        apply_element(s, WaveplatePhase(2, 0.1))
    with pytest.raises(ValueError, match="out of range"):
        apply_element(s, PPBS(1, 2, 0.1, 0.2))
    with pytest.raises(ValueError, match="out of range"):
        apply_element(s, PBS(2, 1))
    with pytest.raises(ValueError, match="out of range"):
        apply_element(s, Detector(2, "H", 0))
    with pytest.raises(ValueError):
        PPBS(1, 1, 0.1, 0.2)


def test_detector_is_a_readout_marker_not_a_transformation():
    s = ModeAmplitudes(np.array([0.6, 0.8]))
    out = apply_element(s, Detector(1, "H", 0))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes)


def modular_block_isometry(m, k):
    """Reference: effective 4x2 map of block k, input pair to (detectors, pass-through).

    Rows 1-2 are the detector pair (beam splitter transmission cos
    theta_k), rows 3-4 the pass-through pair (reflection followed by the
    polarization rotation pi + pi/M); the two columns are orthonormal.
    """
    m = validate_outcome_count(m)
    if not 0 <= k <= m // 2 - 2:
        raise ValueError(f"block index k={k} out of range for M={m}")
    theta = triplet_angle(m, k)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.pi + np.pi / m
    cr, sr = np.cos(rot), np.sin(rot)
    # reflection into the fresh path carries -s; the rotation then mixes
    # the pass-through pair
    lower = np.array([[cr, sr], [-sr, cr]]) @ np.array([[-s, 0.0], [0.0, -s]])
    return np.vstack([np.array([[c, 0.0], [0.0, c]]), lower]).astype(complex)


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_modular_block_isometry_columns_orthonormal(m):
    for k in range(m // 2 - 1):
        iso = modular_block_isometry(m, k)
        assert iso.shape == (4, 2)
        np.testing.assert_allclose(iso.conj().T @ iso, np.eye(2), atol=1e-12)


def test_modular_block_isometry_top_block_is_scaled_identity():
    iso = modular_block_isometry(8, 0)
    np.testing.assert_allclose(iso[:2, :2], np.sqrt(2.0 / 8.0) * np.eye(2), atol=1e-14)


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_block_cascade_reproduces_the_extension_adjoint(m):
    # initial block on the input pair, then the chain of 4x2 isometries,
    # stacks into the first two columns of Z dagger
    initial = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
    stack = np.zeros((m, 2), dtype=complex)
    carry = initial
    row = 0
    for k in range(m // 2 - 1):
        out4 = modular_block_isometry(m, k) @ carry
        stack[row : row + 2] = out4[:2]
        carry = out4[2:]
        row += 2
    stack[row : row + 2] = carry
    zdag = build_extension_closed(m).Z.conj().T
    np.testing.assert_allclose(stack, zdag[:, :2], atol=1e-10)


def test_modular_block_isometry_range_check():
    with pytest.raises(ValueError):
        modular_block_isometry(8, 3)
    with pytest.raises(ValueError):
        modular_block_isometry(8, -1)
    with pytest.raises(ValueError):
        modular_block_isometry(2, 0)


def test_direct_scheme_m8_detector_pairs():
    scheme = build_direct_scheme(8)
    outcomes = sorted(scheme.detector_map.values())
    assert outcomes == list(range(8))
    # block detectors pair outcome k with k + M/2
    h_outcomes = [v for (p, pol), v in scheme.detector_map.items() if pol == "H"]
    v_outcomes = [v for (p, pol), v in scheme.detector_map.items() if pol == "V"]
    assert sorted(h_outcomes) == [0, 1, 2, 3]
    assert sorted(v_outcomes) == [4, 5, 6, 7]


def test_direct_scheme_m2_degenerate_layout():
    scheme = build_direct_scheme(2)
    kinds = [type(e).__name__ for e in scheme.elements]
    assert kinds == [
        "PolarizationRotation",
        "WaveplatePhase",
        "PPBS",
        "Detector",
        "Detector",
    ]
    assert scheme.n_paths == 2
    assert scheme.detector_map == {(1, "H"): 0, (2, "V"): 1}


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
def test_direct_scheme_element_count_linear_and_unitary(m):
    scheme = build_direct_scheme(m)
    assert len(scheme.elements) == 2 + 5 * (m // 2 - 1) + 3
    assert scheme.n_paths == m
    assert gram_residuals(evaluate_netlist(scheme.netlist))["unitarity"] <= 1e-10


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
def test_scheme_transfer_matches_netlist_on_photon_columns(m):
    scheme = build_direct_scheme(m)
    t = evaluate_netlist(scheme.netlist)
    n = evaluate_netlist(decompose_closed(m))
    where = {outcome: key for key, outcome in scheme.detector_map.items()}
    for j in range(m):
        path, pol = where[column_order(scheme.M)[j]]
        np.testing.assert_allclose(
            t[mode_index(path, pol), 0:2], n[j, 0:2], atol=1e-10
        )


@pytest.mark.parametrize("m", [2, 8, 256])
def test_simulate_direct_matches_the_eigenvector_reference(m):
    scheme = build_direct_scheme(m)
    for rho in _seeded_states(SEED + m) + [np.eye(2) / 2.0]:
        np.testing.assert_allclose(
            simulate_direct(scheme, rho).probabilities,
            _reference_direct(scheme, rho),
            rtol=0,
            atol=1e-15,
        )


@pytest.mark.parametrize("m", [4, 8, 256])
def test_simulate_folded_matches_the_eigenvector_reference(m):
    for rho in _seeded_states(SEED + m) + [np.eye(2) / 2.0]:
        # slot k+1 holds outcomes k (H) and k + M/2 (V)
        np.testing.assert_allclose(
            simulate_folded(m, rho).probabilities.reshape(2, m // 2).T,
            _reference_folded(m, rho),
            rtol=0,
            atol=1e-15,
        )


@pytest.mark.parametrize("m", [2, 4, 64, 1024])
def test_scheme_isometry_is_the_detector_rows_of_the_transfer_matrix(m):
    scheme = build_direct_scheme(m)
    v = scheme.isometry
    t = evaluate_netlist(scheme.netlist)
    assert v.shape == (m, 2)
    for (path, pol), k in scheme.detector_map.items():
        np.testing.assert_array_equal(v[k], t[mode_index(path, pol), :2])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [2, 16])
def test_scheme_views_are_rebuilt_with_the_same_bits_on_each_read(m):
    scheme = build_direct_scheme(m)
    assert scheme.detector_map == scheme.detector_map
    first = scheme.netlist.elements
    assert first == scheme.netlist.elements and repr(first) == repr(scheme.netlist.elements)
    v = scheme.isometry
    expected = v.copy()
    assert _same_bits(scheme.isometry, expected)
    # a caller writing into its V does not reach the next read
    v[:] = np.nan
    scheme.detector_map[(1, "H")] = m
    assert _same_bits(scheme.isometry, expected)
    assert sorted(scheme.detector_map.values()) == list(range(m))


def _states_and_stack(seed):
    """One mixed state, then a stack of pure and mixed states."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_density(rng, pure=bool(s % 2)) for s in range(6)])
    return [random_density(rng), stack]


@pytest.mark.parametrize("m", [2**k for k in range(1, 13)])
def test_direct_scheme_isometry_equals_the_reference_propagation_bit_for_bit(m):
    # Scheme.isometry runs on Python complex scalars; both references run
    # numpy arrays, one through the lowered netlist and one element by element
    scheme = build_direct_scheme(m)
    v = _reference_isometry(scheme)
    assert _same_bits(scheme.isometry, v)
    rows = np.empty(m, dtype=int)
    for (path, pol), k in scheme.detector_map.items():
        rows[k] = mode_index(path, pol)
    columns = np.eye(2 * scheme.n_paths, 2, dtype=complex)
    assert _same_bits(scheme.isometry, apply_netlist(scheme.netlist, columns)[rows])
    for rho in _states_and_stack(SEED + m):
        assert _same_bits(
            simulate_direct(scheme, rho).probabilities, _click_statistics(v, rho).probabilities
        )


@pytest.mark.parametrize("m", [2, 8, 256])
def test_simulate_netlist_equals_the_transfer_matrix_route_bit_for_bit(m):
    net = decompose_closed(m)
    # the first two columns of the full M x M matrix, scattered onto the detectors
    v = np.empty((m, 2), dtype=complex)
    v[list(column_order(m))] = evaluate_netlist(net)[:, :2]
    for rho in _states_and_stack(SEED + m):
        assert _same_bits(
            simulate_netlist(net, rho).probabilities, _click_statistics(v, rho).probabilities
        )


def test_scheme_is_hashable_and_its_detector_map_derived():
    scheme = build_direct_scheme(4)
    assert hash(scheme) == hash(build_direct_scheme(4))
    assert scheme == build_direct_scheme(4)
    # the map is derived from the Detector elements, the one record
    detectors = [e for e in scheme.elements if isinstance(e, Detector)]
    assert len(detectors) == 4
    assert scheme.detector_map == {(d.path, d.polarization): d.outcome for d in detectors}
    # equality compares the detectors: relabelling one gives another scheme
    swapped = tuple(
        dataclasses.replace(e, outcome=3 - e.outcome) if isinstance(e, Detector) else e
        for e in scheme.elements
    )
    assert dataclasses.replace(scheme, elements=swapped) != scheme


def test_scheme_needs_each_outcome_read_exactly_once():
    scheme = build_direct_scheme(4)
    zero = next(e for e in scheme.elements if isinstance(e, Detector) and e.outcome == 0)
    missing = tuple(e for e in scheme.elements if e is not zero)
    duplicated = tuple(
        dataclasses.replace(e, outcome=1) if e is zero else e for e in scheme.elements
    )
    # outcome 0 read at the mode of outcome 1, and a repeated detector
    one = next(e for e in scheme.elements if isinstance(e, Detector) and e.outcome == 1)
    shared = tuple(
        dataclasses.replace(one, outcome=0) if e is zero else e for e in scheme.elements
    )
    repeated = scheme.elements + (zero,)
    out_of_range = scheme.elements + (Detector(scheme.n_paths, "H", 4),)
    for elements in (missing, duplicated, shared, repeated, out_of_range):
        with pytest.raises(ValueError, match="each outcome 0..3 once"):
            dataclasses.replace(scheme, elements=elements)
    # a detector beyond the last path is a usage error, not an IndexError
    beyond = tuple(
        dataclasses.replace(e, path=99) if e is zero else e for e in scheme.elements
    )
    with pytest.raises(ValueError, match="out of range"):
        dataclasses.replace(scheme, elements=beyond).isometry


def test_simulate_direct_analytic_example_m4():
    dist = simulate_direct(build_direct_scheme(4), pure_phase_state(np.pi / 2))
    np.testing.assert_allclose(dist.probabilities, [0.25, 0.5, 0.25, 0.0], atol=1e-12)


def test_simulate_direct_maximally_mixed_is_uniform():
    dist = simulate_direct(build_direct_scheme(8), np.eye(2) / 2.0)
    np.testing.assert_allclose(dist.probabilities, np.full(8, 1.0 / 8.0), atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_simulate_direct_matches_analytic_on_random_states(m):
    rng = np.random.default_rng(SEED + m)
    scheme = build_direct_scheme(m)
    povm = phase_povm(m)
    for _ in range(25):
        rho = random_density(rng)
        dist = simulate_direct(scheme, rho)
        expected = [outcome_probability(povm, k, rho) for k in range(m)]
        np.testing.assert_allclose(dist.probabilities, expected, atol=1e-10)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-10


def test_simulate_direct_mixed_state_linearity():
    rng = np.random.default_rng(SEED)
    scheme = build_direct_scheme(8)
    for _ in range(100):
        a = rng.uniform()
        r1, r2 = random_density(rng), random_density(rng)
        blend = simulate_direct(scheme, a * r1 + (1 - a) * r2).probabilities
        parts = (
            a * simulate_direct(scheme, r1).probabilities
            + (1 - a) * simulate_direct(scheme, r2).probabilities
        )
        np.testing.assert_allclose(blend, parts, atol=1e-10)


def test_simulate_netlist_agrees_with_direct_scheme():
    rng = np.random.default_rng(SEED)
    for m in (2, 4, 8):
        net = decompose_closed(m)
        scheme = build_direct_scheme(m)
        for _ in range(10):
            rho = random_density(rng)
            a = simulate_netlist(net, rho).probabilities
            b = simulate_direct(scheme, rho).probabilities
            np.testing.assert_allclose(a, b, atol=1e-12)


FOLDED_MS = [2**n for n in range(2, 13)]


@pytest.mark.parametrize("m", FOLDED_MS)
def test_folded_schedule_has_a_tap_per_block_and_the_last_is_one(m):
    taps = build_folded_schedule(m)
    if m == 8:
        assert taps == [1.0 / 4.0, 1.0 / 3.0, 1.0 / 2.0, 1.0]
    assert len(taps) == m // 2
    assert all(a < b for a, b in zip(taps, taps[1:]))
    # the exit slot is block M/2 - 1, whose angle is 0: its tap is exactly 1
    assert taps[-1] == 1.0
    # the tap is cos^2 of the direct scheme's block angle
    angles = [triplet_angle(m, k) for k in range(m // 2)]
    assert angles[-1] == 0.0
    np.testing.assert_allclose(taps, np.cos(angles) ** 2, rtol=0, atol=1e-15)


def _folded_isometry_with_exit_line(m):
    """The loop over the M/2 - 1 active slots, then the exit slot written out as cos(0) * hv."""
    hv = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    hv[1] *= np.exp(-1j * np.pi / 2)
    clicks = np.empty((m // 2, 2, 2), dtype=complex)
    cr, sr = np.cos(np.pi + np.pi / m), np.sin(np.pi + np.pi / m)
    for k in range(m // 2 - 1):
        tap = 2.0 / (m - 2 * k)
        clicks[k] = np.sqrt(tap) * hv
        hv = np.array([[cr, sr], [-sr, cr]]) @ (-np.sqrt(1.0 - tap) * hv)
    clicks[m // 2 - 1] = np.cos(0.0) * hv
    return clicks.transpose(1, 0, 2).reshape(m, 2)


@pytest.mark.parametrize("m", FOLDED_MS)
def test_folded_isometry_equals_the_exit_line_form_bit_for_bit(m):
    got = _folded_isometry(m)
    expected = _folded_isometry_with_exit_line(m)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_folded_schedule_rejects_m2():
    with pytest.raises(ValueError, match="loop"):
        build_folded_schedule(2)
    with pytest.raises(ValueError):
        simulate_folded(2, np.eye(2) / 2.0)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_folded_equals_direct_on_random_states(m):
    rng = np.random.default_rng(SEED + m)
    scheme = build_direct_scheme(m)
    for _ in range(20):
        rho = random_density(rng)
        folded = simulate_folded(m, rho)
        direct = simulate_direct(scheme, rho)
        np.testing.assert_allclose(folded.probabilities, direct.probabilities, atol=1e-10)
        assert abs(folded.probabilities.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("m", [4, 256])
def test_folded_isometry_is_an_isometry(m):
    v = _folded_isometry(m)
    assert v.shape == (m, 2)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), rtol=0, atol=1e-12)


def test_folded_maximally_mixed_slots_are_uniform_pairs():
    p = simulate_folded(8, np.eye(2) / 2.0).probabilities
    assert p.shape == (8,)
    np.testing.assert_allclose(p.reshape(2, 4).T, np.full((4, 2), 1.0 / 8.0), atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 8, 256, 1024])
def test_a_stack_of_states_equals_the_per_state_calls_bit_for_bit(m):
    rng = np.random.default_rng(SEED + m)
    rhos = np.array([random_density(rng, pure=bool(s % 2)) for s in range(20)])
    povm, scheme, net = phase_povm(m), build_direct_scheme(m), decompose_closed(m)
    layers = {
        "outcome_distribution": lambda rho: outcome_distribution(povm, rho),
        "simulate_direct": lambda rho: simulate_direct(scheme, rho),
        "simulate_netlist": lambda rho: simulate_netlist(net, rho),
    }
    if m > 2:
        layers["simulate_folded"] = lambda rho: simulate_folded(m, rho)
    for name, run in layers.items():
        stacked = run(rhos).probabilities
        assert stacked.shape == (20, m), name
        for s, rho in enumerate(rhos):
            assert np.array_equal(stacked[s], run(rho).probabilities), (name, s)
