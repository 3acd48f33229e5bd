"""Acceptance gate: one test per release criterion, each printing a verdict.

Every criterion prints a single `acceptance N: PASS/FAIL` line (visible
even under captured output) and then asserts, so a red run still shows
the full scoreboard. Tolerances are pinned here on purpose; loosening
them is a release decision, not a test fix.
"""

import time

import numpy as np
import pytest

from phasepovm.compiler import (
    GivensRotation,
    PhaseShift,
    canonical_angle,
    decompose_by_elimination,
    decompose_closed,
    evaluate_netlist,
    netlists_equal,
)
from phasepovm.naimark import build_extension_closed, build_extension_recursive, projector
from phasepovm.numerics import partial_trace_ancilla
from phasepovm.optics import (
    PBS,
    PPBS,
    PolarizationRotation,
    WaveplatePhase,
    ModeAmplitudes,
    apply_element,
    build_direct_scheme,
    simulate_direct,
    simulate_folded,
)
from phasepovm.povm import (
    analytic_phase_distribution,
    guessing_probability,
    outcome_probability,
    phase_povm,
    povm_element,
    random_density,
)

SEED = 20240811


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _reference_z8():
    # hand-typed oracle, independent of the construction code (same
    # entries as the naimark unit-test reference)
    s = 1.0 / np.sqrt(8.0)

    def e(a):
        return np.exp(1j * a * np.pi / 8.0)

    def c(a):
        return np.cos(a * np.pi / 8.0)

    def sn(a):
        return np.sin(a * np.pi / 8.0)

    r48, r24, r8 = np.sqrt(48.0), np.sqrt(24.0), np.sqrt(8.0)
    return np.array(
        [
            [s, -1j * s, e(-1) * s, e(-5) * s, e(-2) * s, e(-6) * s, e(-3) * s, e(-7) * s],
            [s, 1j * s, e(1) * s, e(5) * s, e(2) * s, e(6) * s, e(3) * s, e(7) * s],
            [np.sqrt(6.0 / 8.0), 0, -2 * c(1) / r48, 2 * sn(1) / r48,
             -2 * c(2) / r48, 2 * sn(2) / r48, -2 * c(3) / r48, 2 * sn(3) / r48],
            [0, np.sqrt(6.0 / 8.0), -2 * sn(1) / r48, -2 * c(1) / r48,
             -2 * sn(2) / r48, -2 * c(2) / r48, -2 * sn(3) / r48, -2 * c(3) / r48],
            [0, 0, np.sqrt(4.0 / 6.0), 0, -2 * c(1) / r24, 2 * sn(1) / r24,
             -2 * c(2) / r24, 2 * sn(2) / r24],
            [0, 0, 0, np.sqrt(4.0 / 6.0), -2 * sn(1) / r24, -2 * c(1) / r24,
             -2 * sn(2) / r24, -2 * c(2) / r24],
            [0, 0, 0, 0, np.sqrt(2.0 / 4.0), 0, -2 * c(1) / r8, 2 * sn(1) / r8],
            [0, 0, 0, 0, 0, np.sqrt(2.0 / 4.0), -2 * sn(1) / r8, -2 * c(1) / r8],
        ],
        dtype=complex,
    )


def test_acceptance_1_closed_form_reproduces_reference_m8(capsys):
    start = time.perf_counter()
    z = build_extension_closed(8).Z
    elapsed = time.perf_counter() - start
    diff = float(np.max(np.abs(z - _reference_z8())))
    ok = diff <= 1e-12 and elapsed < 1.0
    _report(capsys, 1, ok, f"closed form vs 8x8 reference: {diff:.2e}, {elapsed:.3f}s")
    assert diff <= 1e-12
    assert elapsed < 1.0


def test_acceptance_2_recursive_equals_closed_form(capsys):
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 4, 8, 16, 32, 64):
        diff = float(
            np.max(np.abs(build_extension_recursive(m).Z - build_extension_closed(m).Z))
        )
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(capsys, 2, ok, f"recursive vs closed, M up to 64: {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_acceptance_3_unitarity_and_projector_constraints(capsys):
    start = time.perf_counter()
    worst_unitarity = 0.0
    m = 2
    while m <= 1024:
        z = build_extension_closed(m).Z
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(z.conj().T @ z - np.eye(m))))
        )
        m *= 2

    worst_pair = 0.0
    worst_block = 0.0
    for m in (2, 4, 8, 16, 32, 64):
        ext = build_extension_closed(m)
        projs = [projector(ext, k) for k in range(m)]
        for k in range(m):
            for l in range(m):
                target = projs[k] if k == l else 0.0
                worst_pair = max(
                    worst_pair, float(np.max(np.abs(projs[k] @ projs[l] - target)))
                )
            block = partial_trace_ancilla(projs[k])
            worst_block = max(
                worst_block, float(np.max(np.abs(block - povm_element(m, k))))
            )
    elapsed = time.perf_counter() - start
    ok = worst_unitarity <= 1e-9 and worst_pair <= 1e-10 and worst_block <= 1e-10 and elapsed < 60.0
    _report(
        capsys, 3, ok,
        f"unitarity to M=1024: {worst_unitarity:.2e}, projector products: "
        f"{worst_pair:.2e}, reduced blocks: {worst_block:.2e}, {elapsed:.1f}s",
    )
    assert worst_unitarity <= 1e-9
    assert worst_pair <= 1e-10
    assert worst_block <= 1e-10
    assert elapsed < 60.0


def test_acceptance_4_decomposition_round_trip(capsys):
    worst_round = 0.0
    counts_ok = True
    elimination_ok = True
    for m in (2, 4, 8, 16, 32, 64):
        ext = build_extension_closed(m)
        net = decompose_closed(m)
        counts_ok = counts_ok and len(net.elements) == 2 + 3 * (m // 2 - 1)
        worst_round = max(
            worst_round,
            float(np.max(np.abs(evaluate_netlist(net) @ ext.Z - np.eye(m)))),
        )
        elimination_ok = elimination_ok and netlists_equal(
            net, decompose_by_elimination(ext), tol=1e-10
        )

    # M=8 element-for-element reference, application order
    t3, t2 = np.arctan(np.sqrt(3.0)), np.arctan(np.sqrt(2.0))
    mix = np.pi + np.pi / 8.0
    reference = (
        GivensRotation(1, 2, np.pi / 4.0),
        PhaseShift(2, np.pi / 2.0),
        GivensRotation(1, 3, t3),
        GivensRotation(2, 4, t3),
        GivensRotation(3, 4, mix),
        GivensRotation(3, 5, t2),
        GivensRotation(4, 6, t2),
        GivensRotation(5, 6, mix),
        GivensRotation(5, 7, np.pi / 4.0),
        GivensRotation(6, 8, np.pi / 4.0),
        GivensRotation(7, 8, mix),
    )
    got = decompose_closed(8).elements
    m8_ok = len(got) == len(reference)
    if m8_ok:
        for a, b in zip(got, reference):
            if type(a) is not type(b):
                m8_ok = False
                break
            if isinstance(a, GivensRotation):
                m8_ok = (a.u, a.v) == (b.u, b.v) and abs(
                    canonical_angle(a.omega - b.omega)
                ) <= 1e-10
            else:
                m8_ok = a.u == b.u and abs(canonical_angle(a.phi - b.phi)) <= 1e-10
            if not m8_ok:
                break

    ok = worst_round <= 1e-9 and counts_ok and m8_ok and elimination_ok
    _report(
        capsys, 4, ok,
        f"round trip to M=64: {worst_round:.2e}, counts exact: {counts_ok}, "
        f"M=8 reference netlist: {m8_ok}, elimination agrees: {elimination_ok}",
    )
    assert worst_round <= 1e-9
    assert counts_ok
    assert m8_ok
    assert elimination_ok


def test_acceptance_5_statistics_equivalence(capsys):
    rng = np.random.default_rng(SEED)
    worst_direct = 0.0
    worst_folded = 0.0
    for m in (2, 4, 8, 16):
        scheme = build_direct_scheme(m)
        povm = phase_povm(m)
        for _ in range(100):
            rho = random_density(rng)
            direct = simulate_direct(scheme, rho).probabilities
            analytic = np.array(
                [outcome_probability(povm, k, rho) for k in range(m)]
            )
            worst_direct = max(worst_direct, float(np.max(np.abs(direct - analytic))))
            if m > 2:
                # M=2 has no folded layout by contract (no loop to fold)
                folded = simulate_folded(m, rho).probabilities
                worst_folded = max(worst_folded, float(np.max(np.abs(folded - direct))))
    ok = worst_direct <= 1e-10 and worst_folded <= 1e-10
    _report(
        capsys, 5, ok,
        f"direct vs analytic: {worst_direct:.2e}, folded vs direct: {worst_folded:.2e} "
        f"(100 random states each, M in 2..16)",
    )
    assert worst_direct <= 1e-10
    assert worst_folded <= 1e-10


def test_acceptance_6_guessing_probability(capsys):
    worst = 0.0
    for m, expected in ((2, 1.0), (4, 0.5), (8, 0.25)):
        worst = max(worst, abs(guessing_probability(m) - expected))
    ok = worst <= 1e-12
    _report(capsys, 6, ok, f"guessing probability 2/M, worst deviation: {worst:.2e}")
    assert worst <= 1e-12


def test_acceptance_7_property_suites(capsys):
    rng = np.random.default_rng(SEED)
    powers = (2, 4, 8, 16, 32, 64)

    completeness = 0.0
    for _ in range(100):
        m = int(rng.choice(powers))
        total = sum(povm_element(m, k) for k in range(m))
        completeness = max(completeness, float(np.max(np.abs(total - np.eye(2)))))

    covariance = 0.0
    for _ in range(100):
        m = int(rng.choice(powers))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        base = analytic_phase_distribution(m, phi).probabilities
        shifted = analytic_phase_distribution(m, phi + 2.0 * np.pi / m).probabilities
        covariance = max(covariance, float(np.max(np.abs(shifted - np.roll(base, 1)))))

    norm_drift = 0.0
    for _ in range(100):
        paths = int(rng.integers(2, 5))
        a = rng.normal(size=2 * paths) + 1j * rng.normal(size=2 * paths)
        a /= np.linalg.norm(a)
        state = ModeAmplitudes(a)
        for _ in range(8):
            p1, p2 = (rng.choice(paths, size=2, replace=False) + 1).tolist()
            kind = rng.integers(4)
            if kind == 0:
                e = PolarizationRotation(p1, float(rng.uniform(0, 2 * np.pi)))
            elif kind == 1:
                e = WaveplatePhase(p1, float(rng.uniform(0, 2 * np.pi)))
            elif kind == 2:
                e = PPBS(p1, p2, float(rng.uniform(0, 2 * np.pi)),
                         float(rng.uniform(0, 2 * np.pi)))
            else:
                e = PBS(p1, p2)
            state = apply_element(state, e)
            norm_drift = max(
                norm_drift, abs(float(np.linalg.norm(state.amplitudes)) - 1.0)
            )

    linearity = 0.0
    scheme = build_direct_scheme(8)
    for _ in range(100):
        alpha = rng.uniform()
        r1, r2 = random_density(rng), random_density(rng)
        blend = simulate_direct(scheme, alpha * r1 + (1 - alpha) * r2).probabilities
        parts = (
            alpha * simulate_direct(scheme, r1).probabilities
            + (1 - alpha) * simulate_direct(scheme, r2).probabilities
        )
        linearity = max(linearity, float(np.max(np.abs(blend - parts))))

    ok = (
        completeness <= 1e-12
        and covariance <= 1e-12
        and norm_drift <= 1e-10
        and linearity <= 1e-10
    )
    _report(
        capsys, 7, ok,
        f"completeness: {completeness:.2e}, covariance: {covariance:.2e}, "
        f"norm conservation: {norm_drift:.2e}, linearity: {linearity:.2e} "
        f"(100 seeded instances each)",
    )
    assert completeness <= 1e-12
    assert covariance <= 1e-12
    assert norm_drift <= 1e-10
    assert linearity <= 1e-10
