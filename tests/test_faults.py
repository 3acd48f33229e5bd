"""Fault matrix: one injected fault per row, each judged by `verify` as failed checks.

Every row patches one layer, runs `verify --M 16` through `cli.main`, and
expects exit 2 with all eleven check lines, the structural line and
`verification: FAIL` on stderr, and the same eleven checks with
`"passed": false` in the JSON. The checks a row expects to fail are the
ones its fault reaches; every other check must pass.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

import phasepovm.cli as cli
import phasepovm.compiler as compiler
import phasepovm.naimark as naimark
import phasepovm.optics as optics
import phasepovm.povm as povm

# verify's checks, in the order it prints and writes them
CHECKS = (
    "closed_vs_recursive",
    "orthogonality",
    "norms",
    "povm_blocks",
    "unitarity",
    "probability_constraint",
    "netlist_round_trip",
    "elimination_round_trip",
    "direct_vs_analytic",
    "folded_vs_direct",
    "guessing_probability",
)
CHECK_LINE = re.compile(r"([a-z_]+): (\S+) \[(ok|FAIL)\]")
# every check that reads the closed Z
Z_CHECKS = {
    "closed_vs_recursive",
    "orthogonality",
    "norms",
    "povm_blocks",
    "unitarity",
    "probability_constraint",
    "netlist_round_trip",
    "elimination_round_trip",
}


def closed_entry(change):
    """Apply ``change`` to the first closed-form entry, Z[0, 0] = 1/sqrt(M)."""
    columns = naimark._closed_form_columns

    def patched(m):
        z = columns(m)
        z[0, 0] = change(z[0, 0])
        return z

    return [(naimark, "_closed_form_columns", patched)]


def swapped_column_order():
    order = naimark.column_order

    def patched(m):
        o = list(order(m))
        o[2], o[3] = o[3], o[2]
        return tuple(o)

    return [(naimark, "column_order", patched)]


def nan_in_recursive_z():
    build = cli.build_extension_recursive

    def patched(m):
        ext = build(m)
        z = ext.Z.copy()
        z[3, 2] = np.nan
        return dataclasses.replace(ext, Z=z)

    return [(cli, "build_extension_recursive", patched)]


def shifted_optics_angle():
    # the compiler keeps the true angle and the folded schedule derives its
    # own taps, so only the direct layout moves
    return [(optics, "triplet_angle", lambda m, k: compiler.triplet_angle(m, k) + 1e-6)]


def shifted_compiler_angle():
    # optics keeps its own reference to the true angle, so only the netlists move
    angle = compiler.triplet_angle
    return [(compiler, "triplet_angle", lambda m, k: angle(m, k) + 1e-6)]


def shifted_waveplate_phase():
    lower = optics._lower

    def patched(e, paths):
        if type(e) is optics.WaveplatePhase:
            e = dataclasses.replace(e, phase=e.phase + 1e-6)
        return lower(e, paths)

    return [(optics, "_lower", patched)]


def conjugated_click_step():
    # both layouts share the slip, so only the qubit-level references see it
    clicks = povm.click_probabilities

    def slipped(v, rho):
        return clicks(v.conj(), rho)

    return [(module, "click_probabilities", slipped) for module in (optics, naimark)]


def conjugated_povm():
    build = povm.phase_povm

    def patched(m):
        p = build(m)
        return dataclasses.replace(p, elements=p.elements.conj())

    # every module that reads the POVM holds its own reference
    return [(module, "phase_povm", patched) for module in (cli, naimark, povm)]


def swapped_folded_rows():
    build = optics._folded_isometry
    return [(optics, "_folded_isometry", lambda m: build(m)[[1, 0, *range(2, m)]])]


def leaking_exit_tap():
    # the exit splitter keeps 1e-6 of the loop's share instead of letting all of it out
    schedule = optics.build_folded_schedule
    return [(optics, "build_folded_schedule", lambda m: [*schedule(m)[:-1], 1.0 - 1e-6])]


def negated_kernel_angle():
    # both netlist sweeps run on the kernel; the direct V runs on its own
    # scalars and the folded V on its own loop, so neither optical check moves
    rotate = compiler.rotate_rows
    return [(compiler, "rotate_rows", lambda arr, i, j, angle: rotate(arr, i, j, -angle))]


def non_unitary_kernel(cos_scale=1.0, sign_j=-1.0):
    """The netlist sweeps' kernel as [[c, s], [sign_j s, c]], with c = cos * cos_scale.

    The elimination's unitarity bound holds only for a unitary kernel, so
    each such kernel must fail a check.
    """

    def rotate(arr, i, j, angle):
        c, s = np.cos(angle) * cos_scale, np.sin(angle)
        ri, rj = arr[i, ...], arr[j, ...]
        to_i, to_j = s * rj, sign_j * s * ri
        np.multiply(c, ri, out=ri)
        ri += to_i
        np.multiply(c, rj, out=rj)
        rj += to_j

    return [(compiler, "rotate_rows", rotate)]


# (fault, patches, checks expected to FAIL, structural match expected)
FAULTS = [
    (
        "closed_entry_scaled",
        lambda: closed_entry(lambda v: v * (1 + 1e-6)),
        Z_CHECKS,
        False,
    ),
    ("closed_entry_nan", lambda: closed_entry(lambda v: np.nan), Z_CHECKS, False),
    (
        "column_order_swapped",
        swapped_column_order,
        # Z stays unitary, but outside the elimination schedule: no certificate
        {
            "closed_vs_recursive",
            "orthogonality",
            "unitarity",
            "netlist_round_trip",
            "elimination_round_trip",
        },
        False,
    ),
    ("recursive_z_nan", nan_in_recursive_z, {"closed_vs_recursive"}, True),
    (
        "optics_triplet_angle_shifted",
        shifted_optics_angle,
        {"direct_vs_analytic", "folded_vs_direct"},
        True,
    ),
    (
        "compiler_triplet_angle_shifted",
        shifted_compiler_angle,
        # the elimination never reads the closed netlist; the structural match catches it
        {"netlist_round_trip"},
        False,
    ),
    (
        "waveplate_phase_shifted",
        shifted_waveplate_phase,
        {"direct_vs_analytic", "folded_vs_direct"},
        True,
    ),
    (
        "click_probabilities_conjugated",
        conjugated_click_step,
        {"probability_constraint", "direct_vs_analytic"},
        True,
    ),
    (
        "povm_conjugated",
        conjugated_povm,
        {"povm_blocks", "probability_constraint", "direct_vs_analytic", "guessing_probability"},
        True,
    ),
    ("folded_v_rows_swapped", swapped_folded_rows, {"folded_vs_direct"}, True),
    ("exit_slot_tap_leaks", leaking_exit_tap, {"folded_vs_direct"}, True),
    (
        "rotation_kernel_angle_negated",
        negated_kernel_angle,
        {"orthogonality", "unitarity", "netlist_round_trip", "elimination_round_trip"},
        False,
    ),
    (
        "rotation_kernel_cos_scaled",
        lambda: non_unitary_kernel(cos_scale=1 + 1e-6),
        {"orthogonality", "unitarity", "netlist_round_trip", "elimination_round_trip"},
        False,
    ),
    (
        "rotation_kernel_not_orthogonal",
        lambda: non_unitary_kernel(sign_j=1.0),
        {"orthogonality", "unitarity", "netlist_round_trip", "elimination_round_trip"},
        False,
    ),
]


def run_verify(tmp_path, capsys, *flags):
    """(exit code, {check: 'ok' | 'FAIL'}, stderr lines, JSON payload) of one verify run."""
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--M", "16", "--out", str(out), *flags])
    lines = capsys.readouterr().err.splitlines()
    verdicts = [m.groups() for m in map(CHECK_LINE.fullmatch, lines) if m]
    assert [name for name, _, _ in verdicts] == list(CHECKS)
    payload = json.loads(out.read_text())
    assert list(payload["checks"]) == list(CHECKS)
    return code, {name: verdict for name, _, verdict in verdicts}, lines, payload


@pytest.mark.parametrize(
    "patches, failing, structural",
    [row[1:] for row in FAULTS],
    ids=[row[0] for row in FAULTS],
)
def test_verify_judges_every_fault_as_failed_checks(
    monkeypatch, tmp_path, capsys, patches, failing, structural
):
    for module, name, value in patches():
        monkeypatch.setattr(module, name, value)
    code, verdicts, lines, payload = run_verify(tmp_path, capsys)
    assert code == 2
    assert {name for name, v in verdicts.items() if v == "FAIL"} == failing
    assert lines[len(CHECKS)] == f"elimination netlist structurally equal: {structural}"
    assert lines[len(CHECKS) + 1:] == ["verification: FAIL"]
    assert payload["passed"] is False
    assert payload["elimination_structural_match"] is structural


def test_tolerance_alone_judges_a_perturbed_z(monkeypatch, tmp_path, capsys):
    for module, name, value in closed_entry(lambda v: v * (1 + 1e-8)):
        monkeypatch.setattr(module, name, value)
    code, verdicts, lines, payload = run_verify(tmp_path, capsys, "--tolerance", "1e-6")
    assert code == 0
    assert set(verdicts.values()) == {"ok"}
    assert payload["passed"] is True
    code, verdicts, lines, payload = run_verify(tmp_path, capsys)
    assert code == 2
    assert {name for name, v in verdicts.items() if v == "FAIL"} == Z_CHECKS
    assert lines[-1] == "verification: FAIL"
    assert payload["passed"] is False
