"""Tests for the command-line front end (exit codes, files, determinism)."""

import collections
import json
import tracemalloc

import numpy as np
import pytest

import phasepovm.cli as cli
import phasepovm.naimark as naimark
from phasepovm.cli import main
from phasepovm.naimark import build_extension_closed
from phasepovm.optics import SlotDistribution
from phasepovm.povm import (
    OutcomeDistribution,
    analytic_phase_distribution,
    guessing_probability,
    psi_k,
)


def run(*args):
    return main(list(args))


def test_povm_distribution_m2_phi0(capsys):
    assert run("povm", "--M", "2", "--phi", "0") == 0
    out = capsys.readouterr().out
    assert "P(0) = 1.0" in out
    assert "P(1) = 0.0" in out


def test_povm_without_phi_prints_elements_only(capsys):
    assert run("povm", "--M", "8") == 0
    out = capsys.readouterr().out
    assert "Pi_7:" in out
    assert "analytic distribution" not in out


def test_povm_rejects_non_power_of_two(capsys):
    assert run("povm", "--M", "3") == 1
    assert "M must be a power of 2" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert run() == 1
    assert run("povm") == 1  # --M required
    assert run("no-such-command", "--M", "4") == 1
    assert run("povm", "--M", "4", "--format", "yaml") == 1
    capsys.readouterr()
    # only extend, simulate and sweep have a CSV form; JSON stays accepted
    for args in (
        ("verify", "--M", "4"),
        ("compare", "--M", "4", "--phi", "1"),
    ):
        assert run(*args, "--format", "csv") == 1
        assert "--format csv applies to extend, simulate, sweep" in capsys.readouterr().err
        assert run(*args, "--format", "json") == 0
    capsys.readouterr()
    # above the M ceiling: refused by RunConfig, before any M x M array exists
    assert run("verify", "--M", "8192") == 1
    assert "at most 4096" in capsys.readouterr().err
    assert run("povm", "--M", "65536") == 1
    assert "at most 4096" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_povm_takes_no_format(capsys, fmt):
    # povm writes text only, so any --format is a usage error
    assert run("povm", "--M", "4", "--format", fmt) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format" in captured.err


def test_negative_tolerance_is_a_usage_error(capsys):
    for bad in ("-1", "inf", "nan"):
        assert run("verify", "--M", "4", "--tolerance", bad) == 1
        assert "tolerance" in capsys.readouterr().err
    assert run("povm", "--M", "4", "--phi", "nan") == 1
    assert "phi" in capsys.readouterr().err


def test_extend_writes_both_matrices(tmp_path, capsys):
    base = tmp_path / "ext.json"
    assert run("extend", "--M", "8", "--out", str(base)) == 0
    closed = json.loads((tmp_path / "ext_closed.json").read_text())
    recursive = json.loads((tmp_path / "ext_recursive.json").read_text())
    assert closed["M"] == 8
    assert closed["column_order"] == [0, 4, 1, 5, 2, 6, 3, 7]
    z = np.array([[complex(re, im) for re, im in row] for row in closed["matrix"]])
    np.testing.assert_allclose(z, build_extension_closed(8).Z, atol=1e-15)
    assert recursive["M"] == 8
    err = capsys.readouterr().err
    assert "PASS" in err


def test_extend_csv_format(tmp_path, capsys):
    base = tmp_path / "ext.csv"
    assert run("extend", "--M", "4", "--out", str(base), "--format", "csv") == 0
    text = (tmp_path / "ext_closed.csv").read_text()
    assert text.splitlines()[0].startswith("col0_re,col0_im")
    capsys.readouterr()


def test_extend_rejects_bad_m(capsys):
    assert run("extend", "--M", "6") == 1
    capsys.readouterr()


def test_compile_emits_netlist_json(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert run("compile", "--M", "8", "--out", str(out), "--verify") == 0
    net = json.loads(out.read_text())
    assert net["M"] == 8
    assert len(net["elements"]) == 11
    assert net["elements"][0]["kind"] == "givens"
    assert net["elements"][1]["kind"] == "phase"
    err = capsys.readouterr().err
    assert "round-trip residual" in err


def test_compile_m2_has_two_elements(tmp_path, capsys):
    out = tmp_path / "net2.json"
    assert run("compile", "--M", "2", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["elements"]) == 2
    capsys.readouterr()


def test_compile_refuses_csv(capsys):
    assert run("compile", "--M", "4", "--format", "csv") == 1
    assert "JSON" in capsys.readouterr().err


def test_simulate_direct_json(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert run("simulate", "--M", "8", "--phi", "0", "--out", str(out)) == 0
    dist = json.loads(out.read_text())
    assert dist["M"] == 8
    assert dist["probabilities"][0] == pytest.approx(0.25, abs=1e-12)
    assert max(dist["probabilities"]) == pytest.approx(dist["probabilities"][0])
    capsys.readouterr()


def test_simulate_folded_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run(
        "simulate", "--M", "8", "--phi", "0.4", "--scheme", "folded",
        "--format", "csv", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "slot,p_h,p_v"
    assert len(lines) == 1 + 4
    capsys.readouterr()


def test_simulate_both_reports_discrepancy(capsys):
    assert run("simulate", "--M", "8", "--phi", "1.0", "--scheme", "both") == 0
    err = capsys.readouterr().err
    assert "discrepancy" in err


def test_simulate_requires_a_state(capsys):
    assert run("simulate", "--M", "8") == 1
    assert "--phi or --state-file" in capsys.readouterr().err


def test_simulate_rejects_folded_m2(capsys):
    assert run("simulate", "--M", "2", "--phi", "0", "--scheme", "folded") == 1
    capsys.readouterr()


def test_simulate_state_file(tmp_path, capsys):
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    payload = [[[v.real, v.imag] for v in row] for row in rho]
    f = tmp_path / "state.json"
    f.write_text(json.dumps(payload))
    out = tmp_path / "dist.json"
    assert run("simulate", "--M", "4", "--state-file", str(f), "--out", str(out)) == 0
    dist = json.loads(out.read_text())
    assert sum(dist["probabilities"]) == pytest.approx(1.0, abs=1e-10)
    capsys.readouterr()


def test_state_file_validation_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]))
    assert run("simulate", "--M", "4", "--state-file", str(bad)) == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert run("simulate", "--M", "4", "--state-file", str(notjson)) == 1
    assert run("simulate", "--M", "4", "--state-file", str(tmp_path / "missing.json")) == 1
    capsys.readouterr()


def test_phi_and_state_file_together_rejected(tmp_path, capsys):
    f = tmp_path / "state.json"
    f.write_text(json.dumps([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]))
    assert run("simulate", "--M", "4", "--phi", "0", "--state-file", str(f)) == 1
    capsys.readouterr()


def test_sweep_rows_sum_to_one(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(
        "sweep", "--M", "4", "--steps", "360", "--format", "csv", "--out", str(out)
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "phi,p_0,p_1,p_2,p_3"
    assert len(lines) == 1 + 360
    for line in lines[1:]:
        vals = [float(x) for x in line.split(",")]
        assert sum(vals[1:]) == pytest.approx(1.0, abs=1e-10)
    err = capsys.readouterr().err
    assert "guessing probability" in err
    guess = float(err.split("guessing probability:")[1].split()[0])
    assert guess == pytest.approx(0.5, abs=1e-12)


def test_sweep_files_equal_the_reference_encodings(tmp_path, capsys):
    # reference: one analytic_phase_distribution call per phase
    phis = [2.0 * np.pi * i / 90 for i in range(90)]
    rows = [analytic_phase_distribution(8, phi).probabilities for phi in phis]
    payload = {
        "M": 8,
        "steps": 90,
        "guessing_probability": guessing_probability(8),
        "rows": [
            {"phi": phi, "probabilities": [float(p) for p in probs]}
            for phi, probs in zip(phis, rows)
        ],
    }
    lines = ["phi," + ",".join(f"p_{k}" for k in range(8))] + [
        f"{phi!r}," + ",".join(repr(float(p)) for p in probs)
        for phi, probs in zip(phis, rows)
    ]
    expected = {
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": "\n".join(lines) + "\n",
    }
    for fmt, text in expected.items():
        out = tmp_path / f"s.{fmt}"
        args = ("sweep", "--M", "8", "--steps", "90", "--format", fmt)
        assert run(*args, "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == text
        assert run(*args) == 0
        assert capsys.readouterr().out == text


def test_sweep_memory_does_not_grow_with_steps(monkeypatch, capsys):
    # drop each block unformatted, so only the table computation is measured
    monkeypatch.setattr(
        cli, "write_csv_rows", lambda fh, header, blocks: collections.deque(blocks, 0)
    )
    peaks = []
    for steps in (10_000, 2_000_000):
        tracemalloc.start()
        try:
            assert run("sweep", "--M", "2", "--steps", str(steps), "--format", "csv") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # whole-grid index and phase arrays would add 16 bytes per step, 32 MB here
    assert peaks[1] - peaks[0] < 1 << 20, peaks
    capsys.readouterr()


def test_sweep_steps_zero_is_usage_error(capsys):
    assert run("sweep", "--M", "4", "--steps", "0") == 1
    capsys.readouterr()


def test_compare_passes_at_default_tolerance(capsys):
    assert run("compare", "--M", "8", "--phi", "1.1") == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["passed"] is True
    assert payload["residuals"]["direct_vs_analytic"] <= 1e-10
    assert payload["residuals"]["folded_vs_direct"] <= 1e-10


def test_verify_pass_and_metadata(capsys):
    assert run("verify", "--M", "8", "--seed", "7") == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["passed"] is True
    assert payload["seed"] == 7
    assert payload["M"] == 8
    assert "netlist_round_trip" in payload["checks"]
    assert "verification: PASS" in out.err


def test_verify_impossible_tolerance_exits_2(capsys):
    assert run("verify", "--M", "4", "--tolerance", "1e-30") == 2
    capsys.readouterr()


def test_verify_fails_on_a_nan_simulator_residual(monkeypatch, capsys):
    real = cli.simulate_direct

    def nan_on_second_state(scheme, rho):
        # verify simulates its states as one stack; row 1 is the second state
        p = real(scheme, rho).probabilities.copy()
        assert p.shape == (naimark.NUM_STATES, scheme.M)
        p[1] = np.nan
        return OutcomeDistribution(M=scheme.M, probabilities=p)

    monkeypatch.setattr(cli, "simulate_direct", nan_on_second_state)
    assert run("verify", "--M", "8") == 2
    err = capsys.readouterr().err
    assert "direct_vs_analytic: nan [FAIL]" in err
    assert "verification: FAIL" in err


def test_verify_exits_2_when_the_recursion_cannot_complete(monkeypatch, capsys):
    # X X† = 0.81 I: the last two columns cannot reach unit norm
    monkeypatch.setattr(naimark, "psi_k", lambda m, k: 0.9 * psi_k(m, k))
    assert run("verify", "--M", "8") == 2
    assert "verification failure: M=8" in capsys.readouterr().err


def test_simulate_both_fails_on_a_nan_folded_result(monkeypatch, capsys):
    def nan_folded(m, rho):
        return SlotDistribution(M=m, probabilities=np.full((m // 2, 2), np.nan))

    monkeypatch.setattr(cli, "simulate_folded", nan_folded)
    assert run("simulate", "--M", "8", "--phi", "0.7", "--scheme", "both") == 2
    assert "max direct/folded discrepancy: nan" in capsys.readouterr().err


def test_compile_verify_fails_on_a_nan_round_trip(monkeypatch, capsys):
    def nan_apply(net, a):
        a[...] = np.nan
        return a

    monkeypatch.setattr(cli, "apply_netlist", nan_apply)
    assert run("compile", "--M", "8", "--verify") == 2
    assert "round-trip residual |netlist * Z - I|: nan" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert run("verify", "--M", "8", "--seed", "3", "--out", str(target)) == 0
    assert a.read_bytes() == b.read_bytes()
    first, second = tmp_path / "first" / "e.json", tmp_path / "second" / "e.json"
    for target in (first, second):
        target.parent.mkdir()
        assert run("extend", "--M", "64", "--out", str(target)) == 0
    for name in ("e_closed.json", "e_recursive.json"):
        assert (first.parent / name).read_bytes() == (second.parent / name).read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for target in (c, d):
        assert run(
            "sweep", "--M", "8", "--steps", "90", "--format", "csv", "--out", str(target)
        ) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()
