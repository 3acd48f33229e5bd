"""Tests for the command-line front end (exit codes, files, determinism)."""

import collections
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phasepovm.cli as cli
import phasepovm.naimark as naimark
from phasepovm.cli import main
from phasepovm.naimark import build_extension_closed
from phasepovm.optics import build_direct_scheme, simulate_direct, simulate_folded
from phasepovm.povm import (
    OutcomeDistribution,
    analytic_phase_distribution,
    guessing_probability,
    psi_k,
    pure_phase_state,
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


def test_usage_errors_exit_1(tmp_path, capsys):
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
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
        assert run(*args, "--format", "json") == 0
    capsys.readouterr()
    # above the M ceiling: refused by the parser, before any M x M array exists
    assert run("verify", "--M", "8192") == 1
    err = capsys.readouterr().err
    assert "argument --M" in err and "at most 4096" in err
    assert run("povm", "--M", "65536") == 1
    assert "at most 4096" in capsys.readouterr().err
    assert run("povm", "--M", "3") == 1
    assert "argument --M" in capsys.readouterr().err
    # a bad M is refused before --out is opened
    out = tmp_path / "f.csv"
    assert run("sweep", "--M", "3", "--steps", "4", "--out", str(out)) == 1
    assert not out.exists()
    assert run("simulate", "--M", "8", "--phi", "0", "--scheme", "both") == 1
    assert "invalid choice: 'both'" in capsys.readouterr().err
    # a negative seed is refused by the parser, before any Z is built or written
    assert run("verify", "--M", "8", "--seed", "-1") == 1
    assert "argument --seed" in capsys.readouterr().err
    assert run("extend", "--M", "8", "--seed", "-1", "--out", str(tmp_path / "f.json")) == 1
    assert "argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "f_closed.json").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_povm_takes_no_format(capsys, fmt):
    # povm writes text only, so any --format is a usage error
    assert run("povm", "--M", "4", "--format", fmt) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format" in captured.err


def test_flags_a_command_does_not_read_are_usage_errors(capsys):
    # --seed is read by extend and verify only; --tolerance by the five
    # commands that judge a residual
    assert run("povm", "--M", "4", "--seed", "1") == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert run("sweep", "--M", "4", "--steps", "8", "--tolerance", "1e-9") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tolerance 1e-9" in captured.err
    for args in (
        ("povm", "--M", "4", "--tolerance", "1e-9"),
        ("sweep", "--M", "4", "--steps", "8", "--seed", "1"),
        ("compile", "--M", "4", "--seed", "1"),
        ("simulate", "--M", "4", "--phi", "0", "--seed", "1"),
        ("compare", "--M", "4", "--phi", "0", "--seed", "1"),
    ):
        assert run(*args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    # compile judges only with --verify, so --tolerance alone is refused
    # before the netlist is written
    assert run("compile", "--M", "4", "--tolerance", "1e-9") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--verify" in captured.err


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
    assert err.endswith("extension verification: PASS (seed 0)\n")


def test_every_residual_line_names_a_verify_check(tmp_path, capsys):
    # every command prints its residuals as name: value [ok|FAIL] under
    # the names verify writes to its "checks" JSON
    line = re.compile(r"^([a-z_]+): \S+ \[(ok|FAIL)\]$", re.M)
    assert run("verify", "--M", "8", "--seed", "3") == 0
    captured = capsys.readouterr()
    names = list(json.loads(captured.out)["checks"])
    assert [name for name, _ in line.findall(captured.err)] == names
    for args, expected in (
        (
            ("extend", "--M", "8", "--seed", "3", "--out", str(tmp_path / "e.json")),
            names[:6],  # closed_vs_recursive, then the five Naimark checks
        ),
        (("compile", "--M", "8", "--verify"), ["netlist_round_trip"]),
        (
            ("simulate", "--M", "8", "--phi", "0.3", "--scheme", "folded"),
            ["direct_vs_analytic", "folded_vs_direct"],
        ),
        (("compare", "--M", "8", "--phi", "0.3"), ["direct_vs_analytic", "folded_vs_direct"]),
    ):
        assert run(*args) == 0
        found = line.findall(capsys.readouterr().err)
        assert found == [(name, "ok") for name in expected]
        assert set(expected) <= set(names)


def test_extend_impossible_tolerance_exits_2_naming_its_seed(tmp_path, capsys):
    out = str(tmp_path / "e.json")
    assert run("extend", "--M", "8", "--seed", "5", "--out", out, "--tolerance", "1e-30") == 2
    err = capsys.readouterr().err
    assert "[FAIL]" in err
    assert err.endswith("extension verification: FAIL (seed 5)\n")


def test_extend_csv_format(tmp_path, capsys):
    base = tmp_path / "ext.csv"
    assert run("extend", "--M", "4", "--out", str(base), "--format", "csv") == 0
    text = (tmp_path / "ext_closed.csv").read_text()
    assert text.splitlines()[0].startswith("col0_re,col0_im")
    capsys.readouterr()


def test_extend_refuses_a_directory_before_building(tmp_path, monkeypatch, capsys):
    def unreachable(m):
        raise AssertionError("built an extension before refusing --out")

    monkeypatch.setattr(cli, "build_extension_closed", unreachable)
    monkeypatch.setattr(cli, "build_extension_recursive", unreachable)
    target = tmp_path / "some_dir"
    target.mkdir()
    # a trailing slash names a directory even when there is none
    missing = tmp_path / "no_dir"
    for fmt in ("json", "csv"):
        for out in (str(target), f"{target}/", f"{missing}/"):
            assert run("extend", "--M", "8", "--format", fmt, "--out", out) == 1
            assert "Is a directory" in capsys.readouterr().err
    names = [p.name for p in tmp_path.rglob("*")]
    assert not [n for n in names if "_closed." in n or "_recursive." in n]


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
    assert re.search(r"^netlist_round_trip: \S+ \[ok\]$", err, re.M)


def test_compile_m2_has_two_elements(tmp_path, capsys):
    out = tmp_path / "net2.json"
    assert run("compile", "--M", "2", "--out", str(out)) == 0
    assert len(json.loads(out.read_text())["elements"]) == 2
    capsys.readouterr()


def test_compile_refuses_csv(capsys):
    assert run("compile", "--M", "4", "--format", "csv") == 1
    assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err


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


def test_simulate_files_equal_the_reference_encodings(tmp_path, capsys):
    # reference: the library's distribution, encoded entry by entry; slot s
    # of the folded scheme pairs outcomes s - 1 (H) and s - 1 + M/2 (V)
    rho = pure_phase_state(0.7)
    for m in (2, 8, 256):
        layouts = {"direct": simulate_direct(build_direct_scheme(m), rho).probabilities}
        if m >= 4:
            layouts["folded"] = simulate_folded(m, rho).probabilities
        for scheme, probs in layouts.items():
            if scheme == "direct":
                payload = {"M": m, "probabilities": [float(p) for p in probs]}
                lines = ["k,probability"] + [f"{k},{float(p)!r}" for k, p in enumerate(probs)]
            else:
                pairs = [
                    [float(probs[s - 1]), float(probs[s - 1 + m // 2])]
                    for s in range(1, m // 2 + 1)
                ]
                payload = {"M": m, "slots": m // 2, "pairs": pairs}
                lines = ["slot,p_h,p_v"]
                lines += [f"{s},{h!r},{v!r}" for s, (h, v) in enumerate(pairs, 1)]
            expected = {
                "json": json.dumps(payload, indent=2) + "\n",
                "csv": "\n".join(lines) + "\n",
            }
            for fmt, text in expected.items():
                out = tmp_path / f"sim.{fmt}"
                args = ("simulate", "--M", str(m), "--phi", "0.7", "--scheme", scheme)
                assert run(*args, "--format", fmt, "--out", str(out)) == 0
                assert out.read_text(encoding="utf-8") == text
                assert run(*args, "--format", fmt) == 0
                assert capsys.readouterr().out == text


def test_simulate_both_reports_discrepancy(capsys):
    assert run("simulate", "--M", "8", "--phi", "1.0") == 0
    err = capsys.readouterr().err
    assert re.search(r"^direct_vs_analytic: \S+ \[ok\]$", err, re.M)
    assert re.search(r"^folded_vs_direct: \S+ \[ok\]$", err, re.M)


def test_simulate_judges_and_writes_one_run_per_layout(monkeypatch, tmp_path, capsys):
    calls = collections.Counter()

    def counted(name):
        real = getattr(cli, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in ("simulate_direct", "simulate_folded"):
        monkeypatch.setattr(cli, name, counted(name))
    for scheme in ("direct", "folded"):
        out = tmp_path / f"{scheme}.json"
        args = ("simulate", "--M", "8", "--phi", "0.3", "--scheme", scheme, "--out", str(out))
        assert run(*args, "--tolerance", "1e-30") == 2
        assert "[FAIL]" in capsys.readouterr().err
        assert json.loads(out.read_text())["M"] == 8
    assert calls == {"simulate_direct": 2, "simulate_folded": 2}
    # M = 2 has no folded layout: refused before any check is printed
    assert run("simulate", "--M", "2", "--phi", "0", "--scheme", "folded") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not re.search(r"\[(ok|FAIL)\]", captured.err)


def test_simulate_requires_a_state(capsys):
    assert run("simulate", "--M", "8") == 1
    assert "one of the arguments --phi --state-file is required" in capsys.readouterr().err


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
    # a bool is not a number, an integer beyond float64 must not overflow,
    # and nesting too deep for the JSON parser is not a failed verification
    boolean = [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]
    huge = "[[[1" + "0" * 400 + ", 0], [0, 0]], [[0, 0], [0, 0]]]"
    files = (("bool.json", json.dumps(boolean)), ("huge.json", huge), ("deep.json", "[" * 100_000))
    for name, text in files:
        f = tmp_path / name
        f.write_text(text)
        for command in ("simulate", "compare"):
            assert run(command, "--M", "4", "--state-file", str(f)) == 1
            err = capsys.readouterr().err
            assert "error: state file must hold a 2x2 matrix of [re, im] pairs" in err
            assert "verification failure" not in err
            assert "Traceback" not in err


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
    # reference: one analytic_phase_distribution call per phase; (256, 720)
    # spans three blocks, so the carried repr table is hit and missed
    for m, steps in ((8, 90), (256, 720)):
        phis = [2.0 * np.pi * i / steps for i in range(steps)]
        rows = [analytic_phase_distribution(m, phi).probabilities for phi in phis]
        payload = {
            "M": m,
            "steps": steps,
            "guessing_probability": guessing_probability(m),
            "rows": [
                {"phi": phi, "probabilities": [float(p) for p in probs]}
                for phi, probs in zip(phis, rows)
            ],
        }
        lines = ["phi," + ",".join(f"p_{k}" for k in range(m))] + [
            f"{phi!r}," + ",".join(repr(float(p)) for p in probs)
            for phi, probs in zip(phis, rows)
        ]
        expected = {
            "json": json.dumps(payload, indent=2) + "\n",
            "csv": "\n".join(lines) + "\n",
        }
        for fmt, text in expected.items():
            out = tmp_path / f"s.{fmt}"
            args = ("sweep", "--M", str(m), "--steps", str(steps), "--format", fmt)
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


def _traced_peak(tmp_path, command, m, *flags):
    """Traced peak of one successful command, in M x M complex arrays (16 M^2 bytes).

    The first command of a kind in a process imports modules lazily, about
    0.7 MiB under importlib, hashlib and base64. So the same command runs
    once untraced at M = 8, with its own output, so the peak counts the
    run at M alone, whatever ran before it in the process.
    """
    assert run(command, "--M", "8", *flags, "--out", str(tmp_path / "warm.json")) == 0
    tracemalloc.start()
    try:
        assert run(command, "--M", str(m), *flags, "--out", str(tmp_path / "out.json")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * m * m)


@pytest.mark.parametrize("m", [512, 1024])
def test_verify_holds_at_most_two_and_a_quarter_m_by_m_arrays(m, tmp_path, capsys):
    # the recursion's G, real part and Cholesky factor are freed before the
    # closed Z is built, and the recursive Z before the elimination sweep: the
    # peak is two Z, the closed one beside the recursive one or beside a copy
    assert _traced_peak(tmp_path, "verify", m) <= 2.25
    capsys.readouterr()


def test_extend_holds_at_most_two_and_a_quarter_m_by_m_arrays(tmp_path, capsys):
    # each file is written while its Z is the only one, so from M = 1024 the
    # peak is two Z: the pair closed_vs_recursive compares, or the closed Z
    # beside the elimination's copy
    assert _traced_peak(tmp_path, "extend", 1024) <= 2.25
    capsys.readouterr()


@pytest.mark.parametrize("m", [512, 1024])
def test_compile_verify_holds_at_most_one_and_a_half_m_by_m_arrays(m, tmp_path, capsys):
    # the netlist is applied to the one closed Z, built writable: no copy of it
    assert _traced_peak(tmp_path, "compile", m, "--verify") <= 1.5
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


@pytest.mark.parametrize("m", [2, 16, 256])
def test_compile_verify_and_verify_report_the_same_round_trip_bits(monkeypatch, tmp_path, m):
    judged = []
    judge = cli._judge

    def recorded(checks, tol):
        judged.append(dict(checks))
        return judge(checks, tol)

    monkeypatch.setattr(cli, "_judge", recorded)
    assert run("compile", "--M", str(m), "--verify", "--out", str(tmp_path / "n.json")) == 0
    assert run("verify", "--M", str(m), "--out", str(tmp_path / "v.json")) == 0
    compiled, verified = (checks["netlist_round_trip"] for checks in judged)
    # both commands apply N to a copy of Z through one helper: the same bits
    assert compiled.hex() == verified.hex()
    written = json.loads((tmp_path / "v.json").read_text())["checks"]["netlist_round_trip"]
    assert written.hex() == verified.hex()


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
        return OutcomeDistribution(probabilities=p)

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


def test_extend_exits_2_and_writes_nothing_when_the_recursion_cannot_complete(
    monkeypatch, tmp_path, capsys
):
    # the recursion runs first, so it fails before either file is opened
    monkeypatch.setattr(naimark, "psi_k", lambda m, k: 0.9 * psi_k(m, k))
    assert run("extend", "--M", "8", "--out", str(tmp_path / "f.json")) == 2
    assert "verification failure: M=8" in capsys.readouterr().err
    assert not (tmp_path / "f_closed.json").exists()
    assert not (tmp_path / "f_recursive.json").exists()


def test_no_state_check_calls_the_eigensolver(monkeypatch, tmp_path, capsys):
    # validate_density tests positivity in closed form, without LAPACK
    state = tmp_path / "mixed.json"
    state.write_text(json.dumps([[[0.7, 0.0], [0.2, -0.1]], [[0.2, 0.1], [0.3, 0.0]]]))
    commands = [
        ("verify", "--M", "16"),
        ("compare", "--M", "16", "--phi", "0.3"),
        ("simulate", "--M", "16", "--state-file", str(state), "--scheme", "folded"),
    ]

    def outputs():
        return [(run(*argv), capsys.readouterr()) for argv in commands]

    expected = outputs()
    assert [code for code, _ in expected] == [0, 0, 0]

    def unreachable(*args, **kwargs):
        raise AssertionError("a state check called np.linalg.eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    assert outputs() == expected


def test_simulate_both_fails_on_a_nan_folded_result(monkeypatch, capsys):
    def nan_folded(m, rho):
        return OutcomeDistribution(probabilities=np.full(m, np.nan))

    monkeypatch.setattr(cli, "simulate_folded", nan_folded)
    assert run("simulate", "--M", "8", "--phi", "0.7", "--scheme", "direct") == 2
    assert "folded_vs_direct: nan [FAIL]" in capsys.readouterr().err


def test_compile_verify_fails_on_a_nan_round_trip(monkeypatch, capsys):
    def nan_apply(net, a):
        a[...] = np.nan
        return a

    monkeypatch.setattr(cli, "apply_netlist", nan_apply)
    assert run("compile", "--M", "8", "--verify") == 2
    assert "netlist_round_trip: nan [FAIL]" in capsys.readouterr().err


def test_compile_verify_checks_the_written_netlist(monkeypatch, capsys):
    # --verify parses and applies the emitted JSON, not the in-memory netlist
    to_json = cli.netlist_to_json_dict

    def shifted(net):
        d = to_json(net)
        d["elements"][2]["omega"] += 1e-3
        return d

    monkeypatch.setattr(cli, "netlist_to_json_dict", shifted)
    assert run("compile", "--M", "8", "--verify") == 2
    assert '"omega"' in capsys.readouterr().out


def test_main_parses_with_the_parser_built_at_import(monkeypatch, capsys):
    def unreachable():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", unreachable)
    assert run("povm", "--M", "4") == 0
    capsys.readouterr()


# every command once; the True ones write --out, the rest print their data
RERUNS = [
    (("verify", "--M", "8", "--seed", "3"), True),
    (("verify", "--M", "8", "--seed", "3"), False),
    (("extend", "--M", "64"), True),
    (("extend", "--M", "16", "--format", "csv"), True),
    (("sweep", "--M", "8", "--steps", "90", "--format", "csv"), True),
    (("compile", "--M", "16", "--verify"), True),
    *[
        (("simulate", "--M", "16", "--phi", "1.1", "--scheme", scheme, "--format", fmt), True)
        for scheme in ("direct", "folded")
        for fmt in ("json", "csv")
    ],
    (("compare", "--M", "16", "--phi", "1.1"), False),
    (("povm", "--M", "4", "--phi", "0.3"), False),
]


def test_reruns_are_byte_identical(tmp_path, capsys):
    for i, (args, to_file) in enumerate(RERUNS):
        folder = tmp_path / str(i)
        folder.mkdir()
        argv = (*args, "--out", str(folder / "out")) if to_file else args
        runs = []
        for _ in range(2):  # the second run overwrites the first one's files
            code = run(*argv)
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(folder.iterdir())}
            runs.append((code, captured.out, captured.err, files))
        assert runs[0] == runs[1], args
        code, out, _, files = runs[0]
        assert code == 0 and bool(files) == to_file and bool(out) != to_file, args


# LAPACK's Cholesky changes bits with the BLAS thread count, so the
# recursive Z and its distance from the closed form may differ; the
# value is masked, its verdict is not
_RECURSIVE_GAP = re.compile(r"((?:^|\")closed_vs_recursive(?:\")?: )[^ ,\n]+", re.M)


def _run_under_blas_threads(folder: Path, threads: str) -> dict:
    """Every output of extend and verify at M=256 in a child with ``threads`` BLAS threads."""
    folder.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    outputs = {}
    for args in (
        ("extend", "--M", "256", "--out", "e.json"),
        ("verify", "--M", "256", "--seed", "3", "--out", "v.json"),
    ):
        # relative --out names, so stderr's "wrote" line names the same paths
        child = [sys.executable, "-m", "phasepovm.cli", *args]
        done = subprocess.run(
            child, cwd=folder, env=env, capture_output=True, text=True, check=False
        )
        outputs[args[0]] = (done.returncode, done.stdout, _RECURSIVE_GAP.sub(r"\1*", done.stderr))
    for p in sorted(folder.iterdir()):
        text = p.read_text(encoding="utf-8")
        outputs[p.name] = text if p.name == "e_recursive.json" else _RECURSIVE_GAP.sub(r"\1*", text)
    return outputs


def test_only_the_recursive_z_depends_on_the_blas_thread_count(tmp_path):
    one, two = (_run_under_blas_threads(tmp_path / n, n) for n in ("1", "2"))
    assert list(one) == ["extend", "verify", "e_closed.json", "e_recursive.json", "v.json"]
    assert one["extend"][0] == one["verify"][0] == 0
    for name in one:
        if name != "e_recursive.json":
            assert one[name] == two[name], name
    # the masks hide one value in each of the three outputs that carry it
    assert one["extend"][2].count("closed_vs_recursive: * [ok]") == 1
    assert one["verify"][2].count("closed_vs_recursive: * [ok]") == 1
    assert one["v.json"].count('"closed_vs_recursive": *,') == 1
