"""Command-line front end for the phase measurement pipeline.

Subcommands cover the pipeline end to end:

* ``povm``     print the measurement elements and, with --phi, the
               analytic outcome distribution
* ``extend``   build the extension matrix both ways (closed form and
               recursive), write both files, report residuals
* ``verify``   run the whole verification battery at one tolerance
* ``compile``  emit the Givens netlist as JSON, --verify re-multiplies
* ``simulate`` propagate a state through the direct and/or folded scheme
* ``sweep``    tabulate P(k | phi) over a phase grid with a
               guessing-probability summary
* ``compare``  direct vs folded vs analytic statistics for one state

Exit codes: 0 success, 1 usage error, 2 verification failure. Every
command is deterministic given its flags and --seed; reruns write
byte-identical files. Data goes to --out (or stdout), human-readable
progress lines to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compiler import (
    apply_netlist,
    decompose_by_elimination,
    decompose_closed,
    evaluate_netlist,
    netlist_from_json_dict,
    netlist_to_json_dict,
    netlists_equal,
)
from .naimark import (
    NUM_STATES,
    build_extension_closed,
    build_extension_recursive,
    verify_naimark,
    write_extension_csv,
    write_extension_json,
)
from .numerics import row_slices, write_csv_rows, write_json_rows
from .optics import (
    build_direct_scheme,
    distribution_to_csv,
    distribution_to_json_dict,
    simulate_direct,
    simulate_folded,
    slot_distribution_to_csv,
    slot_distribution_to_json_dict,
)
from .povm import (
    analytic_phase_distribution,
    analytic_phase_table,
    guessing_probability,
    outcome_distribution,
    phase_povm,
    pure_phase_state,
    random_density,
    validate_density,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# Largest accepted --M: Z alone is M x M complex128, 256 MiB at 4096
MAX_OUTCOMES = 4096


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; every command consumes one of these."""

    command: str
    M: int
    phi: float | None = None
    scheme: str = "direct"
    steps: int | None = None
    state_file: str | None = None
    out: str | None = None
    output_format: str = "json"
    tolerance: float = 1e-10
    seed: int = 0
    verify: bool = False

    def __post_init__(self):
        if self.M > MAX_OUTCOMES:
            raise ValueError(f"M must be at most {MAX_OUTCOMES}, got {self.M}")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.phi is not None and not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; our contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="phasepovm",
        description="M-outcome qubit phase measurement: POVM, Naimark "
        "extension, Givens netlist, and optical simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats: tuple[str, ...] = ()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--M", type=int, required=True, help="outcome count, a power of 2")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        if formats:
            p.add_argument(
                "--format",
                dest="output_format",
                choices=formats,
                default="json",
                help="output format (default json)",
            )
        return p

    json_csv, json_only = ("json", "csv"), ("json",)

    p = add("povm", "print the POVM elements, optionally with a distribution")
    p.add_argument("--phi", type=float, default=None, help="input phase in radians")

    extend = add(
        "extend", "build and verify the extension matrix (closed and recursive)", json_csv
    )

    verify = add("verify", "run the full verification battery", json_only)

    compile_ = add("compile", "emit the Givens-rotation netlist as JSON", json_only)
    compile_.add_argument(
        "--verify", action="store_true", help="re-multiply and check the round trip"
    )

    simulate = add("simulate", "simulate detector statistics for one input state", json_csv)
    simulate.add_argument("--phi", type=float, default=None, help="pure input phase in radians")
    simulate.add_argument("--state-file", type=str, default=None, help="JSON density matrix file")
    simulate.add_argument(
        "--scheme",
        choices=("direct", "folded", "both"),
        default="direct",
        help="which interferometer layout to run",
    )

    p = add("sweep", "tabulate P(k | phi) over a uniform phase grid", json_csv)
    p.add_argument("--steps", type=int, required=True, help="number of grid points on [0, 2*pi)")

    compare = add("compare", "compare direct, folded, and analytic statistics", json_only)
    compare.add_argument("--phi", type=float, default=None, help="pure input phase in radians")
    compare.add_argument("--state-file", type=str, default=None, help="JSON density matrix file")

    # a command declares only the flags it reads, so any other is a usage error
    for p in (extend, verify, compile_, simulate, compare):
        p.add_argument("--tolerance", type=float, default=1e-10, help="residual tolerance")
    for p in (extend, verify):
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    return parser


def load_density(cfg: RunConfig) -> np.ndarray:
    """Input state from --state-file (JSON [[ [re,im], ... ]]) or --phi."""
    if cfg.state_file is not None and cfg.phi is not None:
        raise ValueError("give either --phi or --state-file, not both")
    if cfg.state_file is not None:
        with open(cfg.state_file, encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            rho = np.array(
                [[complex(re, im) for re, im in row] for row in raw], dtype=complex
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"state file must hold a 2x2 matrix of [re, im] pairs: {exc}"
            ) from exc
        return validate_density(rho)
    if cfg.phi is not None:
        return pure_phase_state(cfg.phi)
    raise ValueError("an input state is required: give --phi or --state-file")


@contextlib.contextmanager
def _output(out: str | None):
    """The --out file opened for writing text, or stdout."""
    if out is None:
        yield sys.stdout
    else:
        with Path(out).open("w", encoding="utf-8") as fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _judge(checks: dict[str, float], tol: float) -> bool:
    """Print each check as ``name: value [ok|FAIL]``; True iff every value <= tol.

    The one tolerance test of every command; a NaN value fails it.
    """
    passed = True
    for name, value in checks.items():
        ok = value <= tol
        passed = passed and ok
        _note(f"{name}: {value:.3e} [{'ok' if ok else 'FAIL'}]")
    return passed


def _max_gap(a, b) -> float:
    """Largest |a - b| entry; np.max keeps a NaN, which then fails its check."""
    return float(np.max(np.abs(a - b)))


def _fmt_complex(v: complex) -> str:
    return f"{v.real:+.12f}{v.imag:+.12f}j"


def cmd_povm(cfg: RunConfig) -> int:
    povm = phase_povm(cfg.M)
    weight = 2.0 / povm.M
    lines = [f"phase POVM, M = {povm.M} outcomes, element weight 2/M = {weight!r}"]
    for k in range(povm.M):
        e = povm.elements[k]
        lines.append(f"Pi_{k}:")
        for row in e:
            lines.append("  [" + "  ".join(_fmt_complex(v) for v in row) + "]")
    if cfg.phi is not None:
        dist = analytic_phase_distribution(cfg.M, cfg.phi)
        lines.append(f"analytic distribution at phi = {float(cfg.phi)!r}:")
        for k, p in enumerate(dist.probabilities):
            lines.append(f"  P({k}) = {float(p)!r}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def _extension_paths(cfg: RunConfig) -> tuple[Path, Path]:
    """The closed and recursive files; --out names their stem, not a directory."""
    ext = "json" if cfg.output_format == "json" else "csv"
    base = Path(cfg.out) if cfg.out is not None else Path(f"extension_M{cfg.M}.{ext}")
    # a trailing separator names a directory, existing or not; Path drops
    # it, so it is read off the string
    if cfg.out is not None and (base.is_dir() or cfg.out[-1:] in (os.sep, os.altsep)):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(cfg.out))
    stem, suffix = base.stem, base.suffix or f".{ext}"
    return (
        base.with_name(f"{stem}_closed{suffix}"),
        base.with_name(f"{stem}_recursive{suffix}"),
    )


def cmd_extend(cfg: RunConfig) -> int:
    # refuses a directory before anything is built
    path_closed, path_recursive = _extension_paths(cfg)
    closed = build_extension_closed(cfg.M)
    recursive = build_extension_recursive(cfg.M)
    checks = {"closed_vs_recursive": _max_gap(closed.Z, recursive.Z)}
    checks.update(verify_naimark(closed, seed=cfg.seed))

    write = write_extension_json if cfg.output_format == "json" else write_extension_csv
    for ext, path in ((closed, path_closed), (recursive, path_recursive)):
        with path.open("w", encoding="utf-8") as fh:
            write(ext, fh)

    _note(f"wrote {path_closed} and {path_recursive}")
    ok = _judge(checks, cfg.tolerance)
    _note(f"extension verification: {'PASS' if ok else 'FAIL'} (seed {cfg.seed})")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_compile(cfg: RunConfig) -> int:
    net = decompose_closed(cfg.M)
    text = _json_text(netlist_to_json_dict(net))
    _emit(text, cfg.out)
    _note(f"netlist for M = {cfg.M}: {len(net.elements)} elements")
    if cfg.verify:
        # the check covers the written bytes, parsed back, not the object
        written = netlist_from_json_dict(json.loads(text))
        round_trip = apply_netlist(written, build_extension_closed(cfg.M).Z.copy())
        checks = {"netlist_round_trip": _max_gap(round_trip, np.eye(cfg.M))}
        if not _judge(checks, cfg.tolerance):
            return EXIT_VERIFICATION
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    rho = load_density(cfg)
    status = EXIT_OK

    direct_dist = None
    if cfg.scheme in ("direct", "both"):
        direct_dist = simulate_direct(build_direct_scheme(cfg.M), rho)
    folded_sd = None
    if cfg.scheme in ("folded", "both"):
        folded_sd = simulate_folded(cfg.M, rho)

    if cfg.scheme == "both":
        disc = _max_gap(folded_sd.flatten().probabilities, direct_dist.probabilities)
        if not _judge({"folded_vs_direct": disc}, cfg.tolerance):
            status = EXIT_VERIFICATION

    if cfg.scheme == "folded":
        text = (
            _json_text(slot_distribution_to_json_dict(folded_sd))
            if cfg.output_format == "json"
            else slot_distribution_to_csv(folded_sd)
        )
    else:
        text = (
            _json_text(distribution_to_json_dict(direct_dist))
            if cfg.output_format == "json"
            else distribution_to_csv(direct_dist)
        )
    _emit(text, cfg.out)
    return status


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.steps is None or cfg.steps < 1:
        raise ValueError(f"steps must be a positive integer, got {cfg.steps}")
    # validates M before --out is opened
    guess = guessing_probability(cfg.M)
    # one row per phase: phi, then P(0 | phi) .. P(M-1 | phi); each block
    # builds only its own grid points, so memory does not grow with --steps
    blocks = (
        np.column_stack((phis, analytic_phase_table(cfg.M, phis)))
        for rows in row_slices(cfg.steps, cfg.M + 1)
        for phis in [2.0 * np.pi * np.arange(*rows.indices(cfg.steps)) / cfg.steps]
    )
    with _output(cfg.out) as fh:
        if cfg.output_format == "json":
            write_json_rows(
                fh,
                {"M": cfg.M, "steps": cfg.steps, "guessing_probability": float(guess)},
                "rows",
                lambda v: {"phi": v[0], "probabilities": v[1:]},
                blocks,
            )
        else:
            header = "phi," + ",".join(f"p_{k}" for k in range(cfg.M))
            write_csv_rows(fh, header, blocks)
    _note(f"guessing probability: {guess!r}")
    return EXIT_OK


def _simulator_residuals(m: int, rho) -> dict[str, float]:
    """Direct-vs-analytic and (M > 2) folded-vs-direct gaps; rho may be a stack."""
    analytic = outcome_distribution(phase_povm(m), rho).probabilities
    direct = simulate_direct(build_direct_scheme(m), rho).probabilities
    residuals = {"direct_vs_analytic": _max_gap(direct, analytic)}
    if m > 2:
        folded = simulate_folded(m, rho).flatten().probabilities
        residuals["folded_vs_direct"] = _max_gap(folded, direct)
    return residuals


def cmd_compare(cfg: RunConfig) -> int:
    residuals = _simulator_residuals(cfg.M, load_density(cfg))
    payload = {
        "M": cfg.M,
        "tolerance": cfg.tolerance,
        "residuals": residuals,
        "passed": _judge(residuals, cfg.tolerance),
    }
    _emit(_json_text(payload), cfg.out)
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


def cmd_verify(cfg: RunConfig) -> int:
    """Whole-pipeline battery: extension, netlist, and both simulators."""
    checks: dict[str, float] = {}

    closed = build_extension_closed(cfg.M)
    # the recursive Z is needed for this one number only, so it is not kept
    checks["closed_vs_recursive"] = _max_gap(closed.Z, build_extension_recursive(cfg.M).Z)

    checks.update(verify_naimark(closed, seed=cfg.seed))

    net = decompose_closed(cfg.M)
    elim = decompose_by_elimination(closed)
    # one pass of the closed netlist N over [I | Z] gives N and NZ
    eye = np.eye(cfg.M)
    applied = apply_netlist(net, np.hstack([eye, closed.Z]))
    net_matrix, round_trip = applied[:, : cfg.M], applied[:, cfg.M :]
    checks["netlist_round_trip"] = _max_gap(round_trip, eye)
    # the difference is taken in place: [I | Z] is still alive here
    gap = evaluate_netlist(elim)
    gap -= net_matrix
    checks["elimination_vs_closed_matrix"] = float(np.max(np.abs(gap)))
    structural = netlists_equal(net, elim, tol=cfg.tolerance)

    rng = np.random.default_rng(cfg.seed)
    rhos = [random_density(rng) for _ in range(NUM_STATES)]
    checks.update(_simulator_residuals(cfg.M, rhos))

    checks["guessing_probability"] = abs(guessing_probability(cfg.M) - 2.0 / cfg.M)

    # judged first, so every check is printed whatever the structure gives
    passed = _judge(checks, cfg.tolerance) and structural
    _note(f"elimination netlist structurally equal: {structural}")
    _note("verification: " + ("PASS" if passed else "FAIL"))

    payload = {
        "M": cfg.M,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
        "checks": checks,
        "elimination_structural_match": structural,
        "passed": passed,
    }
    _emit(_json_text(payload), cfg.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


_COMMANDS = {
    "povm": cmd_povm,
    "extend": cmd_extend,
    "verify": cmd_verify,
    "compile": cmd_compile,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(**vars(args))
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
