"""Command-line front end for the phase measurement pipeline.

Subcommands cover the pipeline end to end:

* ``povm``     print the measurement elements and, with --phi, the
               analytic outcome distribution
* ``extend``   build the extension matrix both ways (closed form and
               recursive), write both files, report residuals
* ``verify``   run the whole verification battery at one tolerance
* ``compile``  emit the Givens netlist as JSON, --verify re-multiplies
* ``simulate`` write one layout's (direct or folded) statistics for a
               state, judged against the analytic and the other layout's
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
from pathlib import Path

import numpy as np

# evaluate_netlist is not called here; it stays importable from this module
# because bench/test_bench.py lists cli.evaluate_netlist among the
# cross-module names its tracer wraps
from .compiler import (  # noqa: F401
    apply_netlist,
    decompose_closed,
    eliminate,
    evaluate_netlist,
    is_json_number,
    netlist_from_json_dict,
    netlist_to_json_dict,
    netlists_equal,
)
from .naimark import (
    _closed_form_columns,
    build_extension_closed,
    build_extension_recursive,
    column_order,
    random_states,
    verify_naimark,
    write_extension_csv,
    write_extension_json,
)
from .numerics import BLOCK_VALUES, identity_gap, max_gap, row_slices, write_csv_rows, write_json_rows
from .optics import (
    build_direct_scheme,
    simulate_direct,
    simulate_folded,
)
from .povm import (
    analytic_phase_distribution,
    guessing_probability,
    outcome_distribution,
    phase_povm,
    pure_phase_state,
    validate_density,
    validate_outcome_count,
    wrap_phase,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# Largest accepted --M: Z alone is M x M complex128, 256 MiB at 4096
MAX_OUTCOMES = 4096
DEFAULT_TOLERANCE = 1e-10


def _flag_type(convert):
    """Make a check into an argparse type whose ValueError is the flag's usage error."""

    def decorate(check):
        def parse(text: str):
            value = convert(text)
            try:
                check(value)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            return value

        # unreadable text keeps argparse's own "invalid int value" error
        parse.__name__ = convert.__name__
        return parse

    return decorate


@_flag_type(int)
def _outcome_count(m: int) -> None:
    if m > MAX_OUTCOMES:
        raise ValueError(f"M must be at most {MAX_OUTCOMES}, got {m}")
    validate_outcome_count(m)


@_flag_type(float)
def _tolerance(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")


_phase = _flag_type(float)(wrap_phase)


@_flag_type(int)
def _seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@_flag_type(int)
def _steps(steps: int) -> None:
    if steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; our contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    """The CLI's commands and flags; each subcommand's ``run`` default is its handler."""
    parser = _Parser(
        prog="phasepovm",
        description="M-outcome qubit phase measurement: POVM, Naimark "
        "extension, Givens netlist, and optical simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, help_text: str, formats=()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument(
            "--M", type=_outcome_count, required=True, help="outcome count, a power of 2"
        )
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

    p = add("povm", cmd_povm, "print the POVM elements, optionally with a distribution")
    p.add_argument("--phi", type=_phase, default=None, help="input phase in radians")

    extend = add(
        "extend", cmd_extend, "build and verify the extension matrix (closed and recursive)",
        json_csv,
    )

    verify = add("verify", cmd_verify, "run the full verification battery", json_only)

    compile_ = add("compile", cmd_compile, "emit the Givens-rotation netlist as JSON", json_only)
    compile_.add_argument(
        "--verify", action="store_true", help="re-multiply and check the round trip"
    )

    simulate = add(
        "simulate", cmd_simulate, "simulate detector statistics for one input state", json_csv
    )
    simulate.add_argument(
        "--scheme", choices=("direct", "folded"), default="direct", help="layout to write"
    )

    p = add("sweep", cmd_sweep, "tabulate P(k | phi) over a uniform phase grid", json_csv)
    p.add_argument(
        "--steps", type=_steps, required=True, help="number of grid points on [0, 2*pi)"
    )

    compare = add(
        "compare", cmd_compare, "compare direct, folded, and analytic statistics", json_only
    )

    # a command declares only the flags it reads, so any other is a usage error
    for p in (simulate, compare):
        state = p.add_mutually_exclusive_group(required=True)
        state.add_argument("--phi", type=_phase, help="pure input phase in radians")
        state.add_argument("--state-file", type=str, help="JSON density matrix file")
    for p in (extend, verify, compile_, simulate, compare):
        p.add_argument(
            "--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE, help="residual tolerance"
        )
    compile_.set_defaults(tolerance=None)  # compile reads --tolerance only with --verify
    for p in (extend, verify):
        p.add_argument("--seed", type=_seed, default=0, help="seed for randomized checks")

    return parser


def load_density(args: argparse.Namespace) -> np.ndarray:
    """Input state from --state-file (JSON [[ [re,im], ... ]]) or --phi."""
    if args.state_file is None:
        return pure_phase_state(args.phi)
    with open(args.state_file, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError as exc:  # nested too deep to be a 2x2 matrix
            raise ValueError(f"state file must hold a 2x2 matrix of [re, im] pairs: {exc}") from exc
    try:
        # the netlist parser's rule: no bool, nothing beyond a finite float64
        if not all(is_json_number(x) for row in raw for pair in row for x in pair):
            raise ValueError("every entry must be a finite number")
        rho = np.array([[complex(re, im) for re, im in row] for row in raw], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state file must hold a 2x2 matrix of [re, im] pairs: {exc}") from exc
    return validate_density(rho)


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


def _fmt_complex(v: complex) -> str:
    return f"{v.real:+.12f}{v.imag:+.12f}j"


def cmd_povm(args: argparse.Namespace) -> int:
    povm = phase_povm(args.M)
    weight = 2.0 / povm.M
    lines = [f"phase POVM, M = {povm.M} outcomes, element weight 2/M = {weight!r}"]
    for k in range(povm.M):
        e = povm.elements[k]
        lines.append(f"Pi_{k}:")
        for row in e:
            lines.append("  [" + "  ".join(_fmt_complex(v) for v in row) + "]")
    if args.phi is not None:
        dist = analytic_phase_distribution(args.M, args.phi)
        lines.append(f"analytic distribution at phi = {float(args.phi)!r}:")
        for k, p in enumerate(dist.probabilities):
            lines.append(f"  P({k}) = {float(p)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _extension_paths(args: argparse.Namespace) -> tuple[Path, Path]:
    """The closed and recursive files; --out names their stem, not a directory."""
    ext = "json" if args.output_format == "json" else "csv"
    base = Path(args.out) if args.out is not None else Path(f"extension_M{args.M}.{ext}")
    # a trailing separator names a directory, existing or not; Path drops
    # it, so it is read off the string
    if args.out is not None and (base.is_dir() or args.out[-1:] in (os.sep, os.altsep)):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(args.out))
    stem, suffix = base.stem, base.suffix or f".{ext}"
    return (
        base.with_name(f"{stem}_closed{suffix}"),
        base.with_name(f"{stem}_recursive{suffix}"),
    )


def _closed_vs_recursive(m: int, recursive):
    """(closed, checks): the closed Z, built beside ``recursive``, and closed_vs_recursive.

    Callers build the recursion first, so its G, real part and Cholesky
    factor are freed before the closed Z exists, and drop it before the
    elimination's copy: no more than two Z are ever alive.
    """
    closed = build_extension_closed(m)
    return closed, {"closed_vs_recursive": max_gap(closed.Z, recursive.Z)}


def _naimark_checks(closed, seed: int):
    """(checks, elimination netlist, elimination_round_trip) of the closed extension.

    The five Naimark checks, in verify's order. One eliminate sweep gives
    the certified bound on Z†Z - I and ZZ† - I, reported as orthogonality,
    and as unitarity together with the measured norms; verify_naimark
    measures the rest.
    """
    elim, residual, bound = eliminate(closed)
    measured = verify_naimark(closed, seed=seed)
    checks = {
        "orthogonality": bound,
        "norms": measured["norms"],
        "povm_blocks": measured["povm_blocks"],
        # np.maximum, not max: a NaN on either side must survive
        "unitarity": float(np.maximum(bound, measured["norms"])),
        "probability_constraint": measured["probability_constraint"],
    }
    return checks, elim, residual


def cmd_extend(args: argparse.Namespace) -> int:
    # refuses a directory before anything is built
    path_closed, path_recursive = _extension_paths(args)
    write = write_extension_json if args.output_format == "json" else write_extension_csv

    # each file is written before it is judged, and while its Z is the only one
    recursive = build_extension_recursive(args.M)
    with _output(str(path_recursive)) as fh:
        write(recursive, fh)
    closed, checks = _closed_vs_recursive(args.M, recursive)
    del recursive
    checks.update(_naimark_checks(closed, args.seed)[0])
    with _output(str(path_closed)) as fh:
        write(closed, fh)

    _note(f"wrote {path_closed} and {path_recursive}")
    ok = _judge(checks, args.tolerance)
    _note(f"extension verification: {'PASS' if ok else 'FAIL'} (seed {args.seed})")
    return EXIT_OK if ok else EXIT_VERIFICATION


def _round_trip_gap(net, z: np.ndarray) -> float:
    """netlist_round_trip: max-abs entry of NZ - I, formed in place in ``z``, a writable Z."""
    return identity_gap(apply_netlist(net, z))


def cmd_compile(args: argparse.Namespace) -> int:
    if args.tolerance is not None and not args.verify:
        raise ValueError("--tolerance is read only with --verify")
    net = decompose_closed(args.M)
    text = _json_text(netlist_to_json_dict(net))
    _emit(text, args.out)
    _note(f"netlist for M = {args.M}: {len(net.elements)} elements")
    if args.verify:
        # the check covers the written bytes, parsed back, not the object
        written = netlist_from_json_dict(json.loads(text))
        # a writable closed Z, built as the only M x M array
        z = _closed_form_columns(args.M, column_order(args.M))
        checks = {"netlist_round_trip": _round_trip_gap(written, z)}
        if not _judge(checks, DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance):
            return EXIT_VERIFICATION
    return EXIT_OK


def _simulations(m: int, rho, run_folded: bool):
    """(residuals, direct, folded or None) for one state or a stack, one call per layout."""
    analytic = outcome_distribution(phase_povm(m), rho).probabilities
    direct = simulate_direct(build_direct_scheme(m), rho)
    residuals = {"direct_vs_analytic": max_gap(direct.probabilities, analytic)}
    folded = None
    if run_folded:
        folded = simulate_folded(m, rho)
        residuals["folded_vs_direct"] = max_gap(folded.probabilities, direct.probabilities)
    return residuals, direct, folded


def cmd_simulate(args: argparse.Namespace) -> int:
    run_folded = args.M > 2 or args.scheme == "folded"
    residuals, direct, folded = _simulations(args.M, load_density(args), run_folded)
    passed = _judge(residuals, args.tolerance)
    # the written distribution is the very array that was judged; slot
    # k + 1 of the folded scheme holds outcomes k (H) and k + M/2 (V)
    if args.scheme == "folded":
        pairs = folded.probabilities.reshape(2, args.M // 2).T.tolist()
        payload = {"M": args.M, "slots": len(pairs), "pairs": pairs}
        header, rows = "slot,p_h,p_v", enumerate(pairs, 1)
    else:
        probs = direct.probabilities.tolist()
        payload = {"M": args.M, "probabilities": probs}
        header, rows = "k,probability", enumerate([p] for p in probs)
    if args.output_format == "json":
        text = _json_text(payload)
    else:
        text = "\n".join([header] + [",".join(map(repr, (i, *r))) for i, r in rows]) + "\n"
    _emit(text, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_sweep(args: argparse.Namespace) -> int:
    guess = guessing_probability(args.M)
    # one row per phase: phi, then P(0 | phi) .. P(M-1 | phi); each block
    # builds only its own grid points, so memory does not grow with --steps
    blocks = (
        np.column_stack((phis, analytic_phase_distribution(args.M, phis).probabilities))
        for rows in row_slices(args.steps, args.M + 1, BLOCK_VALUES)
        for phis in [2.0 * np.pi * np.arange(*rows.indices(args.steps)) / args.steps]
    )
    with _output(args.out) as fh:
        if args.output_format == "json":
            write_json_rows(
                fh,
                {"M": args.M, "steps": args.steps, "guessing_probability": float(guess)},
                "rows",
                lambda v: {"phi": v[0], "probabilities": v[1:]},
                blocks,
            )
        else:
            header = "phi," + ",".join(f"p_{k}" for k in range(args.M))
            write_csv_rows(fh, header, blocks)
    _note(f"guessing probability: {guess!r}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    residuals = _simulations(args.M, load_density(args), args.M > 2)[0]
    payload = {
        "M": args.M,
        "tolerance": args.tolerance,
        "residuals": residuals,
        "passed": _judge(residuals, args.tolerance),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


def cmd_verify(args: argparse.Namespace) -> int:
    """Whole-pipeline battery: extension, netlist, and both simulators."""
    recursive = build_extension_recursive(args.M)
    closed, checks = _closed_vs_recursive(args.M, recursive)
    del recursive  # closed_vs_recursive is its only use
    extension, elim, elimination_gap = _naimark_checks(closed, args.seed)
    checks.update(extension)

    net = decompose_closed(args.M)
    checks["netlist_round_trip"] = _round_trip_gap(net, closed.Z.copy())
    del closed  # its last use: no M x M array outlives this point
    # for a unitary Z, E - N = (EZ - NZ)Z†: the two round trips bound the matrix gap
    checks["elimination_round_trip"] = elimination_gap
    structural = netlists_equal(net, elim, tol=args.tolerance)

    checks.update(_simulations(args.M, random_states(args.seed), args.M > 2)[0])

    checks["guessing_probability"] = abs(guessing_probability(args.M) - 2.0 / args.M)

    # judged first, so every check is printed whatever the structure gives
    passed = _judge(checks, args.tolerance) and structural
    _note(f"elimination netlist structurally equal: {structural}")
    _note("verification: " + ("PASS" if passed else "FAIL"))

    payload = {
        "M": args.M,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "checks": checks,
        "elimination_structural_match": structural,
        "passed": passed,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


# built once: the flags are static, and building costs far more than parsing
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
