"""The benchmark's workloads: inputs made from a seed, the CLI steps of
one op, and the content checks on what an op writes.

An op is a list of ``phasepovm`` argument vectors run in order. Ops that
share a ``key`` have the same arguments, so the CLI promises they write
the same bytes; the content of each key is checked once, on the first
output written for it, and every later op must match it byte for byte.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

import numpy as np

TOLERANCE = 1e-10
DEFAULT_M = {"verify_pipeline": 256, "state_stream": 1024, "export_files": 256}
VERIFY_SEEDS = 3
STATE_FILES = 16
SWEEP_STEPS = 720


def prepare(workload: str, workdir: Path, seed: int, m: int) -> tuple[list[dict], dict]:
    """Write the inputs of ``workload`` into ``workdir``.

    Returns the ops in cycling order, each ``{"key", "steps", "outputs"}``,
    and a map from key to whether that op's input state is mixed
    (state_stream only).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "verify_pipeline":
        seeds = random.Random(seed).sample(range(2**31), VERIFY_SEEDS)
        ops = [
            _op(f"verify-s{s}", [["verify", "--M", m, "--seed", s, "--out", workdir / f"verify_s{s}.json"]])
            for s in seeds
        ]
        return ops, {}
    if workload == "state_stream":
        ops, mixed = [], {}
        for i, rho in enumerate(random_states(seed, STATE_FILES)):
            state = workdir / f"state_{i}.json"
            write_state(state, rho)
            key = f"compare-{i}"
            ops.append(_op(key, [["compare", "--M", m, "--state-file", state, "--out", workdir / f"compare_{i}.json"]]))
            mixed[key] = is_mixed(rho)
        return ops, mixed
    if workload == "export_files":
        steps = [
            ["extend", "--M", m, "--out", workdir / "e.json"],
            ["compile", "--M", m, "--verify", "--out", workdir / "n.json"],
            ["sweep", "--M", m, "--steps", SWEEP_STEPS, "--format", "csv", "--out", workdir / "s.csv"],
        ]
        outputs = [workdir / name for name in ("e_closed.json", "e_recursive.json", "n.json", "s.csv")]
        return [_op("export", steps, outputs)], {}
    raise ValueError(f"unknown workload {workload!r}")


def _op(key: str, steps, outputs=None) -> dict:
    steps = [[str(a) for a in argv] for argv in steps]
    if outputs is None:
        outputs = [argv[argv.index("--out") + 1] for argv in steps]
    return {"key": key, "steps": steps, "outputs": [str(p) for p in outputs]}


def random_states(seed: int, count: int) -> list[np.ndarray]:
    """``count`` qubit states, exactly half of them mixed, in seeded order.

    Pure states are |v><v| for a uniformly random unit vector v; mixed
    ones have a Bloch vector of length 0.2 to 0.9, so both eigenvalues
    are at least 0.05.
    """
    rng = np.random.default_rng(seed)
    kinds = [False] * (count - count // 2) + [True] * (count // 2)
    rng.shuffle(kinds)
    states = []
    for mixed in kinds:
        if mixed:
            x, y, z = rng.normal(size=3)
            r = rng.uniform(0.2, 0.9) / np.sqrt(x * x + y * y + z * z)
            x, y, z = r * x, r * y, r * z
            rho = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
        else:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
        states.append(rho)
    return states


def is_mixed(rho: np.ndarray) -> bool:
    """Whether the simulators propagate two eigenvectors (rank 2)."""
    return bool(np.min(np.linalg.eigvalsh(rho)) >= 1e-15)


def write_state(path: Path, rho) -> None:
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(rho, dtype=complex)]
    path.write_text(json.dumps(rows), encoding="utf-8")


def check_outputs(workload: str, outputs: list[str], m: int) -> str | None:
    """Content check of one op's output files; returns why it fails, or None."""
    try:
        if workload == "verify_pipeline":
            return _check_report(json.loads(Path(outputs[0]).read_text()), "checks", m)
        if workload == "state_stream":
            return _check_report(json.loads(Path(outputs[0]).read_text()), "residuals", m)
        closed, recursive, netlist, sweep = outputs
        return (
            _check_extension(closed, m, closed_form=True)
            or _check_extension(recursive, m, closed_form=False)
            or _check_netlist(netlist, m)
            or _check_sweep(sweep, m)
        )
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output does not parse: {exc!r}"


def _check_report(payload: dict, field: str, m: int) -> str | None:
    if payload["M"] != m or payload["tolerance"] != TOLERANCE:
        return f"report for M={payload['M']}, tolerance={payload['tolerance']}"
    if payload["passed"] is not True:
        return "report says passed: false"
    worst = max(payload[field].values())
    if not worst <= TOLERANCE:
        return f"{field} residual {worst!r} above {TOLERANCE}"
    return None


def _check_extension(path: str, m: int, closed_form: bool) -> str | None:
    payload = json.loads(Path(path).read_text())
    z = np.array(payload["matrix"], dtype=float)
    z = z[..., 0] + 1j * z[..., 1]
    if payload["M"] != m or z.shape != (m, m):
        return f"{path}: matrix of shape {z.shape} for M={m}"
    if not closed_form:
        return None
    residual = np.max(np.abs(z.conj().T @ z - np.eye(m)))
    if not residual <= 1e-9:
        return f"{path}: not unitary, |Z†Z - I| = {residual:.3e}"
    k = np.array(payload["column_order"])
    psi = np.stack([np.exp(-1j * np.pi * k / m), np.exp(1j * np.pi * k / m)]) / np.sqrt(2.0)
    top = np.max(np.abs(z[:2, :] - np.sqrt(2.0 / m) * psi))
    if sorted(k.tolist()) != list(range(m)) or not top <= 1e-9:
        return f"{path}: top rows differ from sqrt(2/M) psi_k by {top:.3e}"
    return None


def _check_netlist(path: str, m: int) -> str | None:
    count = len(json.loads(Path(path).read_text())["elements"])
    expected = 2 + 3 * (m // 2 - 1)
    return None if count == expected else f"{path}: {count} elements, expected {expected}"


def _check_sweep(path: str, m: int) -> str | None:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    table = np.array(rows, dtype=float)
    if len(header) != m + 1 or table.shape != (SWEEP_STEPS, m + 1):
        return f"{path}: table of shape {table.shape} for M={m}"
    drift = np.max(np.abs(table[:, 1:].sum(axis=1) - 1.0))
    return None if drift <= 1e-9 else f"{path}: rows sum to 1 only within {drift:.3e}"
