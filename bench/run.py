"""Benchmark of the phasepovm CLI: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports phasepovm from ``src/``
there and fails with exit code 2 when that is missing. Inputs are made
from ``--seed`` under ``.bench_out/``, which is removed afterwards. The
ops run in worker.py: one fresh process, one client in a closed loop,
calling ``phasepovm.cli.main`` in-process; BLAS threading is left at its
default. With ``--trace 0`` 2 to 15 more fresh processes only set up,
and ``setup_s`` is the median of all set-ups. With ``--trace 1`` the worker
runs half the time untraced and half traced, then times the layer entry
points at M = 16, 64 and 256, and writes its spans to
``.bench_out/trace_<workload>.json.gz``.

Every op's outputs are checked (see workloads.py); failed ops are still
timed and counted. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it print every figure with its unit and
the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Fresh processes that only set up, besides the one that runs the ops:
# at least MIN_PROBES, more while they fit in PROBE_BUDGET_S, because a
# cheap set-up is short enough for machine noise to dominate one sample.
MIN_PROBES = 2
MAX_PROBES = 15
PROBE_BUDGET_S = 3.0
P90_MIN_OPS = 100
DEADLINE_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DEFAULT_M))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool, m: int) -> dict:
    """Run one workload; returns the worker's result scored and summarized."""
    out = ROOT / ".bench_out"
    workdir = out / f"{workload}-{seed}-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops, mixed = workloads.prepare(workload, workdir / "io", seed, m)

        def spawn(tag: str, run_seconds: float) -> dict:
            spec = {
                "src": str(ROOT / "src"),
                "ops": ops,
                "seconds": run_seconds,
                "trace": trace,
                "first_dir": str(workdir / f"first-{tag}"),
                "trace_file": str(out / f"trace_{workload}.json.gz"),
            }
            spec_path, result_path = workdir / f"spec-{tag}.json", workdir / f"result-{tag}.json"
            spec_path.write_text(json.dumps(spec))
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
            if proc.returncode != 0:
                raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
            return json.loads(result_path.read_text())

        setups = []
        while not trace and (
            len(setups) < MIN_PROBES or (sum(setups) < PROBE_BUDGET_S and len(setups) < MAX_PROBES)
        ):
            setups.append(spawn(f"probe{len(setups)}", 0)["setup_s"])
        result = spawn("main", seconds)
        result["setups"] = setups + [result["setup_s"]]
        result["failures"] = score(workload, m, ops, result, workdir / "first-main")
        if mixed:
            result["mixed_share"] = statistics.mean(mixed[r["key"]] for r in result["records"])
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def score(workload: str, m: int, ops: list[dict], result: dict, first_dir: Path) -> dict[int, str]:
    """Why each failed op failed, by op index; the warm-up is index -1."""
    content = {}
    for op in ops:
        kept = first_dir / op["key"]
        if kept.is_dir():
            files = [str(kept / Path(p).name) for p in op["outputs"]]
            content[op["key"]] = workloads.check_outputs(workload, files, m)
    failures = {}
    for i, record in enumerate([result["warmup"]] + result["records"], start=-1):
        reasons = [f"exit codes {record['exit_codes']}"] if any(record["exit_codes"]) else []
        if not record["same_bytes"]:
            reasons.append("output bytes missing or differ from an earlier op with the same arguments")
        if content.get(record["key"], "no output kept") is not None:
            reasons.append(content.get(record["key"], "no output kept"))
        if reasons:
            failures[i] = f"{record['key']}: {'; '.join(reasons)}\n{record['notes']}"
    return failures


def end_to_end(result: dict) -> dict[str, float]:
    lat = [r["ms"] for r in result["records"]]
    return {
        "setup_s": statistics.median(result["setups"]),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args, m: int, result: dict, config: dict) -> dict:
    """Print every figure with its unit and the metadata; return the result line."""
    records = result["records"]
    attempted = len(records)
    failed = sum(i >= 0 for i in result["failures"])
    lat = [r["ms"] for r in records]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "M": m,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": git_commit(ROOT),
        **result["versions"],
        "nproc": os.cpu_count(),
        "ops": attempted,
        "setup_samples": len(result["setups"]),
        "p50_samples": attempted,
        "p90_samples": attempted if attempted >= P90_MIN_OPS else None,
    }
    if "mixed_share" in result:
        meta["mixed_share"] = result["mixed_share"]
    print("meta " + json.dumps(meta))
    for i, failure in result["failures"].items():
        print(f"FAILED {'warm-up' if i < 0 else f'op {i}'} {failure}", file=sys.stderr)

    if args.trace:
        figures = dict(sorted(result["layers"].items()))
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        gated = config["per_layer"]
    else:
        figures = end_to_end(result)
        figures["op_p90_ms"] = (
            statistics.quantiles(lat, n=10)[8] if attempted >= P90_MIN_OPS else None
        )
        figures["error_rate"] = failed / attempted
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}
        units.update(op_p90_ms="ms", error_rate="ratio")
        gated = config["end_to_end"]
    for name, value in figures.items():
        if value is None:
            print(f"  {name:<44} n/a: needs {P90_MIN_OPS} ops, the run had {attempted}")
        else:
            print(f"  {name:<44} {value:>14.6g} {units.get(name, _unit_of(name))}")
    return {
        "correct": not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {g["name"]: {"value": figures[g["name"]], "unit": g["unit"]} for g in gated},
    }


def _unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    return "bytes" if name.endswith("bytes_out") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "phasepovm" / "cli.py").is_file():
        print(f"error: no phasepovm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = workloads.DEFAULT_M[args.workload]
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), m)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, m, result, config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
