"""One benchmark process: set up, then run ops in a closed loop in-process.

Usage: python3 bench/worker.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory holding the phasepovm package), the
``ops`` from workloads.prepare, ``seconds`` (0: set up only), ``trace``,
``first_dir`` and ``trace_file`` (where the spans of a traced run go).
The process imports phasepovm, runs one untimed warm-up op, then calls
``phasepovm.cli.main`` op after op, one client, no threads of its own. Each op is timed with its stdout and stderr
captured; after the timer stops its exit codes are read and its output
bytes are hashed and compared with the first op of the same key, whose
files are copied to ``first_dir`` for the content checks in run.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import END, START, Tracer, layer_metrics

SCALING_M = (16, 64, 256)
SCALING_REPEATS = 3
SCALED = (
    ("naimark", "build_extension_closed"),
    ("naimark", "build_extension_recursive"),
    ("naimark", "verify_naimark"),
    ("compiler", "evaluate_netlist"),
    ("compiler", "decompose_by_elimination"),
    ("optics", "simulate_direct"),
    ("optics", "simulate_folded"),
    ("povm", "guessing_probability"),
)


def import_phasepovm(src: str):
    sys.path.insert(0, src)
    import phasepovm
    import phasepovm.cli

    where = Path(phasepovm.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise RuntimeError(f"phasepovm imported from {where}, not from {src}")
    return phasepovm


class Runner:
    """Runs ops against ``package.cli.main`` and records each one."""

    def __init__(self, package, first_dir: Path):
        self.cli = package.cli
        self.first_dir = first_dir
        self.digests: dict[str, str] = {}
        self.tracer: Tracer | None = None

    def run(self, op: dict, op_id: int) -> dict:
        sink = io.StringIO()
        if self.tracer is not None:
            self.tracer.op = op_id
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            codes = [self.call(argv) for argv in op["steps"]]
            seconds = time.perf_counter() - start
        return self.record(op, seconds, codes, sink.getvalue())

    def call(self, argv: list[str]) -> int:
        """Exit code of one CLI call; an uncaught exception counts as exit 1."""
        try:
            return self.cli.main(list(argv))
        except Exception:  # the loop must go on and count the op as failed
            traceback.print_exc()
            return 1

    def record(self, op: dict, seconds: float, codes: list[int], notes: str) -> dict:
        digest, size = hashlib.sha256(), 0
        try:
            for path in op["outputs"]:
                data = Path(path).read_bytes()
                digest.update(path.encode() + b"\0" + data)
                size += len(data)
        except OSError as exc:
            digest, notes = None, f"{notes}\noutput missing: {exc}"
        same = False
        if digest is not None:
            if op["key"] not in self.digests:
                self.digests[op["key"]] = digest.hexdigest()
                self.keep_first(op)
            same = self.digests[op["key"]] == digest.hexdigest()
        ok = same and all(code == 0 for code in codes)
        return {
            "key": op["key"],
            "ms": seconds * 1e3,
            "exit_codes": codes,
            "same_bytes": same,
            "bytes_out": size,
            "notes": "" if ok else notes[-2000:],
        }

    def keep_first(self, op: dict) -> None:
        keep = self.first_dir / op["key"]
        keep.mkdir(parents=True)
        for path in op["outputs"]:
            shutil.copyfile(path, keep / Path(path).name)

    def loop(self, ops: list[dict], seconds: float, first_id: int = 0) -> list[dict]:
        """Closed loop over ``ops`` in order for ``seconds``; at least one op."""
        records: list[dict] = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            records.append(self.run(ops[len(records) % len(ops)], first_id + len(records)))
        return records


def ops_per_s(records: list[dict]) -> float:
    return len(records) / (sum(r["ms"] for r in records) / 1e3)


def scaling_table(package) -> dict[str, float]:
    """Median span time of each layer entry point at each M in SCALING_M."""
    import numpy as np

    tracer = Tracer()
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    table = {}
    for m in SCALING_M:
        ext = package.build_extension_closed(m)
        args = {
            "build_extension_closed": (m,),
            "build_extension_recursive": (m,),
            "verify_naimark": (ext,),
            "evaluate_netlist": (package.decompose_closed(m),),
            "decompose_by_elimination": (ext,),
            "simulate_direct": (package.build_direct_scheme(m), rho),
            "simulate_folded": (m, rho),
            "guessing_probability": (m,),
        }
        for layer, name in SCALED:
            fn = tracer.wrap(getattr(getattr(package, layer), name), layer, name)
            first = len(tracer.spans)
            for _ in range(SCALING_REPEATS):
                fn(*args[name])
            seconds = [s[END] - s[START] for s in tracer.spans[first:]]
            table[f"{layer}.{name}_ms.M{m}"] = statistics.median(seconds) * 1e3
    return table


def blas_info() -> dict:
    """BLAS library and thread count of the numpy in use (OpenBLAS only)."""
    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    ops, seconds = spec["ops"], spec["seconds"]

    start = time.perf_counter()
    package = import_phasepovm(spec["src"])
    imported = time.perf_counter() - start
    runner = Runner(package, Path(spec["first_dir"]))
    warmup = runner.run(ops[0], -1)
    # the warm-up's own timer stops before its outputs are hashed and kept
    result = {"setup_s": imported + warmup["ms"] / 1e3, "warmup": warmup}

    if seconds > 0 and not spec["trace"]:
        result["records"] = runner.loop(ops, seconds)
    elif seconds > 0:
        untraced = runner.loop(ops, seconds / 2)
        runner.tracer = Tracer()
        with runner.tracer.installed(package):
            traced = runner.loop(ops, seconds / 2, first_id=len(untraced))
        runner.tracer, spans = None, runner.tracer.spans
        layers = layer_metrics(spans, len(traced))
        layers["cli.bytes_out"] = statistics.mean(r["bytes_out"] for r in traced)
        layers["trace.overhead_pct"] = 100.0 * (1.0 - ops_per_s(traced) / ops_per_s(untraced))
        layers.update(scaling_table(package))
        result.update(records=untraced + traced, layers=layers)
        with gzip.open(spec["trace_file"], "wt", encoding="utf-8") as fh:
            json.dump(spans, fh)

    import numpy as np

    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
