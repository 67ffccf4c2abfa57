"""qexpander benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload hermitian-lambda2 --seed 1 --seconds 38 --trace 0

Run from the repository root. The run imports qexpander from ./src, pays
the import and OpenBLAS's first-call cost with one untimed warm-up op
(set-up), then repeats the workload's job list ("pass") while a typical
pass still fits in --seconds. Each op is one in-process call of
qexpander.cli.main(argv), run one at a time, and every op's output is
checked (checks.py). Engine caches are cleared before each pass, so every
pass starts cold.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 passes alternate untraced / traced and it holds the per-layer
metrics (tracer.py), the untraced subcommand times and the tracing
overhead. The line before it is a JSON report with the per-pass figures,
failures and provenance.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import OpResult, check  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SIZES, SUBCOMMAND_KINDS, WARMUP, WORKLOADS, Op, job_pass  # noqa: E402

SETUP_PROBES = 6  # fresh processes timing set-up; the run's own set-up is one more sample
PROBE_TIMEOUT_S = 60
MAX_FAILURE_LINES = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: the self-check sizes")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.probe_setup and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    return args


def run_op(main, op: Op, scratch: Path) -> tuple[float, OpResult]:
    """Time one cli.main call with stdout/stderr captured."""
    argv = list(op.argv)
    out_dir = None
    if op.writes:
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        argv += ["--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, OpResult(code, out.getvalue(), err.getvalue(), out_dir)


def set_up(size: str, scratch: Path):
    """Import qexpander from ./src and run the untimed warm-up op.
    Returns (seconds taken, cli module, warm-up result)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qexpander.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qexpander imported from {cli.__file__}, not from {SRC}")
    _, warm = run_op(cli.main, WARMUP[size], scratch)
    return time.perf_counter() - start, cli, warm


def probe_setup(size: str) -> float:
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def clear_caches() -> None:
    """Empty every functools cache in qexpander, so each pass starts cold."""
    for key, module in list(sys.modules.items()):
        if key == "qexpander" or key.startswith("qexpander."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read through the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qexpander").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(args, cli, scratch: Path, reference: dict, tracer: Tracer | None):
    """Whole passes that fit in --seconds (at least one; two when tracing).
    Returns (passes, attempted, failures)."""
    passes: list[dict] = []
    attempted = 0
    failures: list[str] = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        clear_caches()
        if traced:
            tracer.install()
        by_kind = {kind: 0.0 for kind in SUBCOMMAND_KINDS}
        wall = 0.0
        try:
            for op in job_pass(args.workload, args.size, args.seed, index):
                if tracer is not None:
                    tracer.op_id = attempted
                elapsed, result = run_op(cli.main, op, scratch)
                wall += elapsed
                if op.kind in by_kind:
                    by_kind[op.kind] += elapsed
                problems = check(op, result, reference.get(op.key))
                attempted += 1
                if problems:
                    failures.append(f"pass {index}: {op.key}: {'; '.join(problems)}")
                if result.out_dir is not None:
                    shutil.rmtree(result.out_dir, ignore_errors=True)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall_s": wall, "traced": traced, "by_kind": by_kind})
        index += 1
        # start another pass only if a typical one still fits in --seconds
        typical = statistics.median(p["wall_s"] for p in passes)
        out_of_time = time.perf_counter() - start + typical > args.seconds
        if out_of_time and (tracer is None or index >= 2):
            return passes, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qexpander" / "cli.py").is_file():
        print(f"error: {SRC / 'qexpander'} not found; run from a qexpander checkout", file=sys.stderr)
        return 2
    bench_dir = ROOT / ".bench_build" / "perfbench"
    bench_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=bench_dir))
    try:
        if args.probe_setup:
            setup_s, _cli, _warm = set_up(args.size, scratch)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, scratch, bench_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path, bench_dir: Path) -> int:
    reference = json.loads((HERE / "reference.json").read_text())[args.size]
    setups = [probe_setup(args.size) for _ in range(SETUP_PROBES)]
    own_setup, cli, warm = set_up(args.size, scratch)
    setups.append(own_setup)

    warm_problems = check(WARMUP[args.size], warm, reference.get(WARMUP[args.size].key))
    tracer = Tracer() if args.trace else None
    passes, attempted, failures = run_workload(args, cli, scratch, reference, tracer)
    attempted += 1
    if warm_problems:
        failures.insert(0, f"warm-up: {'; '.join(warm_problems)}")
    failed = len(failures)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    subcommands = {
        f"{kind}_s": statistics.median(p["by_kind"][kind] for p in untraced) for kind in SUBCOMMAND_KINDS
    }
    if args.trace:
        metrics = tracer.layer_metrics(len(traced))
        metrics.update(subcommands)
        metrics["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / untraced_wall - 1.0
        spans_path = bench_dir / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
    else:
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    report = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setups,
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "subcommand_s": {k: round(v, 4) for k, v in subcommands.items() if v},
        "failed_frac": failed / attempted,
        "failures": failures[:MAX_FAILURE_LINES],
        "missing_functions": tracer.missing if tracer else [],
        "provenance": provenance(args.seed),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": declared_metrics(metrics, args.trace)}))
    return 0


def declared_metrics(measured: dict[str, float], trace: int) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    sys.exit(main())
