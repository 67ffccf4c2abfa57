"""The benchmark's own check; it takes about half a minute.

    python3 perfbench/selfcheck.py

1. The checker counts doctored outputs as failed (a lambda2 below the
   Alon-Boppana bound, a wrong SD rational, a traceback on a reject op)
   and passes the undoctored ones.
2. At tiny sizes, every workload runs with --trace 0 and --trace 1 on two
   seeds, prints the result line with exactly the metrics BENCHMARK.json
   declares, fails no op, and its trace confirms the workload design.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import OpResult, check  # noqa: E402
from workloads import WORKLOADS, all_ops  # noqa: E402

SEEDS = (3, 20261017)  # the second is used nowhere else
RUN_TIMEOUT_S = 180


def expect(ok, what) -> None:
    if not ok:
        raise AssertionError(what)


def _op(kind: str, predicate=lambda op: True):
    return next(op for op in all_ops("full") if op.kind == kind and predicate(op))


def _spectrum_output(out_dir: Path, n: int, lambda2: float, residual: float) -> OpResult:
    rows = ["rank,a_over_N2,eig_re,eig_im,eig_abs"] + [f"{a},0,0,0,0" for a in range(1, n * n + 1)]
    (out_dir / "spectrum.csv").write_text("\n".join(rows) + "\n")
    report = {"lambda2": lambda2, "unit_eigvec_residual": residual}
    return OpResult(0, json.dumps(report), "", out_dir)


def check_doctored(reference: dict, scratch: Path) -> None:
    spectrum = _op("spectrum", lambda op: "hermitian" in op.argv and "50" in op.argv)
    ref = reference[spectrum.key]
    honest = _spectrum_output(scratch, 50, ref["lambda2"], 1e-15)
    expect(check(spectrum, honest, ref) == [], "an honest spectrum output must pass")
    # the doctored reference agrees with the doctored lambda2, so only the bound can fail it
    below = ref["alon_boppana_lb"] - 1e-3
    problems = check(spectrum, _spectrum_output(scratch, 50, below, 1e-15), {**ref, "lambda2": below})
    expect(any("Alon-Boppana" in p for p in problems), problems)

    exact = _op("sd_exact", lambda op: op.argv[2] == "tr(U1 U1) tr(U1' U1')")
    right = OpResult(0, json.dumps({"rational": "2", "value": 2.0}), "", None)
    expect(check(exact, right, reference[exact.key]) == [], "the right SD rational must pass")
    wrong = OpResult(0, json.dumps({"rational": "3", "value": 3.0}), "", None)
    expect(check(exact, wrong, reference[exact.key]), "a wrong SD rational must fail")

    reject = _op("sd_reject")
    clean = OpResult(2, "", "error: m_total=12 exceeds the symbolic budget 10\n", None)
    expect(check(reject, clean, reference[reject.key]) == [], "a clean reject must pass")
    crashed = OpResult(2, "", "Traceback (most recent call last):\n  File \"cli.py\"\nerror: budget\n", None)
    expect(check(reject, crashed, reference[reject.key]), "a traceback on a reject op must fail")


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_runs(spec: dict) -> None:
    declared = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "BENCHMARK.json lists every workload")
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                proc = run_bench(ROOT, workload, seed, trace)
                expect(proc.returncode == 0, proc.stderr[-2000:])
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                report = json.loads(lines[-2])["report"]
                where = f"{workload} seed {seed} trace {trace}"
                expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], where)
                expect(result["correct"] and result["failed"] == 0, (where, report["failures"]))
                expect(result["attempted"] >= 1, where)
                expect(list(result["metrics"]) == declared[trace], where)
                for key in ("nproc", "blas", "numpy", "python", "git_sha", "seed"):
                    expect(key in report["provenance"], (where, key))
                if trace:
                    check_design(workload, {k: v["value"] for k, v in result["metrics"].items()}, where)
                print(f"ok  {where}: {result['attempted']} ops")


def check_design(workload: str, metrics: dict, where: str) -> None:
    """Which layers run where: spectrum never on sd-haar, sdengine only there."""
    quiet = "spectrum." if workload == "sd-haar" else "sdengine."
    busy = [k for k, v in metrics.items() if k.startswith(quiet) and k.endswith(".calls") and v]
    expect(not busy, (where, busy))


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "sd-haar", SEEDS[0], 0)
    expect(proc.returncode != 0, "the benchmark must fail without the program")
    expect('"metrics"' not in proc.stdout, "the benchmark must print no result without the program")
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())["full"]
    bench_dir = ROOT / ".bench_build" / "perfbench"
    bench_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=bench_dir))
    try:
        check_doctored(reference, scratch)
        print("ok  doctored outputs fail, honest ones pass")
        check_runs(spec)
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
