"""Record reference.json: the expected result of every command line the
benchmark can generate, at both sizes.

    python3 perfbench/record_reference.py

Run from the repository root at a commit whose outputs are trusted; it
takes a few minutes. For each op it stores what the op printed, plus the
Alon-Boppana bound for Hermitian channels and the exact value of the SD
query where the exact solver reaches it. The run fails if any recorded
op fails its own invariant checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import check, flag_value, observe  # noqa: E402
from run import run_op  # noqa: E402
from workloads import SIZES, all_ops  # noqa: E402

from qexpander import cli  # noqa: E402
from qexpander.cayley import alon_boppana_lower_bound  # noqa: E402
from qexpander.errors import ValidationError  # noqa: E402
from qexpander.sdengine import RationalInN, evaluate_exact, parse_trace_expr  # noqa: E402

AB_M_MAX = 20  # the CLI's default m_max for sweep and the bound


def extras(op) -> dict:
    argv = op.argv
    if op.kind in ("spectrum", "edge"):
        if op.kind == "edge" or flag_value(argv, "--construction") != "nonhermitian":
            n, d = int(flag_value(argv, "--n")), int(flag_value(argv, "--d"))
            return {"alon_boppana_lb": alon_boppana_lower_bound(n, d, AB_M_MAX).value}
    if op.kind == "sweep":
        ns = [int(n) for n in flag_value(argv, "--n-list").split(",")]
        d = int(flag_value(argv, "--d"))
        hermitian = flag_value(argv, "--construction") != "nonhermitian"
        return {"alon_boppana_lb": [alon_boppana_lower_bound(n, d, AB_M_MAX).value if hermitian else None for n in ns]}
    if op.kind in ("sd_series", "sd_mc"):
        parsed = parse_trace_expr(argv[2])
        try:
            exact = evaluate_exact(parsed.query) * RationalInN.n_power(parsed.empty_traces)
        except ValidationError:  # over the exact solver's letter budget
            return {}
        return {"exact_value": float(exact.evaluate(int(flag_value(argv, "--n"))))}
    return {}


def record(size: str, scratch: Path) -> dict:
    table = {}
    for op in all_ops(size):
        seconds, result = run_op(cli.main, op, scratch)
        if result.exit_code != op.expect_exit:
            raise SystemExit(f"{op.key}: exit {result.exit_code}\n{result.stderr}")
        ref = {} if op.kind == "sd_reject" else observe(op, result)
        ref.pop("csv", None)
        ref.update(extras(op))
        problems = check(op, result, ref)
        if problems:
            raise SystemExit(f"{op.key}: {problems}")
        table[op.key] = ref
        print(f"{seconds:7.3f} s  {op.key}", file=sys.stderr)
    return table


def main() -> int:
    bench_dir = HERE.parent / ".bench_build" / "perfbench"
    bench_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=bench_dir))
    try:
        tables = {size: record(size, scratch) for size in SIZES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
