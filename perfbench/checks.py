"""Correctness checks for every benchmark op.

`observe` reads the values an op produced (its stdout JSON and the files
it wrote); `check` compares them with the invariants the paper's numbers
must satisfy and with the reference recorded for the same command line.
Neither imports qexpander, so a check never runs the code it judges.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import SD_CORPUS, Op

GAP_SLACK = 1e-9       # lambda2 against the Alon-Boppana bound
REF_TOL = 1e-9         # lambda2 and quantile distances against the reference
REL_TOL = 1e-9         # moments and series values against the reference
RESIDUAL_TOL = 1e-10   # unit_eigvec_residual
SLACK_TOL = 1e-8       # edge inequalities
FROB_SLACK = 1e-9      # Frobenius moment against N^2 D^-m
MC_SIGMAS = 4.0

KNOWN_EXACT = dict(SD_CORPUS)


@dataclass(frozen=True)
class OpResult:
    exit_code: int | None  # None when an exception escaped the CLI
    stdout: str
    stderr: str
    out_dir: Path | None


def flag_value(argv, name: str) -> str:
    """The value that follows `name` in a command line."""
    return argv[argv.index(name) + 1]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def observe(op: Op, result: OpResult) -> dict:
    """The values an op produced, as plain JSON data. Raises on malformed output."""
    if op.kind == "sd_reject":
        return {}
    if op.kind == "cayley":
        text = (result.out_dir / "cayley.csv").read_text()
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "csv": text}
    report = json.loads(result.stdout)
    if op.kind == "spectrum":
        rows = _csv_rows(result.out_dir / "spectrum.csv")
        return {
            "lambda2": report["lambda2"],
            "unit_eigvec_residual": report["unit_eigvec_residual"],
            "csv_rows": len(rows),
        }
    if op.kind == "sweep":
        rows = _csv_rows(result.out_dir / "sweep.csv")
        return {
            "failed": report["failed"],
            "lambda2": [float(r["lambda2"]) for r in rows],
            "alon_boppana_lb": [float(r["alon_boppana_lb"]) for r in rows],
            "gap_ok": [r["gap_ok"] for r in rows],
        }
    if op.kind == "edge":
        return {
            "lambda2": report["lambda2"],
            "min_slack": report["min_slack"],
            "chain": report["chain"],
        }
    if op.kind == "collapse":
        for name in ("collapse.csv", "collapse.svg"):
            if not (result.out_dir / name).is_file():
                raise FileNotFoundError(name)
        return {"quantile_distances": report["quantile_distances"]}
    if op.kind == "moments":
        return {"moments": report["moments"]}
    if op.kind == "sd_exact":
        return {"rational": report["rational"], "value": report["value"]}
    if op.kind == "sd_series":
        return {"value": report["value"], "truncation_bound": report["truncation_bound"]}
    if op.kind == "sd_mc":
        return {"estimate": report["estimate"], "stderr": report["stderr"]}
    raise ValueError(f"unknown op kind {op.kind!r}")


def _near(got: float, want: float, tol: float, relative: bool = False) -> bool:
    scale = max(1.0, abs(want)) if relative else 1.0
    return abs(got - want) <= tol * scale


def check(op: Op, result: OpResult, ref: dict | None) -> list[str]:
    """Problems found in one op's outcome; an empty list means it passed."""
    if op.kind == "sd_reject":
        problems = []
        if result.exit_code != 2:
            problems.append(f"exit {result.exit_code}, expected 2")
        if not any(line.startswith("error:") for line in result.stderr.splitlines()):
            problems.append("no 'error:' line on stderr")
        if "Traceback" in result.stderr or "Traceback" in result.stdout:
            problems.append("traceback printed")
        return problems
    if result.exit_code != op.expect_exit:
        return [f"exit {result.exit_code}, expected {op.expect_exit}: {result.stderr.strip()[-300:]}"]
    if ref is None:
        return ["no reference recorded for this command line"]
    try:
        got = observe(op, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return _CHECKS[op.kind](op, got, ref)


def _check_spectrum(op: Op, got: dict, ref: dict) -> list[str]:
    problems = []
    lam = got["lambda2"]
    if not _near(lam, ref["lambda2"], REF_TOL):
        problems.append(f"lambda2 {lam!r} differs from reference {ref['lambda2']!r}")
    if "alon_boppana_lb" in ref and lam < ref["alon_boppana_lb"] - GAP_SLACK:
        problems.append(f"lambda2 {lam!r} below the Alon-Boppana bound {ref['alon_boppana_lb']!r}")
    if not got["unit_eigvec_residual"] <= RESIDUAL_TOL:
        problems.append(f"unit_eigvec_residual {got['unit_eigvec_residual']!r} > {RESIDUAL_TOL}")
    n = int(flag_value(op.argv, "--n"))
    if got["csv_rows"] != n * n:
        problems.append(f"spectrum.csv has {got['csv_rows']} rows, expected {n * n}")
    return problems


def _check_sweep(op: Op, got: dict, ref: dict) -> list[str]:
    problems = []
    if got["failed"] != 0:
        problems.append(f"{got['failed']} sweep records failed")
    if len(got["lambda2"]) != len(ref["lambda2"]):
        return problems + [f"{len(got['lambda2'])} sweep rows, expected {len(ref['lambda2'])}"]
    hermitian = flag_value(op.argv, "--construction") != "nonhermitian"
    for lam, want, lb, want_lb, gap in zip(
        got["lambda2"], ref["lambda2"], got["alon_boppana_lb"], ref["alon_boppana_lb"], got["gap_ok"]
    ):
        if not _near(lam, want, REF_TOL):
            problems.append(f"lambda2 {lam!r} differs from reference {want!r}")
        if hermitian:
            if not _near(lb, want_lb, REF_TOL):
                problems.append(f"alon_boppana_lb {lb!r} differs from reference {want_lb!r}")
            if lam < want_lb - GAP_SLACK or gap != "true":
                problems.append(f"lambda2 {lam!r} below the Alon-Boppana bound {want_lb!r}")
    return problems


def _check_edge(op: Op, got: dict, ref: dict) -> list[str]:
    problems = []
    lam = got["lambda2"]
    if not _near(lam, ref["lambda2"], REF_TOL):
        problems.append(f"lambda2 {lam!r} differs from reference {ref['lambda2']!r}")
    if lam < ref["alon_boppana_lb"] - GAP_SLACK:
        problems.append(f"lambda2 {lam!r} below the Alon-Boppana bound {ref['alon_boppana_lb']!r}")
    if not got["min_slack"] >= -SLACK_TOL:
        problems.append(f"min_slack {got['min_slack']!r} < -{SLACK_TOL}")
    chain = got["chain"]
    if not (chain["holds"] is True and chain["lhs"] <= chain["rhs"] + SLACK_TOL):
        problems.append(f"chain inequality fails: {chain!r}")
    return problems


def _check_collapse(op: Op, got: dict, ref: dict) -> list[str]:
    got_d, want_d = got["quantile_distances"], ref["quantile_distances"]
    if set(got_d) != set(want_d):
        return [f"quantile distances for {sorted(got_d)}, expected {sorted(want_d)}"]
    return [
        f"quantile distance {pair} {got_d[pair]!r} differs from reference {want_d[pair]!r}"
        for pair in want_d
        if not _near(got_d[pair], want_d[pair], REF_TOL)
    ]


def _check_moments(op: Op, got: dict, ref: dict) -> list[str]:
    problems = []
    n, d = int(flag_value(op.argv, "--n")), int(flag_value(op.argv, "--d"))
    if [r["m"] for r in got["moments"]] != [r["m"] for r in ref["moments"]]:
        return [f"moment orders {[r['m'] for r in got['moments']]} differ from the reference"]
    for row, want in zip(got["moments"], ref["moments"]):
        m = row["m"]
        if row["frobenius_moment"] < n * n * float(d) ** -m - FROB_SLACK:
            problems.append(f"Frobenius moment m={m} {row['frobenius_moment']!r} below N^2 D^-m")
        for field in ("frobenius_moment", "moment_trace", "lambda2_estimate"):
            a, b = row[field], want[field]
            if (a is None) != (b is None) or (a is not None and not _near(a, b, REL_TOL, relative=True)):
                problems.append(f"{field} m={m} {a!r} differs from reference {b!r}")
    return problems


def _check_sd_exact(op: Op, got: dict, ref: dict) -> list[str]:
    want = KNOWN_EXACT.get(op.argv[2], ref["rational"])
    if got["rational"] != want:
        return [f"exact value {got['rational']!r}, expected {want!r}"]
    return []


def _check_sd_series(op: Op, got: dict, ref: dict) -> list[str]:
    problems = []
    if not _near(got["value"], ref["value"], REL_TOL, relative=True):
        problems.append(f"series value {got['value']!r} differs from reference {ref['value']!r}")
    exact = ref.get("exact_value")
    if exact is not None and abs(got["value"] - exact) > got["truncation_bound"] + REL_TOL:
        problems.append(
            f"series value {got['value']!r} is further from exact {exact!r} "
            f"than its truncation bound {got['truncation_bound']!r}"
        )
    return problems


def _check_sd_mc(op: Op, got: dict, ref: dict) -> list[str]:
    exact, est, err = ref["exact_value"], got["estimate"], got["stderr"]
    if not abs(est - exact) <= MC_SIGMAS * err:
        return [f"MC estimate {est!r} +- {err!r} is over {MC_SIGMAS} sigma from exact {exact!r}"]
    return []


def _check_cayley(op: Op, got: dict, ref: dict) -> list[str]:
    problems = []
    d = int(flag_value(op.argv, "--d"))
    rows: dict[int, dict[int, int]] = {}
    for rec in csv.DictReader(got["csv"].splitlines()):
        rows.setdefault(int(rec["m"]), {})[int(rec["l"])] = int(rec["count"])
    for m, counts in rows.items():
        if sum(counts.values()) != d**m:
            problems.append(f"walk counts at m={m} sum to {sum(counts.values())}, not D^m")
    if rows.get(2, {}).get(0) != d or rows.get(4, {}).get(0) != d * (2 * d - 1):
        problems.append("closed forms N(0,2)=D, N(0,4)=D(2D-1) fail")
    if got["sha256"] != ref["sha256"]:
        problems.append("cayley.csv differs from the reference table")
    return problems


_CHECKS = {
    "spectrum": _check_spectrum,
    "sweep": _check_sweep,
    "edge": _check_edge,
    "collapse": _check_collapse,
    "moments": _check_moments,
    "sd_exact": _check_sd_exact,
    "sd_series": _check_sd_series,
    "sd_mc": _check_sd_mc,
    "cayley": _check_cayley,
}
