"""Experiment harness: seeded sweeps, scaling-collapse output, subcommands.

Outputs are flat files: CSV for tables, JSON (stdout) for single-run
reports, and a hand-written self-contained SVG for the collapse figure.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cayley import MAX_WALK_LENGTH, alon_boppana_lower_bound, walk_counts
from .channel import CONSTRUCTIONS, build_channel, check_construction
from .edgex import converse_check, random_projector, tanner_chain_check
from .errors import NumericalError, QxError, ValidationError
from .matrixcore import SeededRng, batch_blas_threads, batch_workers
from .sdengine import evaluate_exact, evaluate_series, monte_carlo_expectation, parse_trace_expr
from .sdengine.rational import RationalInN
from .spectrum import (
    SuperopSpectrum,
    arnoldi_lambda2,
    benchmark_values,
    eigen_spectrum,
    lanczos_lambda2,
    moment_table,
    write_spectrum_csv,
)

SWEEP_HEADER = "N,D,seed,construction,lambda2,lambda_H,lambda_nH,alon_boppana_lb,gap_ok,wall_ms"
GAP_SLACK = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    construction: str
    N_list: tuple[int, ...]
    D: int
    trials: int
    master_seed: int
    m_max: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.N_list:
            raise ValidationError("N_list must not be empty")
        for n in self.N_list:
            check_construction(self.construction, n, self.D, "matrix-free")
        if self.m_max % 2 != 0 or not 2 <= self.m_max <= MAX_WALK_LENGTH:
            raise ValidationError(f"m_max must be even and lie in 2..{MAX_WALK_LENGTH}, got {self.m_max}")
        if self.master_seed < 0:  # SeededRng rejects it too, but only inside a sweep record
            raise ValidationError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class ExperimentRecord:
    N: int
    D: int
    seed: int
    construction: str
    lambda2: float
    lambda_H: float
    lambda_nH: float
    alon_boppana_lb: float
    gap_ok: bool | None  # None when the bound does not apply (nonhermitian)
    wall_ms: float
    error: str | None = None
    solver: str | None = None  # the solver that produced lambda2
    steps: int | None = None  # Lanczos or Arnoldi steps, fallback included


def _run_one(config: ExperimentConfig, n: int, stream_index: int) -> ExperimentRecord:
    bench = benchmark_values(config.D)
    start = time.perf_counter()
    error = solver = steps = None
    try:
        rng = SeededRng(config.master_seed, stream_index)
        chan = build_channel(config.construction, n, config.D, rng, "matrix-free")
        if chan.hermitian:
            top = lanczos_lambda2(chan)
            lb = alon_boppana_lower_bound(n, config.D, config.m_max).value
            gap_ok = top.lambda2 >= lb - GAP_SLACK
        else:
            top = arnoldi_lambda2(chan)
            lb, gap_ok = math.nan, None
        lam2, solver, steps = top.lambda2, top.solver, top.steps
    except QxError as exc:
        lam2, lb, gap_ok, error = math.nan, math.nan, None, str(exc)
    return ExperimentRecord(
        N=n,
        D=config.D,
        seed=stream_index,
        construction=config.construction,
        lambda2=lam2,
        lambda_H=bench.lambda_H,
        lambda_nH=bench.lambda_nH,
        alon_boppana_lb=lb,
        gap_ok=gap_ok,
        wall_ms=(time.perf_counter() - start) * 1000.0,
        error=error,
        solver=solver,
        steps=steps,
    )


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per (N, trial), in deterministic order with per-trial
    seed streams. A failing record reports its error; the sweep continues.
    """
    records: list[ExperimentRecord] = []
    for n in config.N_list:
        for trial in range(config.trials):
            record = _run_one(config, n, len(records))
            if record.error is not None:
                print(f"record (N={n}, trial={trial}) failed: {record.error}", file=sys.stderr)
            records.append(record)
    return records


def format_record(record: ExperimentRecord) -> str:
    gap = "" if record.gap_ok is None else ("true" if record.gap_ok else "false")
    return ",".join(
        [
            str(record.N),
            str(record.D),
            str(record.seed),
            record.construction,
            f"{record.lambda2:.12g}",
            f"{record.lambda_H:.12g}",
            f"{record.lambda_nH:.12g}",
            f"{record.alon_boppana_lb:.12g}",
            gap,
            f"{record.wall_ms:.3f}",
        ]
    )


def write_sweep_csv(records: list[ExperimentRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for record in records:
            fh.write(format_record(record) + "\n")


# ---------------------------------------------------------------------------
# scaling collapse


def collapse_curve(spectrum: SuperopSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(a/N^2, eigenvalue) with eigenvalues from most positive to most
    negative, the order eigen_spectrum gives a hermitian spectrum."""
    n2 = spectrum.dim * spectrum.dim
    ranks = np.arange(1, n2 + 1) / n2
    return ranks, spectrum.eigenvalues.real


def quantile_distance(
    curve_a: tuple[np.ndarray, np.ndarray], curve_b: tuple[np.ndarray, np.ndarray]
) -> float:
    """Max vertical distance between two curves at matched a/N^2 quantiles.

    Evaluated on the coarser curve's quantiles, interpolating the other
    curve linearly. The first rank of each curve holds the deterministic
    unit eigenvalue, an atom sitting at unmatched quantiles for different
    N, so the comparison grid starts past it on both curves.
    """
    (xa, ya), (xb, yb) = curve_a, curve_b
    if len(xa) > len(xb):
        (xa, ya), (xb, yb) = (xb, yb), (xa, ya)
    if len(xa) < 2 or len(xb) < 2:
        raise ValidationError("quantile distance needs curves with at least 2 points")
    lo = max(xa[1], xb[1])
    mask = xa >= lo
    interp = np.interp(xa[mask], xb, yb)
    return float(np.max(np.abs(ya[mask] - interp)))


def emit_collapse(
    spectra: dict[int, SuperopSpectrum], out_dir
) -> dict:
    """Write collapse.csv (columns N,a_over_N2,eig) and collapse.svg into
    the directory out_dir from Hermitian spectra for at least two values
    of N."""
    out = Path(out_dir)
    curves = {n: collapse_curve(spec) for n, spec in sorted(spectra.items())}

    csv_path = out / "collapse.csv"
    with open(csv_path, "w") as fh:
        fh.write("N,a_over_N2,eig\n")
        for n, (xs, ys) in curves.items():
            for x, y in zip(xs, ys):
                fh.write(f"{n},{x:.12g},{y:.12g}\n")

    svg_path = out / "collapse.svg"
    with open(svg_path, "w") as fh:
        fh.write(_collapse_svg(curves))

    ns = sorted(curves)
    distances = {
        f"{a}-{b}": quantile_distance(curves[a], curves[b])
        for a, b in zip(ns, ns[1:])
    }
    return {"files": [str(csv_path), str(svg_path)], "quantile_distances": distances}


def _collapse_svg(curves: dict[int, tuple[np.ndarray, np.ndarray]]) -> str:
    width, height = 640, 440
    left, right, top, bottom = 60, 20, 20, 50
    pw, ph = width - left - right, height - top - bottom
    y_min = min(float(ys.min()) for _, ys in curves.values())
    y_max = max(1.0, max(float(ys.max()) for _, ys in curves.values()))
    pad = 0.05 * (y_max - y_min or 1.0)
    y_min, y_max = y_min - pad, y_max + pad

    def px(x: float) -> float:
        return left + x * pw

    def py(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * ph

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for k in range(5):
        x = k / 4.0
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{top + ph}" x2="{px(x):.1f}" y2="{top + ph + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(x):.1f}" y="{top + ph + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{x:g}</text>'
        )
    ticks = 5
    for k in range(ticks + 1):
        y = y_min + k * (y_max - y_min) / ticks
        parts.append(
            f'<line x1="{left - 5}" y1="{py(y):.1f}" x2="{left}" y2="{py(y):.1f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py(y) + 4:.1f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{y:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + pw / 2:.1f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">a / N^2</text>'
    )
    parts.append(
        f'<text x="16" y="{top + ph / 2:.1f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {top + ph / 2:.1f})">eigenvalue</text>'
    )
    for idx, (n, (xs, ys)) in enumerate(curves.items()):
        color = palette[idx % len(palette)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{left + pw - 8}" y="{top + 18 + 16 * idx}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif" fill="{color}">N={n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    """A comma-separated list of integers; empty entries are skipped."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"bad {name} {text!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"{name} {text!r} holds no integer")
    return values


def _output_dir(path: str) -> Path:
    """The directory --out names, made with its parents if missing. A
    writing command calls this once its arguments pass and before any
    draw, so that a path naming a regular file, or lying under one, ends
    it with exit 2 before the work, and a rejected command makes no
    directory."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {path!r} is not a usable directory: {exc.strerror}") from exc
    return out


def _cmd_spectrum(args: argparse.Namespace) -> int:
    check_construction(args.construction, args.n, args.d)
    out = _output_dir(args.out)
    chan = build_channel(args.construction, args.n, args.d, SeededRng(args.seed))
    spec = eigen_spectrum(chan)
    csv_path = out / "spectrum.csv"
    write_spectrum_csv(spec, csv_path)
    bench = benchmark_values(args.d)
    report = {
        "N": args.n,
        "D": args.d,
        "construction": args.construction,
        "seed": args.seed,
        "lambda2": spec.lambda2,
        "lambda_H": bench.lambda_H,
        "lambda_nH": bench.lambda_nH,
        "unit_eigvec_residual": spec.unit_eigvec_residual,
        "spectral_radius": spec.spectral_radius,
        "removed_eigenvalue": [spec.removed_eigenvalue.real, spec.removed_eigenvalue.imag],
        "solver": spec.solver,
        "stage_s": spec.stage_s,
        "files": [str(csv_path)],
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    for flag, owner in args.mode_flags:
        if args.construction == "nonhermitian":
            raise ValidationError(f"{flag} is read by {owner} sweeps only, not by nonhermitian ones")
    n_list = _parse_int_list(args.n_list, "N list")
    config = ExperimentConfig(args.construction, n_list, args.d, args.trials, args.seed, args.m_max)
    out = _output_dir(args.out)
    records = run_sweep(config)
    csv_path = out / "sweep.csv"
    write_sweep_csv(records, csv_path)
    failed = [r for r in records if r.error is not None]
    steps = [r.steps for r in records if r.steps is not None]
    print(
        json.dumps(
            {
                "records": len(records),
                "failed": len(failed),
                "solvers": dict(Counter(r.solver for r in records if r.solver is not None)),
                "max_steps": max(steps, default=None),
                "files": [str(csv_path)],
            },
            indent=2,
        )
    )
    return 0


def _cmd_collapse(args: argparse.Namespace) -> int:
    n_list = _parse_int_list(args.n_list, "N list")
    repeated = sorted(n for n, count in Counter(n_list).items() if count > 1)
    if repeated:
        raise ValidationError(f"collapse draws one curve per N; N list repeats {repeated}")
    if len(n_list) < 2:
        raise ValidationError(f"collapse needs >= 2 values of N, got {len(n_list)}")
    for n in n_list:
        check_construction("hermitian", n, args.d)
    out = _output_dir(args.out)
    spectra: dict[int, SuperopSpectrum] = {}
    for stream, n in enumerate(n_list):
        chan = build_channel("hermitian", n, args.d, SeededRng(args.seed, stream))
        spectra[n] = eigen_spectrum(chan)
    report = emit_collapse(spectra, out)
    report["solver"] = spectra[n_list[0]].solver  # one solver per process: its lookup is cached
    print(json.dumps(report, indent=2))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    orders = _parse_int_list(args.m_list, "m list")
    beyond = [m for m in orders if not 1 <= m <= MAX_WALK_LENGTH]
    if beyond:
        raise ValidationError(f"moment orders must lie in 1..{MAX_WALK_LENGTH}, got {beyond}")
    chan = build_channel(args.construction, args.n, args.d, SeededRng(args.seed))
    rows = [
        {
            "m": row.m,
            "moment_trace": row.moment_trace,
            "lambda2_estimate": row.lambda2_estimate,
            "frobenius_moment": row.frobenius_moment,
        }
        for row in moment_table(chan, orders)
    ]
    report = {"N": args.n, "D": args.d, "construction": args.construction, "moments": rows}
    print(json.dumps(report, indent=2))
    return 0


def _cmd_cayley(args: argparse.Namespace) -> int:
    table = walk_counts(args.d, args.m_max)
    out = _output_dir(args.out) if args.out else None
    lines = ["D,m,l,count"]
    for m in range(args.m_max + 1):
        for l in range(m + 1):
            c = table.count(l, m)
            if c:
                lines.append(f"{args.d},{m},{l},{c}")
    text = "\n".join(lines) + "\n"
    if out is not None:
        (out / "cayley.csv").write_text(text)
        print(json.dumps({"files": [str(out / "cayley.csv")]}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sd(args: argparse.Namespace) -> int:
    modes = [name for name, flag in (("exact", args.exact), ("series", args.series), ("mc", args.mc)) if flag]
    if len(modes) > 1:
        raise ValidationError(f"pick one of --exact/--series/--mc, got {modes}")
    mode = modes[0] if modes else "exact"
    for flag, owner in args.mode_flags:
        if owner != mode:
            raise ValidationError(f"{flag} is read by --{owner} only, not by --{mode}")
    parsed = parse_trace_expr(args.expr)
    power = parsed.empty_traces
    n = args.n
    report: dict = {"expression": args.expr, "mode": mode, "n": n, "tr1_factors": power}

    if mode == "exact":
        # the Weingarten formula holds only for N >= k (Collins 2003); an
        # unbalanced query is 0 at every N, so only N >= 1 is needed there
        query = parsed.query
        k = 0 if query.is_unbalanced else max(Counter(s for t in query.traces for s in t).values(), default=0)
        if n is not None and n < max(1, k):
            raise ValidationError(
                f"--exact needs --n >= {max(1, k)}: one letter occurs k={k} times in the "
                "reduced query, and the rational function is the expectation only for N >= k"
            )
        value = evaluate_exact(query) * RationalInN.n_power(power)
        report["rational"] = str(value)
        if n is not None:
            try:
                report["value"] = float(value.evaluate(n))
            except OverflowError:
                raise ValidationError(f"the value at N={n} does not fit in a float") from None
    elif mode == "series":
        if n is None:
            raise ValidationError("--series needs --n")
        try:
            result = evaluate_series(
                parsed.query,
                n,
                n_max=args.levels,
                tol=args.tol,
                allow_divergent=args.allow_divergent,
            )
            scale = n**power
            value, bound = result.partial_total * scale, result.truncation_bound * scale
        except OverflowError:  # a value that does not convert to a float
            value = bound = math.inf
        if math.isinf(value) or math.isinf(bound):
            raise ValidationError(f"the value or its bound at N={n} does not fit in a float")
        report["value"] = value
        report["levels_computed"] = result.levels_computed
        report["truncation_bound"] = bound
        report["level_sums"] = [str(s) for s in result.level_sums]
    else:
        if n is None:
            raise ValidationError("--mc needs --n")
        too_large = f"the estimate or its stderr at N={n} does not fit in a float"
        try:  # N^(tr(1) count) is checked before the sampling, the scaled values after it
            scale = float(n**power)
        except OverflowError:
            raise ValidationError(too_large) from None
        rng = SeededRng(args.seed)
        start = time.perf_counter()
        estimate, stderr = monte_carlo_expectation(parsed.query, n, args.samples, rng)
        sampled = time.perf_counter()
        report["estimate"] = estimate * scale
        report["stderr"] = stderr * scale
        if math.isinf(report["estimate"]) or math.isinf(report["stderr"]):
            raise ValidationError(too_large)
        report["samples"] = args.samples
        report["threads"] = 1 if parsed.query.is_empty else batch_workers(args.samples)
        report["blas_threads"] = batch_blas_threads()
        report["stage_s"] = {"sample": sampled - start}
    print(json.dumps(report, indent=2))
    return 0


def _cmd_edge(args: argparse.Namespace) -> int:
    n, seed = args.n, args.seed
    if args.projectors < 1:
        raise ValidationError(f"--projectors must be >= 1, got {args.projectors}")
    chan = build_channel("hermitian", n, args.d, SeededRng(seed, 0), "matrix-free")
    top = lanczos_lambda2(chan)
    chain = tanner_chain_check(chan, top)
    proj_rng = SeededRng(seed, 1)
    min_slack = math.inf
    for _ in range(args.projectors):
        rank = int(proj_rng.generator.integers(1, n // 2 + 1))
        p = random_projector(n, rank, proj_rng)
        _, slack = converse_check(chan, p, lambda2=top.lambda2)
        min_slack = min(min_slack, slack)
    report = {
        "N": n,
        "D": args.d,
        "seed": seed,
        "lambda2": top.lambda2,
        "solver": top.solver,
        "steps": top.steps,
        "residual": top.residual,
        "min_slack": min_slack,
        "chain": {"lhs": chain.lhs, "rhs": chain.rhs, "holds": chain.holds},
    }
    print(json.dumps(report, indent=2))
    return 0


class _ModeFlag(argparse.Action):
    """A flag that only one mode reads: an `sd eval` mode, or the Hermitian
    constructions of `sweep`. It stores its value as argparse's store
    action does (store_true with nargs=0) and, when given, appends (flag,
    mode) to args.mode_flags for the command to check."""

    def __init__(self, option_strings, dest, mode: str, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.mode = mode

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.mode_flags += ((self.option_strings[0], self.mode),)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding exactly the flags that command
    reads, each with its documented default."""
    parser = argparse.ArgumentParser(
        prog="qexpander",
        description="Spectral-gap workbench for unitary-Kraus channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="one channel: eigenvalues and lambda2")
    p_spec.add_argument("--n", type=int, default=20)
    p_spec.add_argument("--d", type=int, default=4)
    p_spec.add_argument("--construction", choices=CONSTRUCTIONS, default="hermitian")
    p_spec.add_argument("--seed", type=int, default=0)
    p_spec.add_argument("--out", default=".", help="output directory")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="seeded (N, trial) sweep to sweep.csv")
    p_sweep.add_argument("--n-list", default="20,30,50", help="comma-separated N values")
    p_sweep.add_argument("--d", type=int, default=4)
    p_sweep.add_argument("--trials", type=int, default=1)
    p_sweep.add_argument("--construction", choices=CONSTRUCTIONS, default="hermitian")
    p_sweep.add_argument("--m-max", type=int, default=20, action=_ModeFlag, mode="hermitian and weighted")
    p_sweep.add_argument("--seed", type=int, default=0, help="master seed")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep, mode_flags=())

    p_col = sub.add_parser("collapse", help="sorted-spectrum collapse figure")
    p_col.add_argument("--n-list", default="20,30,50", help="comma-separated N values")
    p_col.add_argument("--d", type=int, default=4)
    p_col.add_argument("--seed", type=int, default=0, help="master seed")
    p_col.add_argument("--out", default=".", help="output directory")
    p_col.set_defaults(func=_cmd_collapse)

    p_mom = sub.add_parser("moments", help="trace moments and gap estimates")
    p_mom.add_argument("--n", type=int, default=20)
    p_mom.add_argument("--d", type=int, default=4)
    p_mom.add_argument("--construction", choices=CONSTRUCTIONS, default="hermitian")
    p_mom.add_argument("--m-list", default="2,4,6", help="comma-separated moment orders")
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.set_defaults(func=_cmd_moments)

    p_cay = sub.add_parser("cayley", help="exact walk counts as CSV")
    p_cay.add_argument("--d", type=int, default=4)
    p_cay.add_argument("--m-max", dest="m_max", type=int, default=20)
    p_cay.add_argument("--out", default=None, help="output directory (default: stdout)")
    p_cay.set_defaults(func=_cmd_cayley)

    p_sd = sub.add_parser("sd", help="evaluate a trace-product expectation")
    p_sd.add_argument("action", choices=("eval",))
    p_sd.add_argument("expr", help="e.g. \"tr(U1 U1) tr(U1' U1')\"")
    p_sd.add_argument("--n", type=int, default=None)
    p_sd.add_argument("--exact", action="store_true")
    p_sd.add_argument("--series", action="store_true")
    p_sd.add_argument("--mc", action="store_true")
    p_sd.add_argument("--levels", type=int, default=12, action=_ModeFlag, mode="series")
    p_sd.add_argument("--tol", type=float, default=1e-12, action=_ModeFlag, mode="series")
    p_sd.add_argument("--samples", type=int, default=10_000, action=_ModeFlag, mode="mc")
    p_sd.add_argument(
        "--allow-divergent", nargs=0, const=True, default=False, action=_ModeFlag, mode="series"
    )
    p_sd.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed", action=_ModeFlag, mode="mc")
    p_sd.set_defaults(func=_cmd_sd, mode_flags=())

    p_edge = sub.add_parser("edge", help="edge-expansion report as JSON")
    p_edge.add_argument("--n", type=int, default=20)
    p_edge.add_argument("--d", type=int, default=4)
    p_edge.add_argument("--projectors", type=int, default=20)
    p_edge.add_argument("--seed", type=int, default=0)
    p_edge.set_defaults(func=_cmd_edge)

    return parser


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc malloc_trim).

    glibc keeps freed blocks of up to 32 MiB resident in its heap for
    reuse, such as a Krylov basis, and whether a later command fits into
    them or grows the heap depends on the fragmentation earlier commands
    left. (The dense solve's R is mapped on its own and its build's
    temporaries stay under 128 KiB, so it never leaves large blocks
    there.) Trimming after each command makes a
    command's resident set not depend on what ran before it in the same
    process. Within a command, free() itself hands
    back the top of a heap once the free space there passes the trim
    threshold (twice the mmap threshold, which rises to the largest block
    freed), and the next allocation faults those pages in again. An N=32, 10^4-sample
    Monte-Carlo estimate in the benchmark's op sequence took about 200k
    minor faults while each generator's QR made three 4 MB temporaries,
    59k once the QR was sliced but each sub-batch still had fresh stacks,
    and 0.6k-2.4k once each thread reused its buffers across its sub-batches.
    """
    if sys.platform.startswith("linux"):
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        _release_free_heap()
