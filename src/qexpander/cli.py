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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cayley import alon_boppana_lower_bound, walk_counts
from .channel import Channel, build_hermitian_random, build_nonhermitian_random, build_weighted_random
from .edgex import converse_check, random_projector, tanner_chain_check
from .errors import NumericalError, QxError, ValidationError
from .matrixcore import SeededRng
from .sdengine import evaluate_exact, evaluate_series, monte_carlo_expectation, parse_trace_expr
from .sdengine.engine import DEFAULT_SYMBOLIC_BUDGET
from .sdengine.mc import monte_carlo_threads
from .sdengine.rational import RationalInN
from .spectrum import (
    DEFAULT_DIM_CEILING,
    SuperopSpectrum,
    benchmark_values,
    eigen_spectrum,
    moment_table,
    write_spectrum_csv,
)

SWEEP_HEADER = "N,D,seed,construction,lambda2,lambda_H,lambda_nH,alon_boppana_lb,gap_ok,wall_ms"
CONSTRUCTIONS = ("hermitian", "nonhermitian", "weighted")
GAP_SLACK = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    construction: str
    N_list: tuple[int, ...]
    D: int
    trials: int
    master_seed: int
    output_dir: str
    m_max: int

    def __post_init__(self) -> None:
        if self.construction not in CONSTRUCTIONS:
            raise ValidationError(
                f"construction must be one of {CONSTRUCTIONS}, got {self.construction!r}"
            )
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.N_list:
            raise ValidationError("N_list must not be empty")
        for n in self.N_list:
            if not 2 <= n <= DEFAULT_DIM_CEILING:
                raise ValidationError(f"every N must lie in 2..{DEFAULT_DIM_CEILING}, got {n}")
        if self.construction in ("hermitian", "weighted"):
            if self.D % 2 != 0 or self.D < 4:
                raise ValidationError(
                    f"{self.construction} construction needs even D >= 4, got D={self.D}"
                )
        elif self.D < 2:
            raise ValidationError(f"nonhermitian construction needs D >= 2, got D={self.D}")
        if self.m_max % 2 != 0 or self.m_max < 2:
            raise ValidationError(f"m_max must be even and >= 2, got {self.m_max}")
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


def build_channel(construction: str, N: int, D: int, rng: SeededRng) -> Channel:
    """A random channel; N is held to the dense ceiling before any draw."""
    if N > DEFAULT_DIM_CEILING:
        raise ValidationError(f"N={N} exceeds the dense-solver ceiling {DEFAULT_DIM_CEILING}")
    if construction == "hermitian":
        return build_hermitian_random(N, D, rng)
    if construction == "nonhermitian":
        return build_nonhermitian_random(N, D, rng)
    if construction == "weighted":
        return build_weighted_random(N, D, rng)
    raise ValidationError(f"unknown construction {construction!r}")


def _run_one(config: ExperimentConfig, n: int, stream_index: int) -> ExperimentRecord:
    bench = benchmark_values(config.D)
    start = time.perf_counter()
    error = None
    try:
        rng = SeededRng(config.master_seed, stream_index)
        chan = build_channel(config.construction, n, config.D, rng)
        lam2 = eigen_spectrum(chan).lambda2
        if config.construction == "nonhermitian":
            lb, gap_ok = math.nan, None
        else:
            lb = alon_boppana_lower_bound(n, config.D, config.m_max).value
            gap_ok = lam2 >= lb - GAP_SLACK
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
    """(a/N^2, eigenvalue) with eigenvalues from most positive to most negative."""
    n2 = spectrum.dim * spectrum.dim
    eigs = np.sort(spectrum.eigenvalues.real)[::-1]
    ranks = np.arange(1, n2 + 1) / n2
    return ranks, eigs


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
    """Write collapse.csv (columns N,a_over_N2,eig) and collapse.svg.

    Needs Hermitian spectra for at least two values of N.
    """
    if len(spectra) < 2:
        raise ValidationError(f"collapse needs spectra for >= 2 values of N, got {len(spectra)}")
    for n, spec in spectra.items():
        if not spec.hermitian:
            raise ValidationError(f"collapse needs hermitian spectra, N={n} is not")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
# config files: flat key=value with ExperimentConfig's exact key names

# flag attribute -> config key; a flag that is set overrides the file value
_FLAG_KEYS = {
    "construction": "construction", "n_list": "N_list", "d": "D", "trials": "trials",
    "seed": "master_seed", "out": "output_dir", "m_max": "m_max",
}
_CONFIG_KEYS = set(_FLAG_KEYS.values())


def parse_config_file(path) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    """A comma-separated list of integers; empty entries are skipped."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"bad {name} {text!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"{name} {text!r} holds no integer")
    return values


def _parse_int(text, name: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad integer for {name}: {text!r}") from exc


def merge_config(args: argparse.Namespace, unread: tuple[str, ...] = ()) -> ExperimentConfig:
    """CLI flags override config-file values, which override defaults. A
    config file that sets one of the `unread` keys is rejected."""
    file_values = parse_config_file(args.config) if args.config else {}
    for key in unread:
        if key in file_values:
            raise ValidationError(f"{args.config}: {args.command} does not read {key!r}")
    defaults = {
        "construction": "hermitian",
        "N_list": "20,30,50",
        "D": "4",
        "trials": "1",
        "master_seed": "0",
        "output_dir": ".",
        "m_max": "20",
    }
    merged = {**defaults, **file_values}
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            merged[key] = str(getattr(args, flag))
    return ExperimentConfig(
        construction=merged["construction"],
        N_list=_parse_int_list(merged["N_list"], "N list"),
        D=_parse_int(merged["D"], "D"),
        trials=_parse_int(merged["trials"], "trials"),
        master_seed=_parse_int(merged["master_seed"], "master_seed"),
        output_dir=merged["output_dir"],
        m_max=_parse_int(merged["m_max"], "m_max"),
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args: argparse.Namespace) -> int:
    chan = build_channel(args.construction, args.n, args.d, SeededRng(args.seed))
    spec = eigen_spectrum(chan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        "files": [str(csv_path)],
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = merge_config(args)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_sweep(config)
    csv_path = out / "sweep.csv"
    write_sweep_csv(records, csv_path)
    failed = [r for r in records if r.error is not None]
    print(
        json.dumps(
            {
                "records": len(records),
                "failed": len(failed),
                "files": [str(csv_path)],
            },
            indent=2,
        )
    )
    return 0


def _cmd_collapse(args: argparse.Namespace) -> int:
    config = merge_config(args, unread=("trials", "m_max"))
    if config.construction != "hermitian":
        raise ValidationError("collapse uses the hermitian construction")
    spectra: dict[int, SuperopSpectrum] = {}
    for stream, n in enumerate(config.N_list):
        rng = SeededRng(config.master_seed, stream)
        chan = build_hermitian_random(n, config.D, rng)
        spectra[n] = eigen_spectrum(chan)
    report = emit_collapse(spectra, config.output_dir)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    orders = _parse_int_list(args.m_list, "m list")
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
    lines = ["D,m,l,count"]
    for m in range(args.m_max + 1):
        for l in range(m + 1):
            c = table.count(l, m)
            if c:
                lines.append(f"{args.d},{m},{l},{c}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
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
    # the exact solver's budget is checked before the canonical-form search
    parsed = parse_trace_expr(args.expr, DEFAULT_SYMBOLIC_BUDGET if mode == "exact" else None)
    power = parsed.empty_traces
    n = args.n
    report: dict = {"expression": args.expr, "mode": mode, "n": n, "tr1_factors": power}

    if mode == "exact":
        value = evaluate_exact(parsed.query) * RationalInN.n_power(power)
        report["rational"] = str(value)
        if n is not None:
            report["value"] = float(value.evaluate(n))
    elif mode == "series":
        if n is None:
            raise ValidationError("--series needs --n")
        result = evaluate_series(
            parsed.query,
            n,
            n_max=args.levels,
            tol=args.tol,
            node_budget=args.budget,
            allow_divergent=args.allow_divergent,
        )
        scale = n**power
        report["value"] = result.partial_total * scale
        report["levels_computed"] = result.levels_computed
        report["truncation_bound"] = result.truncation_bound * scale
        report["level_sums"] = [str(s) for s in result.level_sums]
    else:
        if n is None:
            raise ValidationError("--mc needs --n")
        rng = SeededRng(args.seed)
        estimate, stderr = monte_carlo_expectation(parsed.query, n, args.samples, rng)
        scale = float(n**power)
        report["estimate"] = estimate * scale
        report["stderr"] = stderr * scale
        report["samples"] = args.samples
        report["threads"] = monte_carlo_threads(parsed.query, args.samples)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_edge(args: argparse.Namespace) -> int:
    n, seed = args.n, args.seed
    if args.projectors < 1:
        raise ValidationError(f"--projectors must be >= 1, got {args.projectors}")
    chan = build_channel("hermitian", n, args.d, SeededRng(seed, 0))
    chain = tanner_chain_check(chan)
    lam2 = chain.spectrum.lambda2
    proj_rng = SeededRng(seed, 1)
    min_slack = math.inf
    for _ in range(args.projectors):
        rank = int(proj_rng.generator.integers(1, n // 2 + 1))
        p = random_projector(n, rank, proj_rng)
        _, slack = converse_check(chan, p, lambda2=lam2)
        min_slack = min(min_slack, slack)
    report = {
        "N": n,
        "D": args.d,
        "seed": seed,
        "lambda2": lam2,
        "min_slack": min_slack,
        "chain": {"lhs": chain.lhs, "rhs": chain.rhs, "holds": chain.holds},
    }
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding exactly the flags that command
    reads. Only sweep and collapse take --config; their flags default to
    None so that merge_config can tell a flag from a file value."""
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
    p_sweep.add_argument("--n-list", default=None, help="comma-separated N values")
    p_sweep.add_argument("--d", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--construction", choices=CONSTRUCTIONS, default=None)
    p_sweep.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None, help="master seed")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--config", default=None, help="key=value config file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_col = sub.add_parser("collapse", help="sorted-spectrum collapse figure")
    p_col.add_argument("--n-list", default=None, help="comma-separated N values")
    p_col.add_argument("--d", type=int, default=None)
    p_col.add_argument("--seed", type=int, default=None, help="master seed")
    p_col.add_argument("--out", default=None, help="output directory")
    p_col.add_argument("--config", default=None, help="key=value config file")
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
    p_sd.add_argument("--levels", type=int, default=12)
    p_sd.add_argument("--tol", type=float, default=1e-12)
    p_sd.add_argument("--samples", type=int, default=10_000)
    p_sd.add_argument("--budget", type=int, default=10_000_000)
    p_sd.add_argument("--allow-divergent", action="store_true")
    p_sd.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p_sd.set_defaults(func=_cmd_sd)

    p_edge = sub.add_parser("edge", help="edge-expansion report as JSON")
    p_edge.add_argument("--n", type=int, default=20)
    p_edge.add_argument("--d", type=int, default=4)
    p_edge.add_argument("--projectors", type=int, default=20)
    p_edge.add_argument("--seed", type=int, default=0)
    p_edge.set_defaults(func=_cmd_edge)

    return parser


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc malloc_trim).

    glibc keeps freed blocks of up to 32 MiB, such as the N^2 x N^2 arrays
    (6.5 MB at N=30, 20 MB at N=40), resident in its heap for reuse, and
    whether a later solve fits into them or grows the heap depends on the
    fragmentation earlier commands left. Trimming after each command makes
    a command's resident set not depend on what ran before it in the same
    process; within a command the allocator reuses its heap as usual.
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
    finally:
        _release_free_heap()
