"""Job lists for the three benchmark workloads.

A workload run repeats one job list ("pass") until its time is up. Every
op is one `qexpander` command line. The workload seed only chooses, per
pass, which member of a fixed pool of channel / Monte-Carlo seeds each op
uses, so every command line the benchmark can generate has a reference
result recorded in `reference.json`, and any seed can be checked.

This module does not import qexpander: it only builds argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SEED_POOL = 8  # channel / MC seeds per op; each has a recorded reference

# The SD acceptance corpus (tests/test_acceptance.py) with its known values.
SD_CORPUS = (
    ("tr(U1) tr(U1')", "1"),
    ("tr(U1 U1) tr(U1' U1')", "2"),
    ("tr(U1 U1 U1) tr(U1' U1' U1')", "3"),
    ("tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')", "4"),
    ("tr(U1 U2) tr(U2' U1')", "1"),
    ("tr(U1 U2) tr(U1' U2')", "1"),
    ("tr(U1) tr(U1)", "0"),
    ("tr(U1 U2) tr(U2 U1)", "0"),
    ("tr(U1 U1 U2) tr(U2' U1' U1')", "1"),
)
# m_total = 10 with 2 to 5 generators; all but the first are non-constant in N
SD_EXACT_EXTRA = (
    "tr(U1 U2 U1' U2' U1) tr(U1' U2 U1 U2' U1')",
    "tr(U1 U2 U1' U2') tr(U1 U2 U1' U2') tr(U1) tr(U1')",
    "tr(U1 U2 U3 U1' U2' U3') tr(U1 U2) tr(U2' U1')",
    "tr(U1 U2 U3 U4 U1' U2' U3' U4') tr(U1) tr(U1')",
    "tr(U1 U2 U3 U4 U5 U1' U2' U3' U4' U5')",
)
SIX_GENERATORS = "tr(U1 U2 U3 U4 U5 U6) tr(U6' U5' U4' U3' U2' U1')"  # m_total 12
# over the exact solver's 10-letter budget: must end with exit 2
SD_REJECT = (
    SIX_GENERATORS,
    "tr(U1 U2 U1 U2 U1 U2) tr(U2' U1' U2' U1' U2' U1')",
)
SD_MC_QUERY = "tr(U1 U1 U2) tr(U2' U1' U1')"


@dataclass(frozen=True)
class Op:
    """One command line. `kind` names its subcommand metric (`<kind>_s`)
    and its correctness check; `writes` ops get `--out <dir>` appended."""

    kind: str
    argv: tuple[str, ...]
    writes: bool = False
    expect_exit: int = 0

    @property
    def key(self) -> str:
        """Reference-table key: the command line without `--out`."""
        return " ".join(self.argv)


def _seeded(kind: str, argv: list[str], writes: bool = False):
    """An op template that takes its `--seed` from the pool."""
    return lambda seed: Op(kind, tuple(argv + ["--seed", str(seed)]), writes)


def _fixed(kind: str, argv: list[str], writes: bool = False, expect_exit: int = 0):
    op = Op(kind, tuple(argv), writes, expect_exit)
    return lambda _seed: op


def _sd(mode: str, expr: str, extra: list[str]) -> list[str]:
    return ["sd", "eval", expr, f"--{mode}", *extra]


def _hermitian_lambda2(size: str):
    n, n_sweep, n_edge, n_list, projectors = (
        ("50", "40", "30", "20,30,40", "100") if size == "full" else ("8", "6", "6", "4,6", "5")
    )
    return [
        _seeded("spectrum", ["spectrum", "--construction", "hermitian", "--n", n, "--d", "4"], True),
        _seeded("sweep", ["sweep", "--construction", "weighted", "--n-list", n_sweep, "--d", "6"], True),
        _seeded("edge", ["edge", "--n", n_edge, "--d", "4", "--projectors", projectors]),
        _seeded("collapse", ["collapse", "--n-list", n_list, "--d", "4"], True),
    ]


def _general_moments(size: str):
    n, n_sweep, n_mom = ("40", "30", "30") if size == "full" else ("6", "5", "6")
    return [
        _seeded("spectrum", ["spectrum", "--construction", "nonhermitian", "--n", n, "--d", "4"], True),
        _seeded("sweep", ["sweep", "--construction", "nonhermitian", "--n-list", n_sweep, "--d", "6"], True),
        _seeded(
            "moments",
            ["moments", "--construction", "hermitian", "--n", n_mom, "--d", "4", "--m-list", "1,2,3,4,5,6"],
        ),
    ]


def _sd_haar(size: str):
    if size == "full":
        exact = [expr for expr, _ in SD_CORPUS] + list(SD_EXACT_EXTRA)
        series = [expr for expr, _ in SD_CORPUS] + [SIX_GENERATORS]
        mc_sizes, samples, reject, m_max = ("16", "32"), "10000", SD_REJECT, "64"
    else:
        exact = [SD_CORPUS[1][0], SD_CORPUS[8][0]]
        series = [SD_CORPUS[1][0]]
        mc_sizes, samples, reject, m_max = ("4",), "200", SD_REJECT[1:], "8"
    ops = [_fixed("sd_exact", _sd("exact", e, ["--n", "16"])) for e in exact]
    ops += [_fixed("sd_series", _sd("series", e, ["--n", "16", "--levels", "9"])) for e in series]
    ops += [_seeded("sd_mc", _sd("mc", SD_MC_QUERY, ["--n", n, "--samples", samples])) for n in mc_sizes]
    ops += [_fixed("sd_reject", _sd("exact", e, ["--n", "16"]), expect_exit=2) for e in reject]
    ops.append(_fixed("cayley", ["cayley", "--d", "6", "--m-max", m_max], True))
    return ops


WORKLOADS = {
    "hermitian-lambda2": _hermitian_lambda2,
    "general-moments": _general_moments,
    "sd-haar": _sd_haar,
}
SIZES = ("full", "tiny")
SUBCOMMAND_KINDS = (
    "spectrum", "sweep", "collapse", "edge", "moments",
    "sd_exact", "sd_series", "sd_mc", "sd_reject",
)

# A small op that pays numpy's import and OpenBLAS's first-call cost
# before timing starts; N=20 is large enough to start the BLAS threads.
WARMUP = {
    "full": Op("spectrum", ("spectrum", "--construction", "hermitian", "--n", "20", "--d", "4"), True),
    "tiny": Op("spectrum", ("spectrum", "--construction", "hermitian", "--n", "6", "--d", "4"), True),
}


def job_pass(workload: str, size: str, seed: int, pass_index: int) -> list[Op]:
    """The ops of one pass; the same (workload, size, seed, pass) gives the same ops."""
    rng = random.Random(f"{workload}/{size}/{seed}/{pass_index}")
    return [template(rng.randrange(SEED_POOL)) for template in WORKLOADS[workload](size)]


def all_ops(size: str) -> list[Op]:
    """Every distinct op any seed can generate at this size, warm-up included."""
    ops = {WARMUP[size].key: WARMUP[size]}
    for build in WORKLOADS.values():
        for template in build(size):
            for seed in range(SEED_POOL):
                op = template(seed)
                ops[op.key] = op
    return list(ops.values())
