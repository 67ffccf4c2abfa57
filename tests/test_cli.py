import argparse
import ast
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import platform
import re
import shlex
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qexpander
from qexpander import matrixcore, sdengine, spectrum
from qexpander.cayley import MAX_WALK_LENGTH, walk_counts
from qexpander.channel import build_channel
from qexpander.cli import (
    ExperimentConfig,
    SWEEP_HEADER,
    build_parser,
    format_record,
    main,
    run_sweep,
    write_sweep_csv,
)
from qexpander.errors import NumericalError, ValidationError
from qexpander.matrixcore import SeededRng
from qexpander.sdengine.engine import LevelAudit, SdTerm


def mask_wall_ms(text: str) -> list[str]:
    return [",".join(line.split(",")[:9]) for line in text.splitlines()]


def run_cli(argv: list[str]) -> int:
    """main's exit code, also when argparse rejects argv and exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# test-only code lives next to the oracles in tests/, or is gone
MOVED_TO_TESTS = (
    "superoperator",
    "vec",
    "unvec",
    "faithfulness_residual",
    "hermitian_coords",
    "inverse_letter",
    "_check_alphabet",
    "reduce_word",
    "shift_symmetry_period",
    "return_count_upper_bound",
    "edge_ratio",
    "assert_unitary",
    "haar_unitaries",
    "build_weighted",
    "to_json_dict",
    "from_json_dict",
    "dumps",
    "loads",
    "parse_config_file",
    "merge_config",
    "_FLAG_KEYS",
    "_CONFIG_KEYS",
    "_parse_int",
    "_solve_exact",
    "build_hermitian_random",
    "build_weighted_random",
    "build_nonhermitian_random",
    "_adjoint_paired_haar",
    "_check_paired_shape",
    "hs_inner",
    "hs_norm",
    "hermitian_from_coords",
    "map_batches",
)

# 200 traces that reduce to tr(1): N^200 is past a float at N=128, and
# with tr(U2) tr(U2') the reduced query is not empty
HUGE_SCALE = " ".join(["tr(U1 U1')"] * 200)


def test_src_exports_resolve_and_hold_no_test_only_code():
    for module in (spectrum, sdengine):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert not {"SdTerm", "LevelAudit"} & set(vars(sdengine))
    for info in pkgutil.walk_packages(qexpander.__path__, "qexpander."):
        module = importlib.import_module(info.name)
        assert not set(MOVED_TO_TESTS) & set(vars(module)), info.name
    for cls, names in (
        (sdengine.RationalInN, ("is_constant", "constant_value")),
        (sdengine.SeriesResult, ("exact_partial_total", "m_total", "N")),
        (SeededRng, ("stream",)),
        (ExperimentConfig, ("output_dir", "m_max")),
        (SdTerm, ("split_count",)),
        (LevelAudit, ("live_count",)),
    ):
        members = set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}
        assert not members & set(names), cls.__name__


# one spectral path: the functions that may call a dense np.linalg eigensolver
EIGENSOLVER_CALLERS = {
    "spectrum._traceless_eigenvalues",  # R', every eigenvalue
    "spectrum._ritz_step",  # the k x k Hessenberg matrix of the Krylov solve
    "edgex.tanner_chain_check",  # the N x N eigenvector of R'
}


def test_only_the_spectral_path_calls_a_dense_eigensolver():
    root = Path(qexpander.__file__).parent
    callers = set()
    for path in root.rglob("*.py"):
        module = ".".join(path.relative_to(root).with_suffix("").parts)

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            func = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr.startswith("eig")
                and ast.unparse(func.value) in ("np.linalg", "numpy.linalg")
            ):
                callers.add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), module)
    assert callers == EIGENSOLVER_CALLERS


def test_readme_command_lines_parse():
    # every example in README's "Command line" block names only flags argparse accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("python -m qexpander ")]
    assert lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[3:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        assert args.command == argv[0]


def test_readme_flag_table_matches_the_parser():
    # README's flag table lists, per command, exactly the flags its subparser takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    documented = {cmd.strip(" `").split()[0]: set(re.findall(r"--[a-z][a-z-]*", flags)) for cmd, flags in rows}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {opt for action in sub._actions if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert documented == accepted
    # each bracketed default is argparse's; text after ", " in the brackets is commentary
    for cmd, flags in rows:
        actions = {opt: a for a in subparsers.choices[cmd.strip(" `").split()[0]]._actions
                   for opt in a.option_strings}
        for flag, text in re.findall(r"`(--[a-z][a-z-]*)` \[([^\]]*)\]", flags):
            action, text = actions[flag], text.split(", ")[0]
            want = None if text == "stdout" else (action.type or str)(text)
            assert action.default == want, (cmd, flag)


def test_sweep_csv_header_and_determinism(tmp_path):
    args = ["sweep", "--n-list", "8,10", "--d", "4", "--trials", "2", "--seed", "3"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a_dir)]) == 0
    assert main(args + ["--out", str(b_dir)]) == 0
    a = (a_dir / "sweep.csv").read_text()
    b = (b_dir / "sweep.csv").read_text()
    assert a.splitlines()[0] == SWEEP_HEADER
    assert mask_wall_ms(a) == mask_wall_ms(b)
    assert len(a.splitlines()) == 1 + 4


def test_sweep_gap_ok_and_benchmarks(tmp_path):
    out = tmp_path / "s"
    assert main(["sweep", "--n-list", "12", "--trials", "3", "--seed", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    for row in rows:
        assert row[3] == "hermitian"
        assert abs(float(row[5]) - 2 * math.sqrt(3) / 4) < 1e-10
        assert abs(float(row[6]) - 0.5) < 1e-10
        assert float(row[4]) >= float(row[7]) - 1e-9
        assert row[8] == "true"
        assert float(row[9]) > 0
    assert [r[2] for r in rows] == ["0", "1", "2"]  # per-trial seed streams


def test_sweep_nonhermitian_rows_have_no_bound(tmp_path, capsys):
    out = tmp_path / "nh"
    code = main(
        ["sweep", "--n-list", "8", "--trials", "2", "--construction", "nonhermitian",
         "--d", "3", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["alon_boppana_m"] is None
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    for row in rows:
        assert row[3] == "nonhermitian"
        assert row[7] == "nan"
        assert row[8] == ""


def test_sweep_bound_takes_the_best_order_the_walk_table_reaches(tmp_path, capsys):
    # max over even m <= 64 of ((N^2 N(0,m)/D^m - 1)/N^2)^(1/m), where the
    # tree return weight N^2 N(0,m)/D^m exceeds 1; at D=4 from N=40 up the
    # best order lies past 20 (m=20 gives 0.720289334972 and 0.725630599068)
    table = walk_counts(4, MAX_WALK_LENGTH)
    best = {}
    for n in (40, 50):
        weights = {m: Fraction(n * n * table.count(0, m), 4**m) for m in range(2, MAX_WALK_LENGTH + 1, 2)}
        best[n] = max(
            (float((w - 1) / (n * n)) ** (1.0 / m), m) for m, w in weights.items() if w > 1
        )
    assert main(["sweep", "--n-list", "40,50", "--d", "4", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alon_boppana_m"] == {"40": best[40][1], "50": best[50][1]} == {"40": 22, "50": 24}
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[7] for row in rows] == [f"{best[n][0]:.12g}" for n in (40, 50)]
    assert [row[7] for row in rows] == ["0.720440373332", "0.729591673165"]
    assert [row[8] for row in rows] == ["true", "true"]


def test_sweep_weighted_d6_bound_keeps_its_order(tmp_path, capsys):
    # at D=6 the best order is 12, well inside the old m_max=20
    assert main(["sweep", "--construction", "weighted", "--n-list", "40", "--d", "6",
                 "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["alon_boppana_m"] == {"40": 12}
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[7] == "0.554082407584"


def test_sweep_weighted_construction(tmp_path):
    out = tmp_path / "w"
    assert main(["sweep", "--n-list", "10", "--construction", "weighted",
                 "--seed", "4", "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "weighted"
    assert row[8] == "true"


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig("hermitian", (129,), 4, 1, 0)  # N over the matrix-free ceiling
    with pytest.raises(ValidationError):
        ExperimentConfig("nonhermitian", (129,), 4, 1, 0)  # the same ceiling
    with pytest.raises(ValidationError):
        ExperimentConfig("hermitian", (8,), 3, 1, 0)  # odd D
    with pytest.raises(ValidationError):
        ExperimentConfig("weird", (8,), 4, 1, 0)
    with pytest.raises(ValidationError):
        ExperimentConfig("hermitian", (8,), 4, 0, 0)  # no trials
    ExperimentConfig("nonhermitian", (8,), 2, 1, 0)  # D=2 fine here


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum", "--n", "65", "--out", "{tmp}"],
        ["moments", "--n", "65"],
        ["edge", "--n", "129"],
        ["sweep", "--n-list", "20,129", "--out", "{tmp}"],
        ["collapse", "--n-list", "20,65", "--out", "{tmp}"],
        ["collapse", "--n-list", "6", "--out", "{tmp}"],
        ["spectrum", "--construction", "hermitian", "--d", "5", "--out", "{tmp}"],
        ["spectrum", "--construction", "weighted", "--d", "5", "--out", "{tmp}"],
        ["spectrum", "--construction", "nonhermitian", "--d", "1", "--out", "{tmp}"],
        ["sweep", "--construction", "weighted", "--n-list", "20,129", "--out", "{tmp}"],
        ["sweep", "--construction", "nonhermitian", "--n-list", "20,129", "--out", "{tmp}"],
        ["moments", "--m-list", "2,65"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--samples", "100000000000000000000"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--samples", "9223372036854775807"],
        ["sd", "eval", HUGE_SCALE, "--mc", "--n", "128"],
        ["sd", "eval", HUGE_SCALE + " tr(U2) tr(U2')", "--mc", "--n", "128"],
        ["sweep", "--construction", "nonhermitian", "--n-list", "8", "--m-max", "30", "--out", "{tmp}"],
        ["spectrum", "--out", "{file}"],
        ["sweep", "--n-list", "6", "--out", "{file}/sub"],
        ["collapse", "--n-list", "6,8", "--out", "{file}"],
    ],
)
def test_over_ceiling_n_is_rejected_before_the_haar_draw(command, monkeypatch, tmp_path, capsys):
    # every request that may not be drawn exits 2 before its first random
    # number: no Haar unitary, no Gamma weight, no projector
    def no_draw(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(SeededRng, "generator", property(no_draw))
    (tmp_path / "file").touch()
    assert run_cli([arg.format(tmp=tmp_path, file=tmp_path / "file") for arg in command]) == 2
    captured = capsys.readouterr()
    if "--m-max" in command:  # sweep works out its tree-bound order itself and takes no such flag
        assert "unrecognized arguments: --m-max" in captured.err
    else:
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    # the message names the ceiling of the solver the command runs, or of the moment orders
    line = " ".join(command)
    if re.search(r"--n(-list)? \S*\b65\b", line):
        assert "2..64 (the dense-solver ceiling)" in captured.err
    if re.search(r"\b129\b", line):
        assert "2..128 (the matrix-free-solver ceiling)" in captured.err
    if "--m-list" in command:
        assert "1..64" in captured.err


def test_exit_code_validation_error(tmp_path, capsys):
    code = main(["spectrum", "--n", "99", "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "0", "--out", "{tmp}"],
        ["spectrum", "--d", "0", "--out", "{tmp}"],
        ["moments", "--n", "0"],
        ["moments", "--d", "0"],
        ["edge", "--n", "0"],
        ["edge", "--d", "0"],
        ["cayley", "--d", "0", "--out", "{tmp}"],
        ["moments", "--m-list", "x"],
        ["moments", "--n", "1000", "--d", "4"],
        ["edge", "--projectors", "0"],
        ["edge", "--projectors", "-3"],
        ["spectrum", "--n", "4", "--seed", "-1", "--out", "{tmp}"],
        ["sweep", "--n-list", "4", "--seed", "-1", "--out", "{tmp}"],
        ["edge", "--n", "4", "--seed", "-1"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--seed", "-1"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "129", "--samples", "100"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "1000000", "--samples", "100"],
        # 16 bytes per sample past what numpy can describe
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--samples", "100000000000000000000"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--samples", "9223372036854775807"],
        ["sd", "eval", "tr(U1 U2 U1' U2')", "--exact", "--n", "0"],
        ["sd", "eval", "tr(U1 U2 U1' U2')", "--exact", "--n", "-4"],
        ["sd", "eval", "tr(U1 U1 U1) tr(U1' U1' U1')", "--exact", "--n", "2"],
        ["sd", "eval", "tr(U1 U1) tr(U1' U1')", "--series", "--n", "16", "--tol", "nan"],
        ["sd", "eval", "tr(U1) tr(U1')", "--series", "--n", "16", "--levels", "129"],
        ["sweep", "--n-list", "4", "--d", "4", "--m-max", "200", "--out", "{tmp}"],
        ["collapse", "--n-list", "6,8,6", "--out", "{tmp}"],
        ["sd", "eval", "tr(U1 U1') tr(U2 U2') tr(U3) tr(U3')", "--exact", "--n", "1" + "0" * 200],
        ["sd", "eval", "tr(U1 U1') tr(U2 U2') tr(U3) tr(U3')", "--series", "--n", "1" + "0" * 200],
        ["sd", "eval", HUGE_SCALE, "--mc", "--n", "128"],
        ["sweep", "--construction", "nonhermitian", "--n-list", "8", "--m-max", "30", "--out", "{tmp}"],
        ["sd", "eval", "tr(U1) tr(U1')", "--exact", "--samples", "500"],
        ["sd", "eval", "tr(U1) tr(U1')", "--n", "4", "--allow-divergent"],
        ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--levels", "3"],
        ["sd", "eval", "tr(U1) tr(U1')", "--series", "--n", "16", "--seed", "2"],
        ["moments", "--m-list", "2,65"],
        ["spectrum", "--n", "4", "--out", "{file}"],
        ["spectrum", "--n", "4", "--out", "{file}/sub"],
        ["sweep", "--n-list", "4", "--out", "{file}"],
        ["sweep", "--n-list", "4", "--out", "{file}/sub"],
        ["collapse", "--n-list", "4,6", "--out", "{file}"],
        ["collapse", "--n-list", "4,6", "--out", "{file}/sub"],
        ["cayley", "--out", "{file}"],
        ["cayley", "--out", "{file}/sub"],
    ],
)
def test_explicit_zero_is_validated_not_defaulted(argv, tmp_path, capsys):
    (tmp_path / "file").touch()  # a regular file where --out wants a directory
    assert run_cli([arg.format(tmp=tmp_path, file=tmp_path / "file") for arg in argv]) == 2
    captured = capsys.readouterr()
    if "--m-max" in argv:  # sweep works out its tree-bound order itself and takes no such flag
        assert "unrecognized arguments: --m-max" in captured.err
    else:
        assert any(line.startswith("error:") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""
    if argv[-2:] == ["--levels", "129"]:
        assert captured.err == "error: need 1 <= n_max <= 128 (the series level ceiling), got n_max=129\n"


def test_out_of_memory_exits_2_without_a_traceback():
    # 16 PB of samples: the allocation fails at once on any allocator. The
    # command runs in a child process because after a failed malloc glibc
    # serves the thread from a second arena, where malloc_trim leaves freed
    # pages resident and test_command_leaves_no_freed_heap_resident fails.
    argv = ["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4", "--samples", "1000000000000000"]
    env = {**os.environ, "PYTHONPATH": str(Path(qexpander.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qexpander", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--config", "run.cfg"],
        ["moments", "--config", "run.cfg"],
        ["cayley", "--config", "run.cfg"],
        ["sd", "eval", "tr(U1)", "--config", "run.cfg"],
        ["edge", "--config", "run.cfg"],
        ["moments", "--out", "runs"],
        ["sd", "eval", "tr(U1)", "--out", "runs"],
        ["edge", "--out", "runs"],
        ["cayley", "--seed", "1"],
        ["collapse", "--trials", "2"],
        ["collapse", "--m-max", "20"],
        ["collapse", "--construction", "hermitian"],
        ["sweep", "--workers", "2"],
        ["sweep", "--config", "run.cfg"],
        ["collapse", "--config", "run.cfg"],
        ["sd", "eval", "tr(U1) tr(U1')", "--series", "--n", "16", "--budget", "5"],
    ],
)
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sd_action_must_be_eval(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sd", "evaluate", "tr(U1)"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_exit_code_numerical_error(monkeypatch, capsys):
    monkeypatch.setattr(sdengine.engine, "SERIES_STATE_CEILING", 5)
    code = main(["sd", "eval", "tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')", "--series", "--n", "16"])
    assert code == 3
    assert "distinct states, over the ceiling 5" in capsys.readouterr().err


def test_spectrum_command_outputs(tmp_path, capsys):
    assert main(["spectrum", "--n", "8", "--d", "4", "--seed", "1", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 8 and report["D"] == 4
    assert 0 < report["lambda2"] < 1
    assert abs(report["spectral_radius"] - 1.0) < 1e-10
    removed_re, removed_im = report["removed_eigenvalue"]
    assert abs(removed_re - 1.0) < 1e-10 and removed_im == 0.0
    assert report["solver"] == ("numpy" if spectrum._lapacke_eigensolvers() is None else "lapack")
    assert set(report["stage_s"]) == {"build", "solve"}
    assert all(seconds >= 0.0 for seconds in report["stage_s"].values())
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "rank,a_over_N2,eig_re,eig_im,eig_abs"
    assert len(lines) == 1 + 64


def test_collapse_command_outputs(tmp_path, capsys):
    code = main(["collapse", "--n-list", "8,12", "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "8-12" in report["quantile_distances"]
    assert report["solver"] == ("numpy" if spectrum._lapacke_eigensolvers() is None else "lapack")
    lines = (tmp_path / "collapse.csv").read_text().splitlines()
    assert lines[0] == "N,a_over_N2,eig"
    assert len(lines) == 1 + 64 + 144
    svg = (tmp_path / "collapse.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2


def test_moments_command(capsys):
    assert main(["moments", "--n", "8", "--d", "4", "--seed", "1", "--m-list", "2,4"]) == 0
    report = json.loads(capsys.readouterr().out)
    moments = report["moments"]
    assert [row["m"] for row in moments] == [2, 4]
    for row in moments:
        assert row["moment_trace"] > 1
        assert row["frobenius_moment"] >= 1
    # hermitian identity: tr(S^4) = frobenius at m=2
    assert abs(moments[1]["moment_trace"] - moments[0]["frobenius_moment"]) < 1e-8


def test_moments_command_builds_r_once(monkeypatch, capsys):
    import qexpander.spectrum as spectrum_mod

    real = spectrum_mod.real_superoperator
    calls = []

    def counted(chan):
        calls.append(chan.dim)
        return real(chan)

    monkeypatch.setattr(spectrum_mod, "real_superoperator", counted)
    assert main(["moments", "--n", "6", "--m-list", "1,2,3,4,5,6"]) == 0
    assert calls == [6]
    rows = json.loads(capsys.readouterr().out)["moments"]
    assert [row["lambda2_estimate"] is None for row in rows] == [True, False] * 3


def test_moments_nonhermitian_skips_trace_route(capsys):
    assert main(["moments", "--n", "8", "--d", "3", "--construction", "nonhermitian",
                 "--m-list", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    row = report["moments"][0]
    assert row["moment_trace"] is None
    assert row["frobenius_moment"] >= 1


def test_cayley_command_stdout(capsys):
    assert main(["cayley", "--d", "4", "--m-max", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "D,m,l,count"
    assert "4,2,0,4" in lines
    assert "4,4,0,28" in lines


def test_cayley_command_file(tmp_path, capsys):
    assert main(["cayley", "--d", "6", "--m-max", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "cayley.csv").read_text().splitlines()
    assert lines[0] == "D,m,l,count"
    assert "6,2,0,6" in lines


def test_sd_eval_exact(capsys):
    assert main(["sd", "eval", "tr(U1 U2 U1' U2')", "--exact", "--n", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rational"] == "1/N"
    assert report["value"] == pytest.approx(1 / 16)


def test_sd_eval_identity_trace_scales_by_n(capsys):
    assert main(["sd", "eval", "tr(U1 U1')", "--exact", "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rational"] == "N"
    assert report["value"] == pytest.approx(4.0)
    assert report["tr1_factors"] == 1


def test_sd_eval_series(capsys):
    assert main(["sd", "eval", "tr(U1 U1) tr(U1' U1')", "--series", "--n", "16",
                 "--levels", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == pytest.approx(2.0)
    assert report["level_sums"][0] == "2"


@pytest.mark.parametrize(
    "expr, flags, exact",
    [
        # at most 7 distinct states per level, while the raw term count reaches 2.2e8
        ("tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')", ["--n", "16", "--levels", "16"], 4.0),
        # at most 938 states at the default 12 levels, 3.7e7 raw terms at level 12
        ("tr(U1 U2 U1 U2' U1' U2 U1' U2') tr(U2 U1 U2' U1 U2 U1' U2' U1')", ["--n", "17"], None),
    ],
)
def test_sd_eval_series_is_bounded_by_states_not_raw_terms(expr, flags, exact, capsys):
    assert main(["sd", "eval", expr, "--series", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["levels_computed"] == (16 if "--levels" in flags else 12)
    if exact is not None:
        assert abs(report["value"] - exact) <= report["truncation_bound"]


@pytest.mark.parametrize("expr", ["tr(U1) tr(U1)", "tr(U1 U2) tr(U2 U1)"])
def test_sd_eval_series_of_an_unbalanced_query_runs_no_level(expr, capsys):
    assert main(["sd", "eval", expr, "--series", "--n", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 0.0 and report["truncation_bound"] == 0.0
    assert report["levels_computed"] == 0 and report["level_sums"] == []


def test_sd_eval_series_at_huge_n_matches_exact(capsys):
    # the bound overflows a float at levels 0 and 1 (N^2 each), while the
    # value 2N and the bound where the series stops both fit
    expr, n = "tr(U1 U1) tr(U1' U1') tr(U3 U3')", "1" + "0" * 200
    assert main(["sd", "eval", expr, "--series", "--n", n, "--levels", "12"]) == 0
    series = json.loads(capsys.readouterr().out)
    assert main(["sd", "eval", expr, "--exact", "--n", n]) == 0
    assert series["value"] == json.loads(capsys.readouterr().out)["value"] == 2e200
    assert math.isfinite(series["truncation_bound"])


def test_sd_eval_mc(capsys):
    assert main(["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "8",
                 "--samples", "1000", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["estimate"] - 1.0) <= 4 * report["stderr"]


def test_sd_eval_mode_conflict(capsys):
    code = main(["sd", "eval", "tr(U1)", "--exact", "--mc", "--n", "8"])
    assert code == 2


def test_sd_eval_parse_error_exit_2(capsys):
    assert main(["sd", "eval", "tr(", "--exact"]) == 2


@pytest.mark.parametrize("mode", [["--mc", "--n", "16", "--samples", "200"], ["--exact"]])
def test_sd_eval_takes_eight_generators(mode, capsys):
    assert main(["sd", "eval", "tr(U1 U2 U3 U4 U5 U6 U7 U8)", *mode]) == 0
    report = json.loads(capsys.readouterr().out)
    if "--exact" in mode:
        assert report["rational"] == "0"
    else:
        assert abs(report["estimate"]) <= 4 * report["stderr"]


def test_sd_eval_exact_over_the_letter_budget_exits_2_before_the_search(capsys):
    # the budget is the exact solver's first step
    expr = "tr(U1 U2 U3 U4 U5 U6 U7) tr(U7' U6' U5' U4' U3' U2' U1')"
    assert main(["sd", "eval", expr, "--exact", "--n", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: m_total=14 exceeds the symbolic budget 10\n"
    assert captured.out == ""


def test_sd_eval_exact_past_the_interpolation_cap_exits_3(monkeypatch, capsys):
    # 2/N^3 needs five interpolation points; past the cap it is a numerical failure
    monkeypatch.setattr("qexpander.sdengine.rational.MAX_POINTS", 2)
    expr = "tr(U1 U2 U3 U4 U1' U2' U3' U4') tr(U1) tr(U1')"
    assert main(["sd", "eval", expr, "--exact", "--n", "16"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: no rational function of N")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "expr, k",
    [("tr(U1 U1 U1) tr(U1' U1' U1')", 3), ("tr(U1 U2 U1' U2' U1) tr(U1' U2 U1 U2' U1')", 3)],
    ids=["cube", "ten_letters"],
)
def test_sd_eval_exact_holds_from_n_equal_k(expr, k, capsys):
    # below k, the most times one letter occurs, the rational function is
    # not the expectation (at N=2 the first would print 3 and the second 1)
    assert main(["sd", "eval", expr, "--exact", "--n", str(k - 1)]) == 2
    assert f"k={k}" in capsys.readouterr().err
    assert main(["sd", "eval", expr, "--exact", "--n", str(k)]) == 0
    exact = json.loads(capsys.readouterr().out)["value"]
    assert main(["sd", "eval", expr, "--mc", "--n", str(k), "--samples", "20000", "--seed", "1"]) == 0
    mc = json.loads(capsys.readouterr().out)
    assert abs(mc["estimate"] - exact) <= 4 * mc["stderr"]


@pytest.mark.parametrize(
    "expr, n",
    [("tr(U1 U1 U1)", "2"), ("tr(U1 U2 U3 U4 U5 U6 U7 U8 U9 U10 U11 U12)", "16")],
    ids=["below_k", "over_budget"],
)
def test_sd_eval_exact_is_zero_for_an_unbalanced_query(expr, n, capsys):
    # a generator with net exponent != 0 makes the expectation 0 at every
    # N, so neither N >= k nor the letter budget applies
    assert main(["sd", "eval", expr, "--exact", "--n", n]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["rational"], report["value"]) == ("0", 0.0)


def test_sd_eval_exact_budget_counts_reduced_letters(capsys):
    # 12 letters as written, 2 after cyclic reduction
    expr = "tr(U1 U1' U2 U2' U1 U3 U3' U1' U1 U2 U2') tr(U1')"
    assert main(["sd", "eval", expr, "--exact", "--n", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["rational"] == "1"


@pytest.mark.parametrize(
    "samples, cpus, threads",
    [(256, 2, 1), (257, 2, 2), (300, 1, 1), (10000, 2, 2), (10000, 3, 3), (2048, 16, 8)],
)
def test_sd_eval_mc_reports_samples_and_threads(monkeypatch, capsys, samples, cpus, threads):
    # the threads actually used: one per CPU, at most one per 256-sample
    # sub-batch; a single sub-batch runs inline
    from qexpander.sdengine import mc

    callers: set[int] = set()
    real = mc._trace_product

    def recording(stacks, query):
        callers.add(threading.get_ident())
        return real(stacks, query)

    monkeypatch.setattr("qexpander.matrixcore.worker_count", lambda: cpus)
    monkeypatch.setattr(mc, "_trace_product", recording)
    assert main(["sd", "eval", "tr(U1) tr(U1')", "--mc", "--n", "4",
                 "--samples", str(samples), "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["samples"], report["threads"]) == (samples, threads)
    assert report["blas_threads"] == (None if matrixcore._blas_thread_calls() is None else 1)
    # the wall seconds of its one stage, as `spectrum` reports its two
    assert list(report["stage_s"]) == ["sample"] and report["stage_s"]["sample"] >= 0.0
    assert (callers == {threading.get_ident()}) == (threads == 1)


def test_edge_command(monkeypatch, capsys):
    solves = []
    real = spectrum.lanczos_lambda2

    def counted(chan):
        solves.append(chan.dim)
        return real(chan)

    for info in pkgutil.walk_packages(qexpander.__path__, "qexpander."):
        module = importlib.import_module(info.name)
        if hasattr(module, "lanczos_lambda2"):
            monkeypatch.setattr(module, "lanczos_lambda2", counted)
    assert main(["edge", "--n", "10", "--d", "4", "--seed", "2", "--projectors", "5"]) == 0
    assert solves == [10]  # one solve serves lambda2, the report and the chain
    report = json.loads(capsys.readouterr().out)
    assert report["min_slack"] >= -1e-8
    assert report["chain"]["holds"] is True
    assert report["chain"]["lhs"] <= report["chain"]["rhs"] + 1e-8
    assert report["solver"] == "lanczos"
    assert -report["lambda2"] <= report["theta_min"] < 0.0
    assert 0 < report["steps"] <= 99
    assert report["residual"] <= 1e-12


def test_edge_past_the_dense_ceiling_without_convergence_exits_3(monkeypatch, capsys):
    # above N=64 there is no dense fallback: an unconverged solve is a numerical failure
    monkeypatch.setattr(spectrum, "KRYLOV_BUDGET_SCALE", 1)
    assert main(["edge", "--n", "65", "--projectors", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: Lanczos did not converge in 65 steps at N=65")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_sweep_reports_solvers_and_steps(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", "--n-list", "6,8", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solvers"] == {"lanczos": 4}
    assert 0 < report["max_steps"] <= 63
    assert (out / "sweep.csv").read_text().splitlines()[0] == SWEEP_HEADER
    assert main(["sweep", "--n-list", "6", "--construction", "nonhermitian", "--d", "3",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solvers"] == {"arnoldi": 1} and 0 < report["max_steps"] <= 35


def test_hermitian_sweep_past_the_dense_ceiling(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", "--n-list", "80", "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0 and report["solvers"] == {"lanczos": 1}
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "80" and row[8] == "true"
    assert float(row[7]) <= float(row[4]) < 1.0


def test_hermitian_sweep_and_edge_build_no_superoperator(monkeypatch, tmp_path, capsys):
    real = spectrum._image_coords  # the one builder of R
    calls = []

    def counted(chan):
        calls.append(chan.dim)
        return real(chan)

    monkeypatch.setattr(spectrum, "_image_coords", counted)
    assert main(["sweep", "--n-list", "6", "--construction", "weighted", "--out", str(tmp_path)]) == 0
    assert main(["edge", "--n", "6", "--projectors", "2"]) == 0
    assert calls == []
    assert main(["sweep", "--n-list", "6", "--construction", "nonhermitian", "--out", str(tmp_path)]) == 0
    assert calls == []


def test_lanczos_commands_do_not_import_scipy(tmp_path):
    code = (
        "import sys\n"
        "from qexpander.cli import main\n"
        f"assert main(['sweep', '--n-list', '8', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert main(['edge', '--n', '8', '--projectors', '2']) == 0\n"
        f"assert main(['sweep', '--n-list', '8', '--construction', 'nonhermitian', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qexpander.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_run_sweep_records_errors_and_continues(monkeypatch, capsys):
    calls = {"n": 0}

    import qexpander.cli as cli_mod

    real = cli_mod.lanczos_lambda2

    def flaky(chan, *a, **k):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NumericalError("synthetic failure")
        return real(chan, *a, **k)

    monkeypatch.setattr(cli_mod, "lanczos_lambda2", flaky)
    config = ExperimentConfig("hermitian", (8,), 4, 2, 0)
    records = run_sweep(config)
    assert len(records) == 2
    assert records[0].error == "synthetic failure"
    assert math.isnan(records[0].lambda2)
    assert records[1].error is None
    line = format_record(records[0])
    assert line.split(",")[4] == "nan"


def test_build_channel_weighted_weights_paired():
    chan = build_channel("weighted", 8, 6, SeededRng(3))
    assert chan.hermitian
    w = chan.weights
    assert abs(sum(w) - 1) < 1e-12
    for s in range(3):
        assert w[s] == w[s + 3]


def test_write_sweep_csv_round_trip(tmp_path):
    config = ExperimentConfig("hermitian", (8,), 4, 1, 0)
    records = run_sweep(config)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is a glibc call")
def test_dense_peak_does_not_depend_on_the_heap_state_earlier_commands_left(tmp_path):
    # The first command runs at glibc's starting mmap threshold (128 KiB);
    # freeing a 30 MiB block (never written, so never resident) raises it
    # to 30 MiB, and blocks below that then come from the heap. R is
    # mapped on its own and the build's temporaries stay under 128 KiB, so
    # the later commands peak where the first did: measured within 0.1 MB.
    # With R and the per-row temporaries on the heap the peak rose 1.2 MB
    # here (5 MB at N=40).
    script = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "from qexpander.cli import main\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "argv = ['spectrum', '--construction', 'nonhermitian', '--n', '30', '--d', '4', '--seed', '1',\n"
        "        '--out', sys.argv[1]]\n"
        "peaks = []\n"
        "for i in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    peaks.append(peak_kb())\n"
        "    if i == 0:\n"
        "        big = np.empty(30 * 2**20 // 8)\n"
        "        del big\n"
        "print((peaks[-1] - peaks[0]) * 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qexpander.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2**20


def test_command_leaves_no_freed_heap_resident(tmp_path, capsys):
    def rss_mb() -> float:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * 4096 / 2**20

    argv = ["spectrum", "--construction", "nonhermitian", "--n", "30", "--d", "4", "--seed", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    # freeing a 30 MiB block raises glibc's mmap threshold past one 6.5 MB R,
    # so the next command's R comes from the heap
    big = np.ones(30 * 2**20 // 8)
    del big
    before = rss_mb()
    assert main(argv) == 0
    capsys.readouterr()
    assert rss_mb() - before < 3.0
