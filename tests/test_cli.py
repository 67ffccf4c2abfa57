import json
import math
import platform
import threading

import numpy as np
import pytest

from qexpander.cli import (
    ExperimentConfig,
    SWEEP_HEADER,
    build_channel,
    format_record,
    main,
    merge_config,
    parse_config_file,
    run_sweep,
    write_sweep_csv,
)
from qexpander.errors import NumericalError, ValidationError
from qexpander.matrixcore import SeededRng


def mask_wall_ms(text: str) -> list[str]:
    return [",".join(line.split(",")[:9]) for line in text.splitlines()]


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


def test_sweep_nonhermitian_rows_have_no_bound(tmp_path):
    out = tmp_path / "nh"
    code = main(
        ["sweep", "--n-list", "8", "--trials", "2", "--construction", "nonhermitian",
         "--d", "3", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    for row in rows:
        assert row[3] == "nonhermitian"
        assert row[7] == "nan"
        assert row[8] == ""


def test_sweep_weighted_construction(tmp_path):
    out = tmp_path / "w"
    assert main(["sweep", "--n-list", "10", "--construction", "weighted",
                 "--seed", "4", "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "weighted"
    assert row[8] == "true"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nN_list = 8,10\nD = 4\ntrials = 1\nmaster_seed = 9\n")
    values = parse_config_file(cfg)
    assert values["N_list"] == "8,10" and values["master_seed"] == "9"

    class Args:
        config = str(cfg)
        construction = None
        n_list = None
        d = None
        trials = 2  # CLI flag wins over the file
        seed = None
        out = None
        m_max = None

    config = merge_config(Args())
    assert config.N_list == (8, 10)
    assert config.trials == 2
    assert config.master_seed == 9


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 1\n")
    with pytest.raises(ValidationError):
        parse_config_file(cfg)
    # collapse reads neither trials nor m_max and builds only hermitian channels
    for line in ("trials = 2", "m_max = 20", "construction = weighted"):
        cfg.write_text(f"N_list = 4,6\n{line}\n")
        assert main(["collapse", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig("hermitian", (99,), 4, 1, 0, ".", 20)  # N over ceiling
    with pytest.raises(ValidationError):
        ExperimentConfig("hermitian", (8,), 3, 1, 0, ".", 20)  # odd D
    with pytest.raises(ValidationError):
        ExperimentConfig("weird", (8,), 4, 1, 0, ".", 20)
    with pytest.raises(ValidationError):
        ExperimentConfig("hermitian", (8,), 4, 0, 0, ".", 20)  # no trials
    ExperimentConfig("nonhermitian", (8,), 2, 1, 0, ".", 20)  # D=2 fine here


@pytest.mark.parametrize("command", [["spectrum", "--out", "{tmp}"], ["moments"], ["edge"]])
def test_over_ceiling_n_is_rejected_before_the_haar_draw(command, monkeypatch, tmp_path, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a unitary was drawn")

    monkeypatch.setattr("qexpander.channel.haar_unitary", no_draw)
    argv = [command[0], "--n", "65", *(arg.format(tmp=tmp_path) for arg in command[1:])]
    assert main(argv) == 2
    assert "ceiling" in capsys.readouterr().err


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
    ],
)
def test_explicit_zero_is_validated_not_defaulted(argv, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert any(line.startswith("error:") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""


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


def test_exit_code_numerical_error(capsys):
    code = main(["sd", "eval", "tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')",
                 "--series", "--n", "16", "--budget", "5"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_spectrum_command_outputs(tmp_path, capsys):
    assert main(["spectrum", "--n", "8", "--d", "4", "--seed", "1", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 8 and report["D"] == 4
    assert 0 < report["lambda2"] < 1
    assert abs(report["spectral_radius"] - 1.0) < 1e-10
    removed_re, removed_im = report["removed_eigenvalue"]
    assert abs(removed_re - 1.0) < 1e-10 and removed_im == 0.0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "rank,a_over_N2,eig_re,eig_im,eig_abs"
    assert len(lines) == 1 + 64


def test_collapse_command_outputs(tmp_path, capsys):
    code = main(["collapse", "--n-list", "8,12", "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "8-12" in report["quantile_distances"]
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


@pytest.mark.parametrize("mode", [["--mc", "--n", "16"], ["--exact"]])
def test_sd_eval_over_the_generator_limit_exits_2(mode, monkeypatch, capsys):
    def no_search(traces):
        raise AssertionError("the canonical-form search ran")

    # 8 letters fit the exact solver's budget; only the generator count is over
    monkeypatch.setattr("qexpander.sdengine.words.canonical_traces", no_search)
    assert main(["sd", "eval", "tr(U1 U2 U3 U4 U5 U6 U7 U8)", *mode]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "generators" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""


def test_sd_eval_exact_over_the_letter_budget_exits_2_before_the_search(monkeypatch, capsys):
    def no_search(traces):
        raise AssertionError("the canonical-form search ran")

    monkeypatch.setattr("qexpander.sdengine.words.canonical_traces", no_search)
    expr = "tr(U1 U2 U3 U4 U5 U6 U7) tr(U7' U6' U5' U4' U3' U2' U1')"
    assert main(["sd", "eval", expr, "--exact", "--n", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: m_total=14 exceeds the symbolic budget 10\n"
    assert captured.out == ""


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
    # the threads actually used: one per CPU, at most one per 256-matrix
    # sub-batch of a 2048-sample chunk; a single sub-batch runs inline
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
    assert (callers == {threading.get_ident()}) == (threads == 1)


def test_edge_command(capsys):
    assert main(["edge", "--n", "10", "--d", "4", "--seed", "2", "--projectors", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_slack"] >= -1e-8
    assert report["chain"]["holds"] is True
    assert report["chain"]["lhs"] <= report["chain"]["rhs"] + 1e-8


def test_run_sweep_records_errors_and_continues(monkeypatch, capsys):
    calls = {"n": 0}

    import qexpander.cli as cli_mod

    real = cli_mod.eigen_spectrum

    def flaky(chan, *a, **k):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NumericalError("synthetic failure")
        return real(chan, *a, **k)

    monkeypatch.setattr(cli_mod, "eigen_spectrum", flaky)
    config = ExperimentConfig("hermitian", (8,), 4, 2, 0, ".", 20)
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
    config = ExperimentConfig("hermitian", (8,), 4, 1, 0, ".", 20)
    records = run_sweep(config)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is a glibc call")
def test_command_leaves_no_freed_heap_resident(tmp_path, capsys):
    def rss_mb() -> float:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * 4096 / 2**20

    argv = ["spectrum", "--construction", "nonhermitian", "--n", "30", "--d", "4", "--seed", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    # freeing a 30 MiB block raises glibc's mmap threshold past one 6.5 MB R,
    # so the next command's R and solver copy come from the heap
    big = np.ones(30 * 2**20 // 8)
    del big
    before = rss_mb()
    assert main(argv) == 0
    capsys.readouterr()
    assert rss_mb() - before < 3.0
