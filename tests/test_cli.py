"""Command-line entry points, file outputs, and reproducibility."""

import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from shearwave.cli import main
from shearwave.reporting import read_diagnostics_csv


def run_cli(argv):
    return main(argv)


class TestCoefficientsCommand:
    def test_table_output(self, capsys):
        assert run_cli(["coefficients", "--a", "2", "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        assert "k1" in out and "beta0_sq" in out
        assert "5.0000000000000000e-01" in out

    def test_json_output(self, capsys):
        assert run_cli(["coefficients", "--a", "3", "--alpha", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == 3.0
        assert payload["k3"] == pytest.approx(
            payload["k1"] / (6.0 * (payload["c"] - 1.0))
        )
        assert all(abs(r) < 1e-10 for r in payload["residuals"].values())

    def test_sweep_table(self, capsys):
        assert run_cli(["coefficients", "--a", "2", "--sweep"]) == 0
        out = capsys.readouterr().out
        assert "sweep over" in out
        assert "factor_two" in out

    @pytest.mark.parametrize("a", ["1", "-1"])
    def test_excluded_parameters_exit_two(self, a, capsys):
        assert run_cli(["coefficients", "--a", a]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--alpha=1e8"],  # c - alpha cancels to 0: ZeroDivisionError
            ["--alpha=-1e10"],  # closing relations fail in rounding
            ["--alpha=1e8", "--branch", "left"],
            ["--alpha=-1e308"],  # (c - alpha) ** 2 overflows: OverflowError
            ["--a=1e308"],  # (1 + c^2)(a + 1) overflows to inf without raising
            ["--a=-1e308"],
        ],
        ids=["alpha=1e8", "alpha=-1e10", "alpha=1e8-left", "alpha=-1e308", "a=1e308", "a=-1e308"],
    )
    def test_arithmetic_breakdown_exits_two(self, extra, capsys):
        assert run_cli(["coefficients", "--a=2", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "alpha=" in err  # the message names the parameters
        if extra[0].startswith("--a="):  # the closed forms failed, not the relations
            assert err.startswith("error: constants fail for") and "closing relations" not in err

    def test_non_finite_constants_exit_two(self, capsys):
        # Infinity and NaN are not JSON, so nothing is printed
        assert run_cli(["coefficients", "--a", "2", "--alpha", "1e308", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: constants are not finite")

    @pytest.mark.parametrize("a", ["-1.000001", "-0.999999"])
    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_next_to_a_equal_minus_one(self, a, alpha, capsys):
        assert run_cli(["coefficients", f"--a={a}", f"--alpha={alpha}", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(np.isfinite(payload[k]) for k in ("c", "k1", "k2", "k3", "k0"))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert run_cli(["coefficients", "--a", "2.5", "--out", str(target)]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["a"] == 2.5

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(["coefficients", "--a", "2", "--out", str(blocker / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker / 'x.json'}") and "Traceback" not in err

    def test_stray_override_rejected(self, capsys):
        assert run_cli(["coefficients", "--a", "2", "--grid.n=64"]) == 2
        assert "configuration error" in capsys.readouterr().err


@pytest.fixture
def conversions(monkeypatch):
    """Flow-map states converted through shearwave.timestepper.to_eulerian, one per call."""
    from shearwave import timestepper

    calls = []
    real = timestepper.to_eulerian

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(timestepper, "to_eulerian", counted)
    return calls


def watch_snapshot_files(monkeypatch, outdir) -> list:
    """A list that gets the set of snap_* files in outdir as each snapshot is recorded."""
    from shearwave import timestepper

    on_disk = []
    real = timestepper.make_record

    def watched(*args, **kwargs):
        on_disk.append({n for n in os.listdir(outdir) if n.startswith("snap_")})
        return real(*args, **kwargs)

    monkeypatch.setattr(timestepper, "make_record", watched)
    return on_disk


def assert_written_once(on_disk, outdir, names):
    """Each record found the files before it, so none was renamed, and left one more."""
    assert on_disk == [set(names[:k]) for k in range(len(names))]
    assert sorted(n for n in os.listdir(outdir) if n.startswith("snap_")) == sorted(names)


# seven snapshots: t = 0, 0.05, ..., 0.3
SEVEN_SNAPSHOTS = ["--grid.n=64", "--run.T=0.3", "--run.snapshot_every=0.05"]
# the slope of u0 = cos x exceeds max_ux at the first step
EARLY_BREAKDOWN = [
    "--grid.n=16",
    "--run.T=4e-7",
    "--control.dt=1e-7",
    "--control.max_ux=0.5",
    "--initial.u=cosine(mode=1, amplitude=1)",
]


def small_run_args(outdir, extra=()):
    base = [
        "run",
        "--grid.n=64",
        "--run.T=0.05",
        "--run.snapshot_every=0.025",
        "--control.dt=1e-3",
        f"--run.output_dir={outdir}",
    ]
    return base + list(extra)


class TestRunCommand:
    def test_lagrangian_run_converts_once_per_snapshot(self, tmp_path, capsys, conversions):
        outdir = tmp_path / "lag"
        argv = ["run", *SEVEN_SNAPSHOTS, "--run.formulation=lagrangian"]
        assert run_cli(argv + [f"--run.output_dir={outdir}"]) == 0
        capsys.readouterr()
        assert len([n for n in os.listdir(outdir) if n.startswith("snap_")]) == 7
        assert len(conversions) == 7

    def test_writes_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "case"
        assert run_cli(small_run_args(outdir)) == 0
        capsys.readouterr()
        names = sorted(os.listdir(outdir))
        assert "run.json" in names
        assert "diagnostics.csv" in names
        snaps = [n for n in names if n.startswith("snap_")]
        assert snaps == ["snap_0.000000.csv", "snap_0.025000.csv", "snap_0.050000.csv"]

        payload = json.loads((outdir / "run.json").read_text())
        assert payload["status"] == "completed"
        assert payload["t_final"] == 0.05
        assert payload["config"]["grid.n"] == "64"
        assert payload["snapshots"] == snaps

        meta, rows = read_diagnostics_csv(str(outdir / "diagnostics.csv"))
        assert meta["status"] == "completed"
        assert len(rows) == 3
        assert rows[0]["t"] == 0.0

    def test_snapshot_columns(self, tmp_path, capsys):
        outdir = tmp_path / "case"
        assert run_cli(small_run_args(outdir)) == 0
        capsys.readouterr()
        lines = (outdir / "snap_0.000000.csv").read_text().splitlines()
        assert lines[0] == "x,u,rho,m"
        assert len(lines) == 65
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        # snapshots and plots are raw numbers and must match byte for byte; the
        # diagnostics meta line embeds the config echo, which legitimately
        # differs in run.output_dir, so compare it field by field
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert run_cli(small_run_args(out1, ["--plot"])) == 0
        assert run_cli(small_run_args(out2, ["--plot"])) == 0
        capsys.readouterr()
        for name in ("snap_0.050000.csv", "waterfall.svg", "slope.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        meta1, rows1 = read_diagnostics_csv(str(out1 / "diagnostics.csv"))
        meta2, rows2 = read_diagnostics_csv(str(out2 / "diagnostics.csv"))
        meta1["config"].pop("run.output_dir")
        meta2["config"].pop("run.output_dir")
        assert meta1 == meta2
        assert len(rows1) == len(rows2)
        for r1, r2 in zip(rows1, rows2):
            assert set(r1) == set(r2)
            for key in r1:
                same = r1[key] == r2[key] or (np.isnan(r1[key]) and np.isnan(r2[key]))
                assert same, f"column {key} differs between reruns"

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("grid.n = 64\nrun.T = 0.1\nrun.snapshot_every = 0.05\n")
        outdir = tmp_path / "out"
        code = run_cli(
            [
                "run",
                "--config",
                str(cfg),
                "--run.T=0.05",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((outdir / "run.json").read_text())
        assert payload["t_final"] == 0.05

    def test_plot_flag_writes_svg(self, tmp_path, capsys):
        outdir = tmp_path / "case"
        assert run_cli(small_run_args(outdir, ["--plot"])) == 0
        capsys.readouterr()
        names = os.listdir(outdir)
        assert "waterfall.svg" in names
        assert "slope.svg" in names
        body = (outdir / "waterfall.svg").read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.m = 64\n")
        assert run_cli(["run", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, content",
        [("missing.cfg", None), (".", None), ("latin1.cfg", b"params.a = 2\xff\n")],
        ids=["missing", "directory", "not-utf8"],
    )
    def test_unreadable_config_exits_two(self, name, content, tmp_path, capsys):
        if content is not None:
            (tmp_path / name).write_bytes(content)
        assert run_cli(["run", "--config", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot read config file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "options, count",
        [
            (["--run.T=4e-7", "--run.snapshot_every=1e-7"], 5),
            (["--run.T=1e-7"], 2),
            (["--run.T=0.9000001", "--run.snapshot_every=0.3", "--control.dt=1e-3"], 5),
        ],
        ids=["cadence_1e-7", "default_cadence", "final_time_1e-7_past_a_snapshot"],
    )
    def test_close_snapshots_get_distinct_files(self, options, count, tmp_path, capsys):
        # six decimals would print the last two times alike: 0.000000, or 0.900000
        outdir = tmp_path / "close"
        argv = ["run", "--grid.n=16", "--control.dt=1e-7", *options]
        assert run_cli(argv + [f"--run.output_dir={outdir}"]) == 0
        out = capsys.readouterr().out
        payload = json.loads((outdir / "run.json").read_text())
        # and so would the summary line's final time
        assert "t_final=0.000000" not in out
        printed = re.search(r"t_final=(\S+)", out).group(1)
        assert float(printed) == payload["t_final"]
        files = sorted(n for n in os.listdir(outdir) if n.startswith("snap_"))
        listed = payload["snapshots"]
        _, rows = read_diagnostics_csv(str(outdir / "diagnostics.csv"))
        assert len(files) == len(listed) == len(rows) == count
        assert files == sorted(listed)

    def test_snapshots_are_written_as_recorded(self, tmp_path, capsys, monkeypatch):
        from shearwave import timestepper

        outdir = tmp_path / "case"
        on_disk = []  # the snapshot files present as each snapshot is recorded
        real = timestepper.make_record

        def watched(*args, **kwargs):
            names = os.listdir(outdir) if outdir.exists() else []
            on_disk.append(sorted(n for n in names if n.startswith("snap_")))
            return real(*args, **kwargs)

        monkeypatch.setattr(timestepper, "make_record", watched)
        assert run_cli(small_run_args(outdir)) == 0
        capsys.readouterr()
        assert on_disk == [[], ["snap_0.000000.csv"], ["snap_0.000000.csv", "snap_0.025000.csv"]]

    def test_breakdown_next_to_a_snapshot_widens_the_names(self, tmp_path, capsys, monkeypatch):
        # max |u_x| = 1 + 1.2 t crosses 1.00000123 at the step to t = 1.05e-6,
        # 5e-8 after the snapshot at 1e-6: six decimals name both 0.000001,
        # so the breakdown's own name widens and the files already written keep theirs
        argv = [
            "run",
            "--grid.n=16",
            "--control.dt=5e-8",
            "--run.snapshot_every=1e-6",
            "--initial.u=cosine(mode=1, amplitude=1)",
        ]
        ref, outdir = tmp_path / "ref", tmp_path / "early"
        assert run_cli(argv + ["--run.T=1.7e-6", f"--run.output_dir={ref}"]) == 0
        on_disk = watch_snapshot_files(monkeypatch, outdir)
        late = ["--run.T=2e-6", "--control.max_ux=1.00000123", f"--run.output_dir={outdir}"]
        assert run_cli(argv + late) == 0
        capsys.readouterr()
        payload = json.loads((outdir / "run.json").read_text())
        assert payload["status"] == "blowup_detected"
        assert payload["t_final"] == pytest.approx(1.05e-6, abs=1e-12)
        names = payload["snapshots"]
        assert names == ["snap_0.000000.csv", "snap_0.000001.csv", "snap_0.00000105.csv"]
        assert_written_once(on_disk, outdir, names)
        for name in names[:2]:
            assert (outdir / name).read_bytes() == (ref / name).read_bytes()

    def test_final_time_next_to_a_multiple_widens_only_its_name(
        self, tmp_path, capsys, monkeypatch
    ):
        # T = 0.9000001 prints like the multiple 0.9 with six decimals, so only
        # T's own name takes a seventh
        outdir = tmp_path / "near"
        on_disk = watch_snapshot_files(monkeypatch, outdir)
        argv = ["run", "--grid.n=16", "--run.T=0.9000001", "--run.snapshot_every=0.3"]
        assert run_cli(argv + [f"--run.output_dir={outdir}"]) == 0
        capsys.readouterr()
        payload = json.loads((outdir / "run.json").read_text())
        assert payload["status"] == "completed"
        times = ["0.000000", "0.300000", "0.600000", "0.900000", "0.9000001"]
        assert payload["snapshots"] == [f"snap_{t}.csv" for t in times]
        assert_written_once(on_disk, outdir, payload["snapshots"])

    def test_fold_at_a_snapshot_ends_the_run_cleanly(self, tmp_path, capsys):
        # the flow map folds at the snapshot t = 1.3, read off the RK4 step
        # from t = 1.28: the run ends there as mesh_degenerate, not as a traceback
        outdir = tmp_path / "fold"
        argv = [
            "run",
            "--grid.n=32",
            "--initial.u=sine(mode=1, amplitude=-1.5)",
            "--params.a=2",
            "--run.formulation=lagrangian",
            "--control.dt=0.04",
            "--run.T=2",
            f"--run.output_dir={outdir}",
        ]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads((outdir / "run.json").read_text())
        assert payload["status"] == "mesh_degenerate"
        assert payload["t_final"] == pytest.approx(1.28, abs=1e-12)
        assert payload["message"] in out
        times = [f"{k / 10:.6f}" for k in range(13)] + ["1.280000"]
        assert payload["snapshots"] == [f"snap_{t}.csv" for t in times]

    def test_step_ending_on_a_snapshot_writes_it_once(self, tmp_path, capsys):
        # the step to t = 1.2800000000000005 ends on the snapshot at 1.28 and
        # the next step folds: the state is written once, under a six-decimal name
        outdir = tmp_path / "fold"
        argv = [
            "run",
            "--grid.n=32",
            "--initial.u=sine(mode=1, amplitude=-1.5)",
            "--params.a=2",
            "--run.formulation=lagrangian",
            "--control.dt=0.04",
            "--run.T=2",
            "--run.snapshot_every=0.01",
            f"--run.output_dir={outdir}",
        ]
        assert run_cli(argv) == 0
        capsys.readouterr()
        payload = json.loads((outdir / "run.json").read_text())
        assert payload["status"] == "mesh_degenerate"
        assert payload["t_final"] == 1.2800000000000005
        names = [f"snap_{k / 100:.6f}.csv" for k in range(129)]
        assert payload["snapshots"] == names
        assert sorted(n for n in os.listdir(outdir) if n.startswith("snap_")) == names
        _, rows = read_diagnostics_csv(str(outdir / "diagnostics.csv"))
        assert len(rows) == 129

    def test_early_breakdown_time_is_legible(self, tmp_path, capsys):
        # six decimals would print the breakdown at t=1e-7 as t=0.000000
        outdir = tmp_path / "early"
        argv = ["run", *EARLY_BREAKDOWN, f"--run.output_dir={outdir}"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads((outdir / "run.json").read_text())
        assert payload["status"] == "blowup_detected"
        for text in (out, payload["message"]):
            assert "t=0.000000" not in text
            assert float(re.search(r"at t=([^\s:]+)", text).group(1)) == payload["t_final"]

    def test_bad_override_exits_two(self, capsys):
        assert run_cli(["run", "--grid.n=65"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            ["--run.T=-1"],
            ["--run.T=1e309-1e309"],
            ["--run.snapshot_every=0"],
            ["--run.formulation=lagrangian", "--run.track_flowmap=true"],
            ["--params.a=1e309-1e309"],
            ["--params.kappa=1e309"],
            ["--grid.n=1e309"],
            ["--initial.u=cosine(mode=1e309)"],
            ["--initial.u=gaussian(pi, 1e309-1e309)"],
            ["--run.stepper=adaptive", "--control.abs_tol=0", "--control.rel_tol=0"],
            ["--initial.u=samples({tmp}/nan.txt)"],
            ["--initial.rho=samples({tmp}/inf.txt)"],
            ["--run.snapshot_every=5e-324"],
            ["--run.snapshot_every=1e-16"],
            ["--initial.u=cosine(mode=3, amplitude=1e308)"],
            ["--initial.rho=constant(1e308)"],
            ["--plot2"],
            # nesting past the parser's limit, past the evaluator's, past the parser's stack
            ["--params.a=" + "-" * 5000 + "2"],
            ["--params.a=" + "-" * 1500 + "2"],
            ["--params.a=" + "+" * 100000 + "2"],
            # the first adaptive attempt would already count as a collapsed step
            ["--run.stepper=adaptive", "--control.dt=1e-13"],
        ],
    )
    def test_bad_value_exits_two(self, overrides, tmp_path, capsys):
        for bad in ("nan", "inf"):
            (tmp_path / f"{bad}.txt").write_text(" ".join([bad] + ["1.0"] * 31))
        overrides = [o.replace("{tmp}", str(tmp_path)) for o in overrides]
        argv = ["run", "--grid.n=32", "--run.T=0.01", f"--run.output_dir={tmp_path}"]
        assert run_cli(argv + overrides) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("1e309", "number '1e309' is not a finite real"),
            ("pi*x", "disallowed expression in number 'pi*x'"),
            ("+" * 100000 + "2", "is nested too deeply"),
        ],
        ids=["overflow", "name", "deep"],
    )
    def test_bad_number_names_its_reason_on_one_short_line(self, value, reason, tmp_path, capsys):
        assert run_cli(["run", f"--params.a={value}", f"--run.output_dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: key 'params.a': ")
        assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 200
        assert reason in err

    @pytest.mark.parametrize("size", ["1e300", "2**70"])
    def test_grid_beyond_numpy_exits_two(self, size, tmp_path, capsys):
        # numpy refuses these node counts before allocating anything
        argv = ["run", f"--grid.n={size}", "--run.T=0.01", f"--run.output_dir={tmp_path}"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "'grid.n'" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [["run"], ["compare"], ["convergence", "--ladder", "temporal"]],
    ids=["run", "compare", "convergence"],
)
def test_output_dir_that_cannot_be_created_exits_two(command, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [*command, "--grid.n=16", "--run.T=0.01", f"--run.output_dir={blocker}"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: key 'run.output_dir'") and "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "command, blocked",
    [
        (["run"], "snap_0.000000.csv"),
        (["run", "--plot"], "waterfall.svg"),  # the first file that --plot adds
        (["compare"], "compare_trace.csv"),
        (["convergence", "--ladder", "temporal"], "convergence_temporal.csv"),
    ],
    ids=["run", "run-plot", "compare", "convergence"],
)
def test_output_file_that_cannot_be_written_exits_two(command, blocked, tmp_path, capsys):
    (tmp_path / blocked).mkdir()
    argv = [*command, "--grid.n=16", "--run.T=0.01", f"--run.output_dir={tmp_path}"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / blocked}: ") and "Traceback" not in err
    assert not list(tmp_path.glob(".tmp-*~"))


class TestCompareCommand:
    def test_converts_once_per_snapshot(self, tmp_path, capsys, conversions):
        # only the flow-map leg converts to the fixed frame, once per snapshot
        outdir = tmp_path / "cmp"
        assert run_cli(["compare", *SEVEN_SNAPSHOTS, f"--run.output_dir={outdir}"]) == 0
        assert "verdict=pass" in capsys.readouterr().out
        assert len((outdir / "compare_trace.csv").read_text().splitlines()) == 1 + 7
        assert len(conversions) == 7

    def test_verdict_pass_on_smooth_case(self, tmp_path, capsys):
        outdir = tmp_path / "cmp"
        code = run_cli(
            [
                "compare",
                "--grid.n=64",
                "--run.T=0.05",
                "--run.snapshot_every=0.025",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out
        payload = json.loads((outdir / "compare.json").read_text())
        assert payload["verdict"] == "pass"
        assert payload["max_diff"] < 1e-6
        trace = (outdir / "compare_trace.csv").read_text().splitlines()
        assert trace[0] == "t,sup_diff_u"
        assert len(trace) == 4

    def test_adaptive_legs_share_their_snapshot_times(self, tmp_path, capsys):
        # the two formulations take different steps, but both record each
        # multiple of snapshot_every from their steps' continuous extension
        outdir = tmp_path / "cmp"
        code = run_cli(
            [
                "compare",
                "--grid.n=64",
                "--run.T=0.5",
                "--run.stepper=adaptive",
                "--run.snapshot_every=0.1",
                "--initial.u=cosine(1, 0.8)",
                "--params.alpha=0.8",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        assert "verdict=pass" in capsys.readouterr().out
        payload = json.loads((outdir / "compare.json").read_text())
        assert payload["verdict"] == "pass"
        assert payload["max_diff"] < 1e-8
        assert len((outdir / "compare_trace.csv").read_text().splitlines()) == 1 + 6

    def test_breakdown_is_incomplete(self, tmp_path, capsys):
        # u0 = -sin x steepens past max |u_x| = 1.05 well before T
        outdir = tmp_path / "cmp"
        code = run_cli(
            [
                "compare",
                "--grid.n=32",
                "--run.T=3",
                "--initial.u=sine(mode=1, amplitude=-1)",
                "--control.max_ux=1.05",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        assert "verdict=incomplete" in capsys.readouterr().out
        payload = json.loads((outdir / "compare.json").read_text())
        assert payload["verdict"] == "incomplete"
        assert payload["reason"] == "a formulation did not complete"
        assert "max_diff" not in payload
        assert payload["eulerian_status"] == payload["lagrangian_status"] == "blowup_detected"
        assert (outdir / "compare_trace.csv").read_text() == "t,sup_diff_u\n"

    def test_holds_no_trajectory(self, tmp_path, capsys):
        # the legs pair their snapshots as they run, so ten times the snapshot
        # times add less than one n=64 row of floats per added time
        def peak(every, T="0.1"):
            argv = ["compare", "--grid.n=64", f"--run.T={T}", f"--run.snapshot_every={every}"]
            tracemalloc.start()
            try:
                assert run_cli([*argv, f"--run.output_dir={tmp_path}"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1e-3, T="0.002")  # numpy's first-call caches
        few, many = peak(1e-3), peak(1e-4)  # 101 and 1,001 snapshot times
        assert many - few < 900 * 64 * 8
        assert len((tmp_path / "compare_trace.csv").read_text().splitlines()) == 1 + 1001

    def test_tracked_flowmap_flag_is_ignored(self, tmp_path, capsys):
        # compare reads only velocities, so it runs both legs untracked
        outdir = tmp_path / "cmp"
        code = run_cli(
            [
                "compare",
                "--grid.n=64",
                "--run.T=0.05",
                "--run.snapshot_every=0.025",
                "--run.track_flowmap=true",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        assert "verdict=pass" in capsys.readouterr().out


class TestConvergenceCommand:
    def test_temporal_slope_near_four(self, tmp_path, capsys):
        outdir = tmp_path / "conv"
        code = run_cli(
            [
                "convergence",
                "--ladder",
                "temporal",
                "--grid.n=32",
                "--run.T=0.1",
                "--params.alpha=1.0",
                "--initial.u=cosine(1, 0.8)",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((outdir / "convergence.json").read_text())
        assert payload["ladder"] == "temporal"
        assert 3.2 < payload["slope"] < 4.8
        lines = (outdir / "convergence_temporal.csv").read_text().splitlines()
        assert lines[0] == "dt,sup_error"
        assert len(lines) == 5

    def test_rung_breakdown_is_reported_not_raised(self, tmp_path, capsys):
        # u0 = -sin x steepens past max |u_x| = 1.05 early in the reference
        # rung; the ladder cannot be formed, so the command fails cleanly
        code = run_cli(
            [
                "convergence",
                "--ladder",
                "temporal",
                "--grid.n=32",
                "--run.T=3",
                "--initial.u=sine(mode=1, amplitude=-1)",
                "--control.max_ux=1.05",
                f"--run.output_dir={tmp_path / 'conv'}",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ladder run (n=32, dt=0.0001) ended blowup_detected" in err
        assert "slope criterion exceeded" in err
        assert not (tmp_path / "conv" / "convergence.json").exists()

    def test_early_rung_breakdown_time_is_legible(self, tmp_path, capsys):
        # the reference rung's single step of 4e-7 ends past max_ux
        argv = ["convergence", "--ladder", "temporal", *EARLY_BREAKDOWN]
        assert run_cli(argv + [f"--run.output_dir={tmp_path / 'conv'}"]) == 1
        err = capsys.readouterr().err
        assert "ended blowup_detected at t=" in err
        assert "t=0.000000" not in err
        times = re.findall(r"at t=([^\s:]+)", err)
        assert len(times) == 2
        assert all(float(t) == 4e-7 for t in times)

    def test_spatial_ladder_decays(self, tmp_path, capsys):
        outdir = tmp_path / "conv"
        code = run_cli(
            [
                "convergence",
                "--ladder",
                "spatial",
                "--run.T=0.05",
                "--control.dt=2e-3",
                "--initial.u=gaussian(pi, 0.25, 0.5)",
                f"--run.output_dir={outdir}",
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((outdir / "convergence.json").read_text())
        rows = payload["rows"]
        assert [n for n, _ in rows] == [64, 128, 256, 512]
        errs = [e for _, e in rows]
        assert all(np.isfinite(errs))
        # the coarsest rung resolves the bump poorly, so the first doubling
        # must pay off by a wide margin
        assert payload["ratios"][0] > 10.0

    @pytest.mark.parametrize("ladder", ["temporal", "spatial"])
    def test_zero_error_ladder_writes_standard_json(self, ladder, tmp_path, capsys):
        # u = 0 stays 0 exactly on every rung: no error has a logarithm and
        # every ratio is 0/0, which JSON has no number for
        outdir = tmp_path / "conv"
        argv = ["convergence", "--ladder", ladder, "--initial.u=zero", "--grid.n=32"]
        assert run_cli(argv + ["--run.T=0.01", f"--run.output_dir={outdir}"]) == 0
        out = capsys.readouterr().out

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads((outdir / "convergence.json").read_text(), parse_constant=refuse)
        assert [e for _, e in payload["rows"]] == [0.0] * 4
        if ladder == "temporal":
            assert payload["slope"] is None
            assert out.endswith("slope=n/a\n")
        else:
            assert payload["ratios"] == [None] * 3
            assert out.endswith("ratios: n/a, n/a, n/a\n")
