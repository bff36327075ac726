"""Command-line entry points, file outputs, and reproducibility."""

import json
import os
import re

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
        ],
        ids=["alpha=1e8", "alpha=-1e10", "alpha=1e8-left"],
    )
    def test_arithmetic_breakdown_exits_two(self, extra, capsys):
        assert run_cli(["coefficients", "--a=2", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
        # snapshots are raw numbers and must match byte for byte; the
        # diagnostics meta line embeds the config echo, which legitimately
        # differs in run.output_dir, so compare it field by field
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert run_cli(small_run_args(out1)) == 0
        assert run_cli(small_run_args(out2)) == 0
        capsys.readouterr()
        s1 = (out1 / "snap_0.050000.csv").read_text()
        s2 = (out2 / "snap_0.050000.csv").read_text()
        assert s1 == s2
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

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_two(self, name, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot read config file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "options, count",
        [
            (["--run.T=4e-7", "--run.snapshot_every=1e-7"], 5),
            (["--run.T=1e-7"], 2),
        ],
        ids=["cadence_1e-7", "default_cadence"],
    )
    def test_close_snapshots_get_distinct_files(self, options, count, tmp_path, capsys):
        # six decimals would print every one of these times as 0.000000
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
