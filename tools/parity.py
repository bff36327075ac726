"""Same-results check: run fixed cases on two source trees and report what moved.

Usage:

    python tools/parity.py PARENT_TREE CHANGE_TREE

Each tree is a source checkout, for example ``git archive HEAD`` unpacked
into a directory.  Each runs in its own subprocess with
``PYTHONPATH=<tree>/src``, one after the other, in one temporary work
directory: run.json and the diagnostics header echo absolute paths, so both
trees must write to the same ones.  The inputs are built by
``perfbench/worker.py`` beside this script, the same for both trees.

The cases:

* ``run``: ``timestepper.run`` on ``worker.api_inputs(256, seed)`` to
  T = 0.32 for seeds 1 and 2, both formulations and both steppers, with
  snapshots every 0.05 at dt = 1e-3 or every 0.0371 at dt = 3e-3 (inside
  the steps), plus a tracked adaptive run per seed; the global-existence
  data (u0 = -sin x, rho0 = 0.5, a = 2, adaptive, T = 6, n = 256); and the
  eps = 0.1 traveling wave of ``tests/test_traveling_wave.py`` beside this
  script, in both formulations under RK4 (dt = 1e-3, n = 64, T = 1,
  snapshots every 0.25).
* ``cli``: the files ``shearwave run`` writes for ``worker.setup_cli(256,
  3.0, seed)`` at seeds 1 and 2, for ``examples.cfg`` with ``--plot``, with
  adaptive tracking, with the adaptive flow map, and for an n = 64 run
  that breaks down, and those of ``shearwave convergence --ladder
  temporal`` on ``examples.cfg``; run.json is compared without its wall time.
* ``coefficients --json`` at a few (a, alpha, branch), and the verdict
  lines of each tree's ``tests/test_acceptance.py``, compared as text.

Prints one line per case: ``identical``, or what differs.  For a run case
that is the largest |du| and |drho| over the snapshots, and the names of
the other parts that differ; the flow-map m is not compared, because its
roundoff grows as 1 + k^2.  For a CLI case it is the names of the files
that differ.  Exits 0 when every case is identical and 1 otherwise.
"""

import contextlib
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = "parity-cases.pkl"
VERDICT = re.compile(r"\[(?:PASS|FAIL)\] criterion [^\n]*")

RUN_T = 0.32
SNAPSHOTS = ((0.05, 1e-3), (0.0371, 3e-3))  # (snapshot_every, dt)
COEFFICIENTS = ((2.0, 0.0, "right"), (2.0, 0.5, "right"), (1.5, 1.0, "left"), (3.0, -0.7, "left"))


# ---------------------------------------------------------------------------
# the cases, run inside one tree's subprocess


def _run_payload(outcome, formulation):
    views = [view for _, view in outcome.trajectory]
    return {
        "status": outcome.status,
        "t_final": outcome.t_final,
        "message": outcome.message,
        "times": np.array([t for t, _ in outcome.trajectory]),
        "u": np.array([view.velocity().values for view in views]),
        "rho": np.array([view.rho.values for view in views]),
        "m": None if formulation == "lagrangian" else np.array([v.m.values for v in views]),
        "records": [repr(record) for record in outcome.diagnostics],
    }


def _run_cases():
    import worker
    from shearwave import (
        EulerianState,
        Field,
        ModelParams,
        SpectralGrid,
        StepControl,
        helmholtz_apply,
        run,
    )

    def case(state, params, T, formulation, stepper, every, dt, tracked=False, max_ux=1e6):
        options = {
            "control": StepControl(dt=dt, max_ux=max_ux),
            "formulation": formulation,
            "snapshot_every": every,
            "stepper": stepper,
            "track_flowmap": tracked,
        }
        return lambda: _run_payload(run(state, params, T, **options), formulation)

    for seed in (1, 2):
        state, params = worker.api_inputs(256, seed)
        for formulation in ("eulerian", "lagrangian"):
            for stepper in ("rk4", "adaptive"):
                for every, dt in SNAPSHOTS:
                    name = f"run {formulation} {stepper} seed={seed} every={every} dt={dt:g}"
                    yield name, case(state, params, RUN_T, formulation, stepper, every, dt)
        every, dt = SNAPSHOTS[1]
        name = f"run eulerian adaptive tracked seed={seed} every={every} dt={dt:g}"
        yield name, case(state, params, RUN_T, "eulerian", "adaptive", every, dt, tracked=True)

    grid = SpectralGrid(256)
    u0 = Field(grid, -np.sin(grid.nodes))
    state = EulerianState(helmholtz_apply(u0), Field(grid, np.full(256, 0.5)), alpha=0.0)
    yield "run global existence rho0=0.5 n=256 T=6", case(
        state, ModelParams(a=2.0), 6.0, "eulerian", "adaptive", 0.05, 1e-3, max_ux=30.0
    )

    sys.path.insert(0, str(ROOT / "tests"))
    from test_traveling_wave import FAMILY, traveling_profile

    wave = traveling_profile(*FAMILY[0], eps=0.1)
    for formulation in ("eulerian", "lagrangian"):
        yield f"run traveling wave eps=0.1 {formulation} rk4 n=64 T=1", case(
            wave.initial_state(64), wave.params, 1.0, formulation, "rk4", 0.25, 1e-3
        )


def _main_quietly(argv):
    """The exit code of shearwave.cli.main(argv), and the text it printed."""
    from shearwave import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _output_files(code, out):
    """The exit code and a sha256 per output file; run.json without its wall time."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run.json":
            payload = json.loads(data)
            payload.pop("wall_time_s", None)
            data = json.dumps(payload, sort_keys=True).encode()
        files[path.name] = hashlib.sha256(data).hexdigest()
    return {"code": code, "files": files}


def _cli_cases(work):
    import worker

    for seed in (1, 2):
        here = work / f"cli-seed{seed}"

        def setup_cli(here=here, seed=seed):
            here.mkdir()
            call, _ = worker.setup_cli(256, 3.0, seed, here)
            with contextlib.redirect_stdout(io.StringIO()):
                return _output_files(call(), here / "out")

        yield f"cli setup_cli(256, 3.0, seed={seed})", setup_cli

    config = f"--config={work / 'examples.cfg'}"
    runs = {
        "examples.cfg --plot": ["run", "--plot", config],
        "examples.cfg adaptive tracked every=0.05": [
            "run",
            config,
            "--run.stepper=adaptive",
            "--run.track_flowmap=true",
            "--run.snapshot_every=0.05",
        ],
        "examples.cfg adaptive flow map every=0.03": [
            "run",
            config,
            "--run.stepper=adaptive",
            "--run.formulation=lagrangian",
            "--run.snapshot_every=0.03",
        ],
        "breakdown n=64 sine(1, -1) flow map": [
            "run",
            "--grid.n=64",
            "--initial.u=sine(mode=1, amplitude=-1)",
            "--initial.rho=constant(0)",
            "--run.formulation=lagrangian",
            "--run.stepper=adaptive",
            "--run.T=3",
            "--control.max_ux=30",
        ],
        "convergence --ladder temporal examples.cfg": ["convergence", "--ladder=temporal", config],
    }
    for i, (name, argv) in enumerate(runs.items()):
        out = work / f"cli-{i}"
        yield f"cli {name}", lambda argv=argv, out=out: _output_files(
            _main_quietly([*argv, f"--run.output_dir={out}"])[0], out
        )

    for a, alpha, branch in COEFFICIENTS:
        argv = ["coefficients", f"--a={a!r}", f"--alpha={alpha!r}", f"--branch={branch}", "--json"]
        name = f"coefficients a={a:g} alpha={alpha:g} {branch}"
        yield name, lambda argv=argv: "exit code {}\n{}".format(*_main_quietly(argv))


def child():
    """Run every case in this process's tree and pickle the results to RESULTS."""
    import shearwave

    work = Path.cwd()
    results = {"shearwave": shearwave.__file__}
    for name, call in (*_run_cases(), *_cli_cases(work)):
        try:
            results[name] = call()
        except Exception:
            results[name] = {"error": traceback.format_exc(limit=3)}
    (work / RESULTS).write_bytes(pickle.dumps(results))


# ---------------------------------------------------------------------------
# the driver


def _tree_env(tree):
    path = [str(tree / "src"), str(HERE), str(ROOT / "perfbench")]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        **os.environ,
        **{var: "1" for var in threads},  # set before numpy loads its BLAS
        "PYTHONPATH": os.pathsep.join(path),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def _collect(tree, work):
    """Every case's result for tree, run in work."""
    env = _tree_env(tree)
    proc = subprocess.run(
        [sys.executable, "-c", "import parity; parity.child()"],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"cases failed in {tree}:\n{proc.stderr}")
    results = pickle.loads((work / RESULTS).read_bytes())
    (work / RESULTS).unlink()
    imported = Path(results.pop("shearwave")).resolve()
    if not imported.is_relative_to((tree / "src").resolve()):
        sys.exit(f"{tree}: imported shearwave from {imported}")
    for path in work.iterdir():  # both trees write to the same paths
        if path.is_dir():
            shutil.rmtree(path)
    acceptance = subprocess.run(
        [sys.executable, "-m", "pytest", str(tree / "tests" / "test_acceptance.py")]
        + ["-q", "-s", "-p", "no:cacheprovider"],
        cwd=work,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = VERDICT.findall(acceptance.stdout)
    tail = (acceptance.stdout + acceptance.stderr).strip()[-300:]
    results["acceptance verdict lines"] = "\n".join(lines) if lines else {"error": tail}
    return results


def _same(a, b):
    """Bit for bit, for arrays; == otherwise."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _compare_run(old, new):
    parts = [key for key in old if key not in ("u", "rho") and not _same(old[key], new[key])]
    if old["u"].shape != new["u"].shape:
        return f"{len(old['times'])} vs {len(new['times'])} snapshots; also differ: {parts}"
    du, drho = (float(np.max(np.abs(old[key] - new[key]), initial=0.0)) for key in ("u", "rho"))
    if du == drho == 0.0 and not parts:
        return "identical"
    return f"max|du|={du:.3e} max|drho|={drho:.3e}" + (f"; also differ: {parts}" if parts else "")


def _compare(old, new):
    errors = [r["error"] if isinstance(r, dict) and "error" in r else None for r in (old, new)]
    if any(errors):  # a case that fails in both trees shows nothing either
        return "error: " + " | ".join((e or "none").strip().splitlines()[-1] for e in errors)
    if isinstance(old, dict) and "times" in old:
        return _compare_run(old, new)
    if isinstance(old, dict) and "files" in old:
        names = sorted(set(old["files"]) | set(new["files"]))
        moved = [n for n in names if old["files"].get(n) != new["files"].get(n)]
        if len(moved) > 6:
            moved[5:] = [f"and {len(moved) - 5} more files"]
        if old["code"] != new["code"]:
            moved.insert(0, f"exit code {old['code']} vs {new['code']}")
        return "identical" if not moved else "differ: " + ", ".join(moved)
    if old == new:
        return "identical"
    old_lines, new_lines = str(old).splitlines(), str(new).splitlines()
    for k, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return f"differ at line {k + 1}: {a!r} vs {b!r}"
    return f"differ: {len(old_lines)} vs {len(new_lines)} lines"


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        sys.exit(f"usage: python {Path(__file__).name} PARENT_TREE CHANGE_TREE")
    trees = [Path(arg).resolve() for arg in args]
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = Path(tmp)
        shutil.copy(ROOT / "examples.cfg", work / "examples.cfg")
        old, new = (_collect(tree, work) for tree in trees)
    differ = 0
    for name in {**old, **new}:
        if name in old and name in new:
            verdict = _compare(old[name], new[name])
        else:
            verdict = "missing in " + ("CHANGE_TREE" if name in old else "PARENT_TREE")
        differ += verdict != "identical"
        print(f"{name:<58} {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
