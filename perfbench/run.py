"""shearwave benchmark: whole runs, timed end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload euler_rk4 --seed 1 --seconds 30 --trace 0

Each repetition is a fresh single-threaded process (worker.py) that builds
its inputs from the seed, makes one timed call into the public API or into
``shearwave.cli.main``, and checks the result outside the timed span.
Repetitions start until the next one would end after --seconds; at least
MIN_REPS run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the END_TO_END metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
LAYER metrics (medians over traced repetitions) plus the tracing overhead.
Every run also prints the numpy and Python versions, nproc and the
thread variables the repetitions saw, on a line of its own.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import SETUPS, SIZES, THREAD_VARS  # noqa: E402

MIN_REPS = 3
RUN_LIMIT_S = 150.0  # stay well inside the 180 s a run may take

# Why each workload is in the benchmark.
WHY = {
    "euler_rk4": "Eulerian u-form RK4 at n=1024: spectral products and rhs_u_form, no flow map, no files",
    "lagrangian_rk4": "flow-map RK4 at n=256 to t=0.32, past the Newton-stall onset near t=0.28: invert_diffeo and compose",
    "cli_tracked_adaptive": "CLI run with adaptive DP5, tracked flow map, snapshots and plots written to disk",
}

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

# name -> (unit, better, the end-to-end metric and workloads it should move)
LAYERS = {
    "spectral.invert_diffeo.calls": ("count", "lower", "wall_s on lagrangian_rk4 only"),
    "spectral.invert_diffeo.ms_per_call": ("ms", "lower", "wall_s on lagrangian_rk4 only"),
    "spectral.invert_diffeo.early_ms_per_call": (
        "ms",
        "lower",
        "wall_s on lagrangian_rk4 only (calls before the t=0.15 snapshot)",
    ),
    "spectral.compose.calls": (
        "count",
        "lower",
        "wall_s on lagrangian_rk4 and cli_tracked_adaptive",
    ),
    "spectral.compose.ms_per_call": (
        "ms",
        "lower",
        "wall_s on lagrangian_rk4 and cli_tracked_adaptive",
    ),
    "spectral.fft.calls_per_rhs": ("count", "lower", "wall_s on euler_rk4"),
    "spectral.fft.busy_s": ("s", "lower", "wall_s on euler_rk4"),
    "eulerian.rhs.calls": ("count", "lower", "wall_s on euler_rk4 and cli_tracked_adaptive"),
    "eulerian.rhs.ms_per_call": ("ms", "lower", "wall_s on euler_rk4 and cli_tracked_adaptive"),
    "eulerian.rhs.busy_s": ("s", "lower", "wall_s on euler_rk4 and cli_tracked_adaptive"),
    "lagrangian.spray_rhs.ms_per_call": ("ms", "lower", "wall_s on lagrangian_rk4"),
    "lagrangian.spray_rhs.self_ms_per_call": ("ms", "lower", "wall_s on lagrangian_rk4"),
    "lagrangian.to_eulerian.ms_per_call": ("ms", "lower", "wall_s on lagrangian_rk4"),
    "timestepper.run.self_s": ("s", "lower", "wall_s on euler_rk4 and cli_tracked_adaptive"),
    "timestepper.rhs_calls": ("count", "lower", "wall_s on cli_tracked_adaptive"),
    "diagnostics.make_record.calls": ("count", "lower", "wall_s on cli_tracked_adaptive"),
    "diagnostics.make_record.ms_per_call": ("ms", "lower", "wall_s on cli_tracked_adaptive"),
    "diagnostics.transported_density_invariant.ms_per_call": (
        "ms",
        "lower",
        "wall_s on cli_tracked_adaptive",
    ),
    "reporting.busy_s": ("s", "lower", "wall_s on cli_tracked_adaptive only"),
    "reporting.bytes_written": ("B", "lower", "wall_s on cli_tracked_adaptive only"),
    "svgplot.busy_s": ("s", "lower", "wall_s on cli_tracked_adaptive only"),
    "config.load_config.ms": ("ms", "lower", "wall_s on cli_tracked_adaptive only"),
    "cli.cmd_run.self_s": ("s", "lower", "wall_s on cli_tracked_adaptive only"),
    "trace.overhead_s": ("s", "lower", "nothing; traced minus untraced wall_s"),
}


def one_repetition(args, work, trace, deadline):
    """Start worker.py once and return its result record."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--size={args.size}",
        f"--work={work}",
    ]
    if trace:
        cmd.append("--trace")
    if args.inject_failure:
        cmd.append("--inject-failure")
    shutil.rmtree(work / "out", ignore_errors=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PERFBENCH_SPAWNED_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "repetition timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {
            "ok": False,
            "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
        }


def repetitions(args, work):
    """Run repetitions for --seconds; returns (untraced, traced) result lists."""
    untraced, traced = [], []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    took = []
    while True:
        trace = args.trace and len(traced) < len(untraced)
        t0 = time.monotonic()
        rep = one_repetition(args, work, trace, deadline)
        took.append(time.monotonic() - t0)
        (traced if trace else untraced).append(rep)
        if rep.get("error"):
            print(f"repetition failed: {rep['error']}", file=sys.stderr)
            if "wall_s" not in rep:
                break  # it broke before the timed call; repeating will not help
        elapsed = time.monotonic() - start
        done = len(traced) >= MIN_REPS if args.trace else len(untraced) >= MIN_REPS
        if done and elapsed + statistics.mean(took) > args.seconds:
            break
        if elapsed + max(took) > RUN_LIMIT_S:
            break
    return untraced, traced


def digests_agree(reps):
    """Repetitions of one seed must write identical outputs; mark those that differ."""
    digests = [rep["digest"] for rep in reps if rep.get("ok") and "digest" in rep]
    if not digests:
        return
    reference = statistics.mode(digests)
    for rep in reps:
        if rep.get("ok") and rep.get("digest", reference) != reference:
            rep["ok"] = False
            rep["error"] = "output digest differs from the other repetitions"


def median_of(reps, key):
    values = [rep[key] for rep in reps if key in rep]
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description="shearwave benchmark")
    parser.add_argument("--workload", choices=tuple(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="fail every repetition's check (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shearwave" / "__init__.py").is_file():
        print(f"error: no shearwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}: {WHY[args.workload]}")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        untraced, traced = repetitions(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    reps = untraced + traced
    env = next((rep["env"] for rep in reps if "env" in rep), {})
    env["nproc"] = os.cpu_count()
    print("environment: " + json.dumps(env, sort_keys=True))
    digests_agree(reps)
    failed = sum(1 for rep in reps if not rep.get("ok"))

    if args.trace:
        layer_reps = [rep for rep in traced if "layers" in rep]
        if not layer_reps:
            print("error: no traced repetition produced layer figures", file=sys.stderr)
            return 1
        values = {
            name: statistics.median(rep["layers"][name] for rep in layer_reps)
            for name in LAYERS
            if name != "trace.overhead_s"
        }
        untraced_wall = median_of(untraced, "wall_s")
        if untraced_wall is None:
            print("error: no untraced repetition produced its timings", file=sys.stderr)
            return 1
        values["trace.overhead_s"] = median_of(traced, "wall_s") - untraced_wall
        for name, value in values.items():
            unit, _, moves = LAYERS[name]
            print(f"{name} = {value:.6g} {unit}  [should move {moves}]")
        unpatched = sorted({site for rep in layer_reps for site in rep.get("unpatched", ())})
        if unpatched:
            print("not patched (name no longer looked up there): " + ", ".join(unpatched))
        metrics = {name: {"value": values[name], "unit": LAYERS[name][0]} for name in LAYERS}
    else:
        values = {key: median_of(untraced, key) for key in ("wall_s", "setup_s", "peak_rss_mib")}
        if None in values.values():
            print("error: no repetition produced its timings", file=sys.stderr)
            return 1
        values["ok_frac"] = (len(reps) - failed) / len(reps)
        for key in ("wall_s", "setup_s"):
            samples = ", ".join(f"{rep[key]:.4f}" for rep in untraced if key in rep)
            print(f"{key} per repetition: {samples}")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
