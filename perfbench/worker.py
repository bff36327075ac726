"""One repetition of one perfbench workload, in a fresh process.

run.py starts this script once per repetition and reads the JSON object
it prints as its last line.  The repetition builds its inputs from the
seed, times one call into ``shearwave.timestepper.run`` or
``shearwave.cli.main``, and then checks the result outside the timed
span.  With --trace it patches span wrappers in first (see spans.py).
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# numpy reads these when it loads its BLAS, so they must be set first
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Grid size and final time per workload; "tiny" is for the smoke test.
# On the Lagrangian workload's data the Newton iterations per map inversion
# jump from about 2 to about 27 near t = 0.28; T = 0.32 keeps an eighth of
# the steps past that point.
SIZES = {
    "full": {
        "euler_rk4": (1024, 1.0),
        "lagrangian_rk4": (256, 0.32),
        "cli_tracked_adaptive": (256, 3.0),
    },
    "tiny": {
        "euler_rk4": (32, 0.02),
        "lagrangian_rk4": (32, 0.02),
        "cli_tracked_adaptive": (32, 0.06),
    },
}

# Acceptance tolerances (tests/test_acceptance.py, criterion 5)
MEAN_DRIFT_TOL = 1e-10
ENERGY_DRIFT_TOL = 1e-8
INVARIANT_TOL = 1e-8

PERTURBATION = 1e-3
PERTURBATION_MODES = 4


class CheckFailed(Exception):
    pass


def perturbation(nodes, rng):
    """Band-limited field on modes 1..PERTURBATION_MODES with sup norm PERTURBATION."""
    import numpy as np

    k = np.arange(1, PERTURBATION_MODES + 1)[:, None]
    a = rng.standard_normal((PERTURBATION_MODES, 1))
    b = rng.standard_normal((PERTURBATION_MODES, 1))
    vals = np.sum(a * np.cos(k * nodes) + b * np.sin(k * nodes), axis=0)
    return PERTURBATION * vals / np.max(np.abs(vals))


# ---------------------------------------------------------------------------
# workloads: each setup_* builds the inputs and returns (timed call, check).
# A check raises CheckFailed, or returns extra fields for the result record.


def api_inputs(n, seed):
    import numpy as np

    from shearwave import EulerianState, Field, ModelParams, SpectralGrid, helmholtz_apply

    grid = SpectralGrid(n)
    x = grid.nodes
    rng = np.random.default_rng(seed)
    u0 = Field(grid, 0.3 * np.cos(x) + perturbation(x, rng))
    rho0 = Field(grid, 1.0 + 0.2 * np.sin(x) + perturbation(x, rng))
    params = ModelParams(a=2.0, alpha=1.0)
    return EulerianState(helmholtz_apply(u0), rho0, alpha=params.alpha), params


def api_call(n, T, seed, formulation, snapshot_every):
    from shearwave import StepControl, timestepper

    state, params = api_inputs(n, seed)
    return lambda: timestepper.run(
        state,
        params,
        T,
        control=StepControl(dt=1e-3),
        formulation=formulation,
        snapshot_every=snapshot_every,
        stepper="rk4",
    )


def check_status(outcome):
    from shearwave import STATUS_COMPLETED

    if outcome.status != STATUS_COMPLETED:
        raise CheckFailed(f"status {outcome.status}: {outcome.message}")


def setup_euler(n, T, seed, work):
    def check(outcome):
        check_status(outcome)
        recs = outcome.diagnostics
        mean_drift = max(abs(r.mean_u - recs[0].mean_u) for r in recs)
        energy_drift = max(abs(r.energy_a2 - recs[0].energy_a2) for r in recs) / recs[0].energy_a2
        if not mean_drift < MEAN_DRIFT_TOL:
            raise CheckFailed(f"mean-velocity drift {mean_drift:.3e} >= {MEAN_DRIFT_TOL:g}")
        if not energy_drift < ENERGY_DRIFT_TOL:
            raise CheckFailed(f"a=2 energy drift {energy_drift:.3e} >= {ENERGY_DRIFT_TOL:g}")
        return {}

    return api_call(n, T, seed, "eulerian", 0.1), check


def setup_lagrangian(n, T, seed, work):
    def check(outcome):
        check_status(outcome)
        devs = [r.lemma_deviation for r in outcome.diagnostics]
        if any(d is None for d in devs):
            raise CheckFailed("a diagnostics record lacks the transport-invariant deviation")
        if not max(devs) < INVARIANT_TOL:
            raise CheckFailed(
                f"transport-invariant deviation {max(devs):.3e} >= {INVARIANT_TOL:g}"
            )
        return {}

    # snapshots every 0.05 put one at EARLY_T = 0.15 (see spans.py)
    return api_call(n, T, seed, "lagrangian", 0.05), check


def output_digest(out):
    """sha256 over every output file; run.json without its wall time."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run.json":
            payload = json.loads(data)
            payload.pop("wall_time_s", None)
            data = json.dumps(payload, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def setup_cli(n, T, seed, work):
    import numpy as np

    from shearwave import SpectralGrid, cli

    x = SpectralGrid(n).nodes
    rng = np.random.default_rng(seed)
    u_path, rho_path = work / "u0.txt", work / "rho0.txt"
    np.savetxt(u_path, -np.sin(x) + perturbation(x, rng), fmt="%.17g")
    np.savetxt(rho_path, 1.0 + perturbation(x, rng), fmt="%.17g")
    out = work / "out"
    argv = [
        "run",
        "--plot",
        f"--grid.n={n}",
        "--params.a=2",
        "--params.alpha=0.5",
        f"--initial.u=samples(path={u_path})",
        f"--initial.rho=samples(path={rho_path})",
        f"--run.T={T!r}",
        "--run.stepper=adaptive",
        "--run.track_flowmap=true",
        "--run.snapshot_every=0.02",
        f"--run.output_dir={out}",
    ]

    def check(code):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        info = json.loads((out / "run.json").read_text())
        if info["status"] != "completed":
            raise CheckFailed(f"status {info['status']}: {info['message']}")
        lines = (out / "diagnostics.csv").read_text().splitlines()
        rows = [line for line in lines[2:] if line]
        if len(rows) != len(info["snapshots"]):
            raise CheckFailed(
                f"{len(rows)} diagnostics rows for {len(info['snapshots'])} snapshots"
            )
        for name in info["snapshots"]:
            if not (out / name).is_file():
                raise CheckFailed(f"snapshot {name} listed but not written")
        written = [p for p in out.iterdir() if p.suffix != ".svg"]
        return {
            "digest": output_digest(out),
            "bytes_written": sum(p.stat().st_size for p in written),
        }

    return (lambda: cli.main(argv)), check


SETUPS = {
    "euler_rk4": setup_euler,
    "lagrangian_rk4": setup_lagrangian,
    "cli_tracked_adaptive": setup_cli,
}


def repetition(args, spawned_ns):
    """Run one repetition; returns the result record (never raises)."""
    result = {"ok": False, "error": None}
    n, T = SIZES[args.size][args.workload]
    try:
        sys.path.insert(0, str(SRC))
        import shearwave

        if Path(shearwave.__file__).resolve().parent != SRC / "shearwave":
            raise RuntimeError(f"imported shearwave from {shearwave.__file__}, not {SRC}")
        result["env"] = {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        }
        timed, check = SETUPS[args.workload](n, T, args.seed, Path(args.work))
        result["setup_s"] = (time.monotonic_ns() - spawned_ns) / 1e9

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        start = time.perf_counter()
        value = timed()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()

        result.update(check(value))
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers["reporting.bytes_written"] = result.get("bytes_written", 0)
            result["layers"] = layers
            result["unpatched"] = tracer.missing
        if args.inject_failure:
            raise CheckFailed("injected failure")
        result["ok"] = True
    except CheckFailed as exc:
        result["error"] = f"check failed: {exc}"
    except Exception:
        result["error"] = traceback.format_exc(limit=5)
    return result


def main():
    spawned_ns = int(os.environ.get("PERFBENCH_SPAWNED_NS", time.monotonic_ns()))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()
    result = repetition(args, spawned_ns)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
