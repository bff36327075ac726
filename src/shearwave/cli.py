"""Command line interface.

Subcommands:

* ``run``           integrate one configuration and write snapshots,
                    diagnostics and metadata into the output directory
* ``coefficients``  report the derivation constants and every closing
                    relation residual for one (a, alpha, branch)
* ``compare``       integrate the same data in both formulations and
                    report the sup-norm gap of the velocities
* ``convergence``   temporal or spatial self-convergence ladder

Every configuration key can be overridden as ``--section.key=value``.
Exit codes: 0 on success (including detected breakdowns, which are
results), 1 when a rung of a convergence ladder breaks down (the ladder
needs every rung), 2 on configuration errors.
"""

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig, build_initial_field, config_echo, load_config
from .eulerian import EulerianState
from .model import (
    ModelParams,
    derive_coefficients,
    constraint_residuals,
    m1p_residual_table,
    m1p_variant_residuals,
)
from .reporting import (
    atomic_write_text,
    fmt,
    snapshot_filename,
    write_diagnostics_csv,
    write_run_json,
    write_snapshot_csv,
)
from .spectral import SpectralGrid, helmholtz_apply
from .svgplot import line_plot, waterfall_plot
from .timestepper import STATUS_COMPLETED, run


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("shearwave")
    except Exception:
        return "0.1.0+local"


def _initial_state(cfg: RunConfig, grid: SpectralGrid) -> EulerianState:
    u0 = build_initial_field(cfg.initial_u, grid)
    rho0 = build_initial_field(cfg.initial_rho, grid)
    return EulerianState(m=helmholtz_apply(u0), rho=rho0, alpha=cfg.params.alpha)


def _execute(cfg: RunConfig):
    grid = SpectralGrid(cfg.grid_n)
    initial = _initial_state(cfg, grid)
    return run(
        initial,
        cfg.params,
        cfg.T,
        control=cfg.control,
        formulation=cfg.formulation,
        snapshot_every=cfg.snapshot_every,
        stepper=cfg.stepper,
        track_flowmap=cfg.track_flowmap,
    )


def cmd_run(cfg: RunConfig, plot: bool = False) -> int:
    out = cfg.output_dir
    started = time.perf_counter()
    outcome = _execute(cfg)
    wall = time.perf_counter() - started

    # snapshot times strictly increase, so enough decimals tell them apart
    times = [t for t, _ in outcome.trajectory]
    decimals = 6
    while len({snapshot_filename(t, decimals) for t in times}) < len(times):
        decimals += 1
    snapshots = []
    velocities = []
    for t, state in outcome.trajectory:
        u = state.velocity()
        name = snapshot_filename(t, decimals)
        write_snapshot_csv(f"{out}/{name}", state.m.grid, u, state.rho, state.m)
        snapshots.append(name)
        velocities.append((t, list(u.values)))
    write_diagnostics_csv(
        f"{out}/diagnostics.csv",
        outcome.diagnostics,
        {"config": config_echo(cfg), "status": outcome.status},
    )
    write_run_json(
        f"{out}/run.json",
        {
            "config": config_echo(cfg),
            "status": outcome.status,
            "message": outcome.message,
            "t_final": outcome.t_final,
            "wall_time_s": wall,
            "version": _version(),
            "snapshots": snapshots,
        },
    )
    if plot:
        grid = SpectralGrid(cfg.grid_n)
        waterfall_plot(
            f"{out}/waterfall.svg",
            list(grid.nodes),
            velocities,
            title="velocity snapshots",
        )
        times = [rec.t for rec in outcome.diagnostics]
        line_plot(
            f"{out}/slope.svg",
            [("max |u_x|", times, [rec.max_ux for rec in outcome.diagnostics])],
            title="slope monitor",
            xlabel="t",
            ylabel="max |u_x|",
        )
    print(f"status={outcome.status} t_final={outcome.t_final:.6g} wall={wall:.2f}s")
    if outcome.message:
        print(outcome.message)
    print(f"wrote {len(snapshots)} snapshots to {out}/")
    return 0


def cmd_coefficients(args) -> int:
    try:
        params = ModelParams(a=args.a, alpha=args.alpha)
        coeffs = derive_coefficients(params, args.branch)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "a": args.a,
        "alpha": args.alpha,
        "branch": args.branch,
        "c": coeffs.c,
        "k1": coeffs.k1,
        "k2": coeffs.k2,
        "k3": coeffs.k3,
        "k0": coeffs.k0,
        "beta0_sq": coeffs.beta0_sq,
        "residuals": constraint_residuals(coeffs, params),
        "first_harmonic": m1p_variant_residuals(coeffs, params),
    }
    if args.sweep:
        payload["sweep"] = m1p_residual_table((1.5, 2.0, 2.5, 3.0), (0.0, 1.0), args.branch)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"branch {args.branch}: a={args.a:g} alpha={args.alpha:g}")
        for name in ("c", "k1", "k2", "k3", "k0", "beta0_sq"):
            print(f"  {name:<9} {payload[name]: .16e}")
        print("closing relation residuals:")
        for name, value in payload["residuals"].items():
            print(f"  {name:<14} {value: .3e}")
        print("first-harmonic relation residuals (reported, never asserted):")
        for name, value in payload["first_harmonic"].items():
            print(f"  {name:<14} {value: .3e}")
        if args.sweep:
            print("sweep over (a, alpha):")
            print("  a      alpha  factor_two     factor_one")
            for row in payload["sweep"]:
                print(
                    f"  {row['a']:<6g} {row['alpha']:<6g} "
                    f"{row['factor_two']: .6e} {row['factor_one']: .6e}"
                )
    if args.out:
        atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out = cfg.output_dir
    # only the velocities are compared, so neither leg tracks a flow map
    euler = _execute(replace(cfg, formulation="eulerian", track_flowmap=False))
    lagr = _execute(replace(cfg, formulation="lagrangian", track_flowmap=False))
    payload = {
        "threshold": cfg.compare_threshold,
        "eulerian_status": euler.status,
        "lagrangian_status": lagr.status,
    }
    rows = []
    if euler.status != STATUS_COMPLETED or lagr.status != STATUS_COMPLETED:
        payload["verdict"] = "incomplete"
        payload["reason"] = "a formulation did not complete"
    else:
        # both legs record the same snapshot times, so they pair row by row
        for (t, s_e), (_, s_l) in zip(euler.trajectory, lagr.trajectory):
            rows.append((t, float(np.max(np.abs(s_e.velocity().values - s_l.velocity().values)))))
        payload["max_diff"] = max(d for _, d in rows)
        payload["verdict"] = "pass" if payload["max_diff"] < cfg.compare_threshold else "fail"
    lines = ["t,sup_diff_u"] + [f"{fmt(t)},{fmt(d)}" for t, d in rows]
    atomic_write_text(f"{out}/compare_trace.csv", "\n".join(lines) + "\n")
    write_run_json(f"{out}/compare.json", payload)
    print(f"verdict={payload['verdict']}" + (f" max_diff={payload.get('max_diff', float('nan')):.3e}" if "max_diff" in payload else ""))
    return 0


_TEMPORAL_DTS = (4e-3, 2e-3, 1e-3, 5e-4)
_TEMPORAL_REF_DT = 1e-4
_SPATIAL_NS = (64, 128, 256, 512)
_SPATIAL_REF_N = 1024


class LadderBreakdown(RuntimeError):
    """A rung of the convergence ladder did not reach the final time."""


def _final_velocity(cfg: RunConfig, n: int, dt: float):
    outcome = _execute(
        replace(
            cfg,
            grid_n=n,
            control=replace(cfg.control, dt=dt),
            snapshot_every=max(cfg.T, cfg.snapshot_every),
            stepper="rk4",
            track_flowmap=False,
        )
    )
    if outcome.status != STATUS_COMPLETED:
        raise LadderBreakdown(
            f"ladder run (n={n}, dt={dt:g}) ended {outcome.status} "
            f"at t={outcome.t_final:.6g}: {outcome.message}"
        )
    return outcome.trajectory[-1][1].velocity().values


def cmd_convergence(cfg: RunConfig, ladder: str) -> int:
    out = cfg.output_dir
    if ladder == "temporal":
        ref = _final_velocity(cfg, cfg.grid_n, _TEMPORAL_REF_DT)
        rows = []
        for dt in _TEMPORAL_DTS:
            err = float(np.max(np.abs(_final_velocity(cfg, cfg.grid_n, dt) - ref)))
            rows.append((dt, err))
        slope = float(
            np.polyfit(np.log([d for d, _ in rows]), np.log([e for _, e in rows]), 1)[0]
        )
        lines = ["dt,sup_error"] + [f"{fmt(d)},{fmt(e)}" for d, e in rows]
        atomic_write_text(f"{out}/convergence_temporal.csv", "\n".join(lines) + "\n")
        payload = {"ladder": "temporal", "rows": rows, "slope": slope}
        write_run_json(f"{out}/convergence.json", payload)
        for dt, err in rows:
            print(f"dt={dt:<8g} err={err:.6e}")
        print(f"slope={slope:.3f}")
    else:
        ref = _final_velocity(cfg, _SPATIAL_REF_N, cfg.control.dt)
        rows = []
        for n in _SPATIAL_NS:
            vals = _final_velocity(cfg, n, cfg.control.dt)
            step = _SPATIAL_REF_N // n
            err = float(np.max(np.abs(vals - ref[::step])))
            rows.append((n, err))
        ratios = [
            rows[i][1] / rows[i + 1][1] if rows[i + 1][1] > 0 else float("inf")
            for i in range(len(rows) - 1)
        ]
        lines = ["n,sup_error"] + [f"{n},{fmt(e)}" for n, e in rows]
        atomic_write_text(f"{out}/convergence_spatial.csv", "\n".join(lines) + "\n")
        payload = {"ladder": "spatial", "rows": rows, "ratios": ratios}
        write_run_json(f"{out}/convergence.json", payload)
        for n, err in rows:
            print(f"n={n:<6d} err={err:.6e}")
        print("ratios: " + ", ".join(f"{r:.1f}" for r in ratios))
    return 0


def _collect_overrides(extras) -> list:
    overrides = []
    for token in extras:
        if token.startswith("--") and "=" in token:
            overrides.append(token[2:])
        else:
            raise ConfigError(f"unrecognized argument {token!r}")
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shearwave",
        description="pseudo-spectral runs of a two-component wave model over constant shear",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("--config", default=None, help="path to a key = value file")
    p_run.add_argument("--plot", action="store_true", help="also write SVG plots")

    p_coeff = sub.add_parser("coefficients", help="derivation constants report")
    p_coeff.add_argument("--a", type=float, required=True)
    p_coeff.add_argument("--alpha", type=float, default=0.0)
    p_coeff.add_argument("--branch", choices=("right", "left"), default="right")
    p_coeff.add_argument("--sweep", action="store_true", help="include the (a, alpha) sweep table")
    p_coeff.add_argument("--json", action="store_true", help="print JSON instead of the table")
    p_coeff.add_argument("--out", default=None, help="also write the JSON report here")

    p_cmp = sub.add_parser("compare", help="cross-validate the two formulations")
    p_cmp.add_argument("--config", default=None)

    p_conv = sub.add_parser("convergence", help="self-convergence ladder")
    p_conv.add_argument("--config", default=None)
    p_conv.add_argument("--ladder", choices=("temporal", "spatial"), required=True)

    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "coefficients":
            if extras:
                raise ConfigError(f"unrecognized argument {extras[0]!r}")
            return cmd_coefficients(args)
        cfg = load_config(args.config, _collect_overrides(extras))
        if args.command == "run":
            return cmd_run(cfg, plot=args.plot)
        if args.command == "compare":
            return cmd_compare(cfg)
        return cmd_convergence(cfg, args.ladder)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LadderBreakdown as exc:
        print(f"convergence ladder stopped: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
