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
Exit codes: 0 on success (including detected breakdowns, which are results),
1 when a rung of a convergence ladder breaks down (the ladder needs every
rung), 2 on configuration errors and on an output file or directory that
cannot be written.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from itertools import chain, pairwise

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, build_initial_field, config_echo, load_config, quoted
from .eulerian import EulerianState
from .model import (
    BRANCHES,
    ModelParams,
    derive_coefficients,
    constraint_residuals,
    m1p_residual_table,
    m1p_variant_residuals,
)
from .reporting import (
    atomic_write_text,
    csv_table,
    snapshot_filename,
    snapshot_template,
    write_diagnostics_csv,
    write_run_json,
    write_snapshot_csv,
)
from .spectral import SpectralGrid, helmholtz_apply
from .svgplot import line_plot, waterfall_plot
from .timestepper import STATUS_COMPLETED, integrate


def _initial_state(cfg: RunConfig) -> EulerianState:
    u0 = build_initial_field(cfg.initial_u, cfg.grid)
    rho0 = build_initial_field(cfg.initial_rho, cfg.grid)
    # finite samples can still overflow in their modes or in m = A u
    with np.errstate(over="ignore", invalid="ignore"):
        m0 = helmholtz_apply(u0)
        for name, field in (("momentum m = A u", m0), ("density rho", rho0)):
            if not (np.all(np.isfinite(field.values)) and np.all(np.isfinite(field.coeffs))):
                raise ConfigError(f"initial {name} is not finite on the {cfg.grid.n}-point grid")
    return EulerianState(m=m0, rho=rho0, alpha=cfg.params.alpha)


def _execute(cfg: RunConfig, outcome: list):
    """Yield the snapshots integrate() records for cfg, then append its RunOutcome to outcome."""
    steps = integrate(
        _initial_state(cfg),
        cfg.params,
        cfg.T,
        control=cfg.control,
        formulation=cfg.formulation,
        snapshot_every=cfg.snapshot_every,
        stepper=cfg.stepper,
        track_flowmap=cfg.track_flowmap,
    )
    outcome.append((yield from steps))


def _output_dir(cfg: RunConfig) -> str:
    """cfg.output_dir, created before any work; a path that cannot be is a configuration error."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'run.output_dir': {exc.strerror}: {quoted(exc.filename)}") from None
    return cfg.output_dir


def cmd_run(cfg: RunConfig, plot: bool = False) -> int:
    out = _output_dir(cfg)
    decimals = 6  # widened while a time prints like the one before it; never narrowed
    template = snapshot_template(cfg.grid)
    snapshots = []
    records = []
    velocities = []  # the u rows, kept for the waterfall only
    outcome = []
    started = time.perf_counter()
    for t, state, record in _execute(cfg, outcome):
        while records and f"{records[-1].t:.{decimals}f}" == f"{t:.{decimals}f}":
            decimals += 1
        name = snapshot_filename(t, decimals)
        u = state.velocity().values
        write_snapshot_csv(f"{out}/{name}", template, u, state.rho.values, state.m.values)
        snapshots.append(name)
        records.append(record)
        if plot:
            velocities.append((t, u))
    wall = time.perf_counter() - started
    (end,) = outcome

    write_diagnostics_csv(
        f"{out}/diagnostics.csv",
        records,
        {"config": config_echo(cfg), "status": end.status},
    )
    write_run_json(
        f"{out}/run.json",
        {
            "config": config_echo(cfg),
            "status": end.status,
            "message": end.message,
            "t_final": end.t_final,
            "wall_time_s": wall,
            "version": __version__,
            "snapshots": snapshots,
        },
    )
    if plot:
        waterfall_plot(
            f"{out}/waterfall.svg",
            cfg.grid.nodes,
            velocities,
            title="velocity snapshots",
        )
        line_plot(
            f"{out}/slope.svg",
            [("max |u_x|", [rec.t for rec in records], [rec.max_ux for rec in records])],
            title="slope monitor",
            xlabel="t",
            ylabel="max |u_x|",
        )
    print(f"status={end.status} t_final={end.t_final} wall={wall:.2f}s")
    if end.message:
        print(end.message)
    print(f"wrote {len(snapshots)} snapshots to {out}/")
    return 0


def cmd_coefficients(args) -> int:
    try:
        params = ModelParams(a=args.a, alpha=args.alpha)
        coeffs = derive_coefficients(params, args.branch)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    constants = asdict(coeffs)
    payload = {
        "a": args.a,
        "alpha": args.alpha,
        "branch": args.branch,
        **constants,
        "residuals": constraint_residuals(coeffs, params),
        "first_harmonic": m1p_variant_residuals(coeffs, params),
    }
    if args.sweep:
        payload["sweep"] = m1p_residual_table((1.5, 2.0, 2.5, 3.0), (0.0, 1.0), args.branch)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"branch {args.branch}: a={args.a:g} alpha={args.alpha:g}")
        for name, value in constants.items():
            print(f"  {name:<9} {value: .16e}")
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
        write_run_json(args.out, payload)
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    # only the velocities are compared, so neither leg tracks a flow map
    euler_out, lagr_out = [], []
    euler = _execute(replace(cfg, formulation="eulerian", track_flowmap=False), euler_out)
    lagr = _execute(replace(cfg, formulation="lagrangian", track_flowmap=False), lagr_out)
    # both legs record the same snapshot times, so they pair as they run
    rows = [
        (t, float(np.max(np.abs(s_e.velocity().values - s_l.velocity().values))))
        for (t, s_e, _), (_, s_l, _) in zip(euler, lagr)
    ]
    for _ in chain(euler, lagr):  # drain the leg that outlasted the other, for its outcome
        pass
    (euler_end,), (lagr_end,) = euler_out, lagr_out
    payload = {
        "threshold": cfg.compare_threshold,
        "eulerian_status": euler_end.status,
        "lagrangian_status": lagr_end.status,
    }
    if euler_end.status != STATUS_COMPLETED or lagr_end.status != STATUS_COMPLETED:
        payload["verdict"] = "incomplete"
        payload["reason"] = "a formulation did not complete"
        rows = []
    else:
        payload["max_diff"] = max(d for _, d in rows)
        payload["verdict"] = "pass" if payload["max_diff"] < cfg.compare_threshold else "fail"
    atomic_write_text(f"{out}/compare_trace.csv", csv_table(("t", "sup_diff_u"), rows))
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
    rung = replace(
        cfg,
        grid=SpectralGrid(n),
        control=replace(cfg.control, dt=dt),
        snapshot_every=max(cfg.T, cfg.snapshot_every),
        stepper="rk4",
        track_flowmap=False,
    )
    outcome = []
    for _, state, _ in _execute(rung, outcome):
        pass  # only the last state is kept
    (end,) = outcome
    if end.status != STATUS_COMPLETED:
        raise LadderBreakdown(
            f"ladder run (n={n}, dt={dt:g}) ended {end.status} "
            f"at t={end.t_final:.6g}: {end.message}"
        )
    return state.velocity().values


def _or_na(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def cmd_convergence(cfg: RunConfig, ladder: str) -> int:
    out = _output_dir(cfg)
    if ladder == "temporal":
        key, label = "dt", "dt={:<8g}"
        ref = _final_velocity(cfg, cfg.grid.n, _TEMPORAL_REF_DT)
        gaps = ((dt, _final_velocity(cfg, cfg.grid.n, dt) - ref) for dt in _TEMPORAL_DTS)
    else:
        key, label = "n", "n={:<6d}"
        ref = _final_velocity(cfg, _SPATIAL_REF_N, cfg.control.dt)
        gaps = (
            (n, _final_velocity(cfg, n, cfg.control.dt) - ref[:: _SPATIAL_REF_N // n])
            for n in _SPATIAL_NS
        )
    rows = [(rung, float(np.max(np.abs(gap)))) for rung, gap in gaps]
    payload = {"ladder": ladder, "rows": rows}
    if ladder == "temporal":
        dts, errs = np.array(rows).T
        fit = errs > 0  # a zero error has no logarithm
        payload["slope"] = None
        if fit.sum() > 1:
            payload["slope"] = float(np.polyfit(np.log(dts[fit]), np.log(errs[fit]), 1)[0])
        summary = "slope=" + _or_na(payload["slope"], ".3f")
    else:
        payload["ratios"] = [a / b if b > 0 else None for (_, a), (_, b) in pairwise(rows)]
        summary = "ratios: " + ", ".join(_or_na(r, ".1f") for r in payload["ratios"])
    atomic_write_text(f"{out}/convergence_{ladder}.csv", csv_table((key, "sup_error"), rows))
    write_run_json(f"{out}/convergence.json", payload)
    for rung, err in rows:
        print(f"{label.format(rung)} err={err:.6e}")
    print(summary)
    return 0


def _collect_overrides(extras) -> list:
    overrides = []
    for token in extras:
        if token.startswith("--") and "=" in token:
            overrides.append(token[2:])
        else:
            raise ConfigError(f"unrecognized argument {quoted(token)}")
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
    p_coeff.add_argument("--branch", choices=BRANCHES, default="right")
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
                raise ConfigError(f"unrecognized argument {quoted(extras[0])}")
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
    except OSError as exc:  # every output file goes through atomic_write_text, which names it
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
