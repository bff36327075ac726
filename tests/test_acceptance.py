"""Acceptance gate: one pass/fail line per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line;
without -s the lines surface only for failing criteria.  Each test computes
its quantities first, prints the verdict, then asserts, so the printed line
always reflects what was measured.
"""

import time

import numpy as np

from conftest import band_limited
from shearwave import (
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    EulerianState,
    Field,
    ModelParams,
    SpectralGrid,
    StepControl,
    ainv_d,
    ainv_d_factored,
    constant_field,
    constraint_residuals,
    derive_coefficients,
    forms_equivalent,
    gaussian_bump,
    helmholtz_apply,
    helmholtz_invert,
    run,
)


def _verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line, flush=True)
    assert ok, line


def _wall(wall, bound):
    """The bound when the wall time meets it, else the time: PASS lines stay reproducible."""
    return f"wall < {bound:g}s" if wall < bound else f"wall {wall:.2f}s (not < {bound:g}s)"


def _final_u(outcome):
    return outcome.trajectory[-1][1].velocity().values


def test_criterion_1_coefficient_constraints():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 200:
        a = float(rng.uniform(-3.0, 4.0))
        if abs(a - 1.0) < 0.02 or abs(a + 1.0) < 0.02:
            continue
        alpha = float(rng.uniform(-2.0, 2.0))
        branch = "right" if checked % 2 == 0 else "left"
        params = ModelParams(a=a, alpha=alpha)
        coeffs = derive_coefficients(params, branch=branch)
        for value in constraint_residuals(coeffs, params).values():
            worst = max(worst, abs(value))
        checked += 1
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 1.0
    _verdict(
        1,
        "coefficient constraints",
        ok,
        f"200 draws, worst residual {worst:.3e} (< 1e-10), {_wall(wall, 1.0)}",
    )


def test_criterion_2_operator_identities():
    rng = np.random.default_rng(1002)
    g = SpectralGrid(256)
    worst_inv = 0.0
    worst_dual = 0.0
    for _ in range(100):
        f = band_limited(g, rng, 85, amplitude=2.0)
        scale = max(1.0, f.linf())
        roundtrip = helmholtz_invert(helmholtz_apply(f))
        worst_inv = max(worst_inv, float(np.max(np.abs(roundtrip.values - f.values))) / scale)
        dual = float(np.max(np.abs(ainv_d(f).values - ainv_d_factored(f).values)))
        worst_dual = max(worst_dual, dual / scale)
    ok = worst_inv < 1e-12 and worst_dual < 1e-12
    _verdict(
        2,
        "operator identities",
        ok,
        f"n=256, 100 fields: inverse roundtrip {worst_inv:.3e}, "
        f"split-multiplier agreement {worst_dual:.3e} (both < 1e-12)",
    )


def test_criterion_3_formulation_equivalence():
    rng = np.random.default_rng(1003)
    g = SpectralGrid(256)
    params = ModelParams(a=2.5, alpha=0.6, kappa=1.2)
    worst = 0.0
    for _ in range(100):
        u = band_limited(g, rng, 32, amplitude=0.8)
        rho = band_limited(g, rng, 32, amplitude=0.8)
        worst = max(worst, forms_equivalent(u, rho, params))
    ok = worst < 1e-10
    _verdict(
        3,
        "momentum vs velocity form",
        ok,
        f"n=256, 100 band-limited states (|k| <= 32): worst residual {worst:.3e} (< 1e-10)",
    )


def test_criterion_4_cross_validation():
    g = SpectralGrid(256)
    x = g.nodes
    u0 = Field(g, 0.3 * np.cos(x))
    rho0 = Field(g, 1.0 + 0.2 * np.sin(x))
    control = StepControl(dt=1e-3)
    worst = 0.0
    details = []
    ok = True
    for a in (2.0, 3.0):
        for alpha in (0.0, 1.0):
            params = ModelParams(a=a, alpha=alpha, kappa=1.0)
            st = EulerianState(helmholtz_apply(u0), rho0, alpha)
            t0 = time.perf_counter()
            e_out = run(st, params, 0.5, control=control, snapshot_every=0.5)
            l_out = run(
                st, params, 0.5, control=control, formulation="lagrangian", snapshot_every=0.5
            )
            wall = time.perf_counter() - t0
            case_ok = (
                e_out.status == STATUS_COMPLETED
                and l_out.status == STATUS_COMPLETED
                and wall < 120.0
            )
            diff = float(np.max(np.abs(_final_u(e_out) - _final_u(l_out))))
            worst = max(worst, diff)
            ok = ok and case_ok and diff < 1e-6
            details.append(f"(a={a:g},alpha={alpha:g}): {diff:.2e}, {_wall(wall, 120.0)}")
    _verdict(
        4,
        "fixed-frame vs flow-map cross-validation",
        ok,
        f"T=0.5 n=256 dt=1e-3, worst |u_e - u_l| {worst:.3e} (< 1e-6); " + "; ".join(details),
    )


def _conservation_run(a, alpha, kappa, formulation="eulerian"):
    g = SpectralGrid(256)
    x = g.nodes
    u0 = Field(g, 0.4 * np.cos(x) + 0.1 * np.sin(2 * x))
    rho0 = Field(g, 1.0 + 0.3 * np.cos(x))
    st = EulerianState(helmholtz_apply(u0), rho0, alpha)
    out = run(
        st,
        ModelParams(a=a, alpha=alpha, kappa=kappa),
        1.0,
        control=StepControl(dt=1e-3),
        formulation=formulation,
        snapshot_every=0.1,
    )
    assert out.status == STATUS_COMPLETED
    return out


def test_criterion_5_conservation_suite():
    runs = {
        1.5: _conservation_run(1.5, 0.2, 1.0),
        2.0: _conservation_run(2.0, 0.4, 1.3),
        3.0: _conservation_run(3.0, 1.0, 1.0),
    }

    recs = runs[2.0].diagnostics
    e0 = recs[0].energy_a2
    energy_drift = max(abs(r.energy_a2 - e0) for r in recs) / e0

    mean_drift = 0.0
    casimir_drift = 0.0
    for out in runs.values():
        recs = out.diagnostics
        m0 = recs[0].mean_u
        mean_drift = max(mean_drift, max(abs(r.mean_u - m0) for r in recs))
        c0 = recs[0].casimir
        assert c0 is not None and all(r.casimir is not None for r in recs)
        casimir_drift = max(casimir_drift, max(abs(r.casimir - c0) for r in recs) / abs(c0))

    lemma_dev = 0.0
    for a in (2.0, 3.0):
        out = _conservation_run(a, 0.4 if a == 2.0 else 1.0, 1.0, formulation="lagrangian")
        devs = [r.lemma_deviation for r in out.diagnostics]
        assert all(d is not None for d in devs)
        lemma_dev = max(lemma_dev, max(devs))

    ok = (
        energy_drift < 1e-8
        and mean_drift < 1e-10
        and casimir_drift < 1e-8
        and lemma_dev < 1e-8
    )
    _verdict(
        5,
        "conservation suite over T=1",
        ok,
        f"a=2 energy drift {energy_drift:.3e} (< 1e-8); "
        f"mean-velocity drift {mean_drift:.3e} over a in {{1.5,2,3}} (< 1e-10); "
        f"casimir drift {casimir_drift:.3e} (< 1e-8); "
        f"transport invariant deviation {lemma_dev:.3e} in flow-map runs (< 1e-8)",
    )


def test_criterion_6_positivity():
    rng = np.random.default_rng(1006)
    g = SpectralGrid(128)
    failures = []
    completed = 0
    min_seen = np.inf
    for trial in range(20):
        a = float(rng.uniform(1.3, 3.5))
        alpha = float(rng.uniform(-1.0, 1.0))
        kappa = float(rng.uniform(0.5, 2.0))
        u0 = band_limited(g, rng, 12, amplitude=0.3)
        rho0 = constant_field(g, 1.0) + band_limited(g, rng, 12, amplitude=0.4)
        assert float(np.min(rho0.values)) > 0.0
        st = EulerianState(helmholtz_apply(u0), rho0, alpha)
        out = run(
            st,
            ModelParams(a=a, alpha=alpha, kappa=kappa),
            0.5,
            control=StepControl(dt=1e-3),
            snapshot_every=0.05,
        )
        if out.status != STATUS_COMPLETED:
            continue
        completed += 1
        low = min(r.min_rho for r in out.diagnostics)
        min_seen = min(min_seen, low)
        if low <= 0.0:
            failures.append((trial, low))
    ok = completed == 20 and not failures
    _verdict(
        6,
        "density positivity",
        ok,
        f"{completed}/20 randomized runs completed, min rho over all snapshots "
        f"{min_seen:.3f} (> 0), violations: {failures or 'none'}",
    )


def test_criterion_7_convergence_orders():
    # temporal: fixed grid, halving dt ladder against a fine reference
    g = SpectralGrid(64)
    x = g.nodes
    params = ModelParams(a=2.0, alpha=0.8, kappa=1.0)
    st = EulerianState(
        helmholtz_apply(Field(g, 1.2 * np.cos(x))), Field(g, 1.0 + 0.4 * np.sin(x)), 0.8
    )

    def final_t(dt):
        out = run(st, params, 0.5, control=StepControl(dt=dt), snapshot_every=0.5)
        assert out.status == STATUS_COMPLETED
        return _final_u(out)

    ref_t = final_t(1e-4)
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    errs_t = [float(np.max(np.abs(final_t(dt) - ref_t))) for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errs_t), 1)[0])

    # spatial: narrow bump refined against a fine-grid reference
    params_s = ModelParams(a=2.0, alpha=0.3, kappa=1.0)

    def final_n(n):
        gs = SpectralGrid(n)
        u0 = gaussian_bump(gs, center=np.pi, width=0.18, amplitude=0.5)
        sts = EulerianState(helmholtz_apply(u0), constant_field(gs, 1.0), 0.3)
        out = run(sts, params_s, 0.25, control=StepControl(dt=5e-4), snapshot_every=0.25)
        assert out.status == STATUS_COMPLETED
        return _final_u(out)

    ref_s = final_n(1024)
    ns = (64, 128, 256, 512)
    errs_s = [float(np.max(np.abs(final_n(n) - ref_s[:: 1024 // n]))) for n in ns]
    floor = 1e-9
    spatial_ok = all(
        late < early / 10.0 or late < floor for early, late in zip(errs_s, errs_s[1:])
    )

    ok = abs(slope - 4.0) <= 0.3 and spatial_ok
    _verdict(
        7,
        "convergence orders",
        ok,
        f"temporal slope {slope:.3f} (within 4.0 +- 0.3); spatial errors "
        + " -> ".join(f"{e:.2e}" for e in errs_s)
        + " over n=64..512 (>= 10x per doubling or below floor)",
    )


def test_criterion_8_blowup_monitor():
    g = SpectralGrid(128)
    x = g.nodes
    params = ModelParams(a=2.0, alpha=0.0, kappa=1.0)
    rho0 = constant_field(g, 0.0)
    control = StepControl(dt=1e-3, max_ux=30.0)

    steep = EulerianState(helmholtz_apply(Field(g, -np.sin(x))), rho0, 0.0)
    out = run(
        steep,
        params,
        3.0,
        control=control,
        formulation="lagrangian",
        stepper="adaptive",
        snapshot_every=0.02,
    )
    trace = [r.max_ux for r in out.diagnostics]
    tail = trace[-20:]
    monotone = len(tail) == 20 and all(b >= a for a, b in zip(tail, tail[1:]))

    small = EulerianState(helmholtz_apply(Field(g, -1e-3 * np.sin(x))), rho0, 0.0)
    out_small = run(
        small,
        params,
        5.0,
        control=control,
        formulation="lagrangian",
        stepper="adaptive",
        snapshot_every=0.25,
    )

    ok = (
        out.status == STATUS_BLOWUP
        and out.t_final < 3.0
        and monotone
        and out_small.status == STATUS_COMPLETED
        and out_small.t_final == 5.0
    )
    _verdict(
        8,
        "blow-up monitor",
        ok,
        f"steep data: {out.status} at t={out.t_final:.3f} with max|u_x| "
        f"{trace[-1]:.1f} and a monotone 20-snapshot tail ({monotone}); "
        f"amplitude-1e-3 data: {out_small.status} through T=5",
    )


def test_criterion_9_symmetry_transform():
    g = SpectralGrid(128)
    n = g.n
    x = g.nodes
    refl = (-np.arange(n)) % n

    u0 = Field(g, 0.5 * np.cos(x) + 0.2 * np.sin(2 * x))
    rho0 = Field(g, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(x))
    alpha = 0.6
    params = ModelParams(a=2.5, alpha=alpha, kappa=1.2)
    params_t = ModelParams(a=2.5, alpha=-alpha, kappa=1.2)

    st = EulerianState(helmholtz_apply(u0), rho0, alpha)
    st_t = EulerianState(
        m=Field(g, -helmholtz_apply(u0).values[refl]),
        rho=Field(g, -rho0.values[refl]),
        alpha=-alpha,
    )
    kw = dict(control=StepControl(dt=1e-3), snapshot_every=0.1)
    out = run(st, params, 0.5, **kw)
    out_t = run(st_t, params_t, 0.5, **kw)
    assert out.status == out_t.status == STATUS_COMPLETED

    worst = 0.0
    for (t1, s1), (t2, s2) in zip(out.trajectory, out_t.trajectory):
        assert t1 == t2
        worst = max(worst, float(np.max(np.abs(s2.m.values + s1.m.values[refl]))))
        worst = max(worst, float(np.max(np.abs(s2.rho.values + s1.rho.values[refl]))))
    ok = worst < 1e-8
    _verdict(
        9,
        "reflection-negation symmetry",
        ok,
        f"T=0.5 trajectories of (u, rho, alpha) and (-u(-x), -rho(-x), -alpha) "
        f"match under the transformation to {worst:.3e} (< 1e-8)",
    )
