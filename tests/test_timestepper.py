"""Fixed and adaptive stepping, run orchestration, and failure monitors."""

import inspect
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from shearwave import (
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_MESH,
    DiffeoMap,
    EulerianState,
    Field,
    LagrangianState,
    ModelParams,
    NonDiffeomorphismError,
    SpectralGrid,
    StepControl,
    adaptive_step,
    constant_field,
    cosine_mode,
    derivative,
    from_eulerian,
    helmholtz_apply,
    integrate,
    rhs_u_form,
    rk4_step,
    run,
    spray_rhs,
)
from shearwave import _dop853, timestepper
from shearwave.timestepper import _make_scheme


def smooth_state(n=64, amp=0.6, alpha=0.5):
    g = SpectralGrid(n)
    x = g.nodes
    u0 = Field(g, amp * np.cos(x) + 0.2 * amp * np.sin(2 * x))
    rho0 = Field(g, 1.0 + 0.3 * np.cos(x))
    return EulerianState(helmholtz_apply(u0), rho0, alpha)


def curved_lagrangian():
    """A flow-map state on phi = x + 0.4 sin x, with v and sigma in closed form."""
    g = SpectralGrid(64)
    x = g.nodes
    return LagrangianState(
        DiffeoMap(Field(g, 0.4 * np.sin(x))),
        Field(g, 0.7 * np.cos(x) + 0.2 * np.sin(2 * x)),
        Field(g, 1.0 + 0.3 * np.sin(x)),
        0.5,
    )


def final_velocity(outcome):
    return outcome.trajectory[-1][1].velocity().values


PARAMS = ModelParams(a=2.0, alpha=0.5, kappa=1.0)


class TestTransformCount:
    """Both right-hand sides run on batched real transforms of their rows."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = dict.fromkeys(("fft", "ifft", "rfft", "irfft"), 0)
        for name in counted:

            def traced(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                counted[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, traced)
        return counted

    @pytest.mark.parametrize("tracked", [False, True])
    def test_eulerian_rhs_makes_two_real_transforms(self, calls, tracked):
        g = SpectralGrid(64)
        x = g.nodes
        rows = [1.4 * np.cos(x), 1.0 + 0.3 * np.sin(x)] + [0.1 * np.sin(x)] * tracked
        hat = np.fft.rfft(np.stack(rows))
        calls["rfft"] = 0  # the test's own transform
        out = rhs_u_form(g, hat, PARAMS)
        assert out.shape == (len(rows), g.n // 2 + 1)
        assert calls["fft"] == calls["ifft"] == 0
        assert calls["rfft"] + calls["irfft"] <= 2

    def test_spray_makes_no_complex_transform(self, calls):
        g = SpectralGrid(64)
        x = g.nodes
        rows = np.stack([0.1 * np.sin(x), 0.7 * np.cos(x), 1.0 + 0.3 * np.sin(x)])
        hat = np.fft.rfft(rows)
        calls["rfft"] = 0  # the test's own transform
        out = spray_rhs(g, hat, PARAMS)
        assert out.shape == (3, g.n // 2 + 1)
        assert np.all(np.isfinite(out))
        assert calls["fft"] == calls["ifft"] == 0
        assert calls["rfft"] + calls["irfft"] <= 4

    @pytest.mark.parametrize(
        "options",
        [
            dict(),
            dict(stepper="adaptive", track_flowmap=True),
            dict(formulation="lagrangian"),
        ],
        ids=["eulerian_rk4", "tracked_adaptive", "lagrangian"],
    )
    def test_whole_run_makes_no_complex_transform(self, calls, options):
        # snapshots run the scheme's view, which for a flow-map run calls
        # to_eulerian, and make_record: Field and the diagnostics share the
        # real layout
        out = run(
            smooth_state(),
            PARAMS,
            0.02,
            control=StepControl(dt=1e-2),
            snapshot_every=0.01,
            **options,
        )
        assert out.status == STATUS_COMPLETED
        assert len(out.diagnostics) == 3
        assert calls["rfft"] > 0
        assert calls["fft"] == calls["ifft"] == 0


class TestModalScheme:
    """Both schemes pack the rfft modes of their rows as one (rows, n/2 + 1) array."""

    @staticmethod
    def scheme_and_vec(tracked):
        st = smooth_state()
        scheme = _make_scheme(st, PARAMS, "eulerian", tracked)[0]
        vec = scheme.pack(st)
        if tracked:
            x = st.m.grid.nodes
            vec[2] = np.fft.rfft(0.1 * np.sin(x) + 0.05 * np.cos(3 * x))
        return st, scheme, vec

    @pytest.mark.parametrize("tracked", [False, True])
    def test_norm_matches_nodal_norm(self, tracked):
        st, scheme, vec = self.scheme_and_vec(tracked)
        g = st.m.grid

        def l2(values):
            return np.sqrt(g.integrate(values * values))

        # the tracked displacement is diagnostic and stays out of the norm
        rho_x = derivative(st.rho).values
        expect = l2(st.m.values) + np.sqrt(g.integrate(st.rho.values**2 + rho_x**2))
        assert abs(scheme.norm(vec) - expect) <= 1e-14 * expect

    @pytest.mark.parametrize("tracked", [False, True])
    def test_monitors_match_nodal_route(self, tracked):
        st, scheme, vec = self.scheme_and_vec(tracked)
        g = st.m.grid
        mesh, slope = scheme.monitors(vec)
        assert slope == pytest.approx(derivative(st.velocity()).linf(), rel=1e-14)
        if tracked:
            disp_x = derivative(Field(g, np.fft.irfft(vec[2], g.n))).values
            assert mesh == pytest.approx(1.0 + np.min(disp_x), rel=1e-14)
        else:
            assert mesh is None

    def test_unpacked_fields_do_not_follow_the_vector(self):
        st, scheme, vec = self.scheme_and_vec(True)
        state, invariant = scheme.view(vec)
        unpacked = scheme.unpack(vec)
        before = [f.values.copy() for f in (state.m, state.rho, unpacked.m, invariant)]
        coeffs = unpacked.rho.coeffs.copy()
        vec[:] = 0.0
        after = [f.values for f in (state.m, state.rho, unpacked.m, invariant)]
        for old, new in zip(before, after):
            assert np.array_equal(old, new)
        assert np.array_equal(unpacked.rho.coeffs, coeffs)
        assert np.max(np.abs(unpacked.m.values - st.m.values)) < 1e-14

    @pytest.mark.parametrize(
        "formulation, tracked", [("eulerian", False), ("eulerian", True), ("lagrangian", False)]
    )
    def test_unpack_inverts_pack(self, formulation, tracked):
        st = smooth_state() if formulation == "eulerian" else curved_lagrangian()
        scheme, vec = _make_scheme(st, PARAMS, formulation, tracked)
        assert vec.shape == (2 + (tracked or formulation == "lagrangian"), 33)
        assert vec.dtype == complex
        back = scheme.unpack(vec)
        if formulation == "eulerian":
            pairs = [(st.m, back.m), (st.rho, back.rho)]
        else:
            pairs = [(st.phi.displacement, back.phi.displacement), (st.v, back.v)]
            pairs.append((st.sigma, back.sigma))
        for want, got in pairs:
            assert np.max(np.abs(got.values - want.values)) <= 1e-15 * want.linf()

    def test_flow_map_norm_matches_nodal_norm(self):
        st = curved_lagrangian()
        scheme, vec = _make_scheme(st, PARAMS, "lagrangian")
        g = st.v.grid
        disp, sigma = st.phi.displacement.values, st.sigma.values
        sigma_x = derivative(st.sigma).values
        expect = (
            np.sqrt(g.integrate(helmholtz_apply(st.v).values ** 2))  # ||A v||_L2
            + np.sqrt(g.integrate(sigma**2 + sigma_x**2))
            + np.sqrt(g.integrate(disp**2))
        )
        assert abs(scheme.norm(vec) - expect) <= 1e-13 * expect

    def test_flow_map_monitors_on_closed_form_map(self):
        st = curved_lagrangian()
        scheme, vec = _make_scheme(st, PARAMS, "lagrangian")
        x = st.v.grid.nodes
        phi_x = 1.0 + 0.4 * np.cos(x)  # 0.6 at the node x = pi
        v_x = -0.7 * np.sin(x) + 0.4 * np.cos(2 * x)
        mesh, slope = scheme.monitors(vec)
        assert mesh == pytest.approx(0.6, rel=1e-13)
        assert slope == pytest.approx(np.max(np.abs(v_x / phi_x)), rel=1e-13)


class TestFirstSameAsLast:
    @staticmethod
    def counted_run(monkeypatch, snapshot_every):
        """(outcome, RHS calls, [(dt, accepted)] per attempt) of a tracked adaptive run."""
        rhs = timestepper.rhs_u_form
        attempt = timestepper._dopri_attempt
        rhs_calls = []
        attempts = []

        def counted_rhs(*args):
            rhs_calls.append(1)
            return rhs(*args)

        def counted_attempt(*args, **kwargs):
            out = attempt(*args, **kwargs)
            attempts.append((args[4], out[0] is not None))
            return out

        monkeypatch.setattr(timestepper, "rhs_u_form", counted_rhs)
        monkeypatch.setattr(timestepper, "_dopri_attempt", counted_attempt)
        # dt = 0.5 is far too long for the tolerance, so the first attempt fails
        out = run(
            smooth_state(),
            PARAMS,
            0.5,
            control=StepControl(dt=0.5),
            stepper="adaptive",
            track_flowmap=True,
            snapshot_every=snapshot_every,
        )
        assert out.status == STATUS_COMPLETED
        accepted = [ok for _, ok in attempts]
        assert not all(accepted) and any(accepted)
        return out, len(rhs_calls), attempts

    def test_attempts_after_the_first_make_twelve_rhs_calls(self, monkeypatch):
        # the only snapshot after t = 0 falls on the last step's end
        _, calls, attempts = self.counted_run(monkeypatch, 0.5)
        assert calls == 12 * len(attempts) + 1

    @pytest.mark.parametrize("snapshot_every", [0.25, 0.05])
    def test_a_step_holding_snapshots_adds_three_rhs_calls(self, monkeypatch, snapshot_every):
        # the four accepted steps are about 0.13 long: at 0.25 one holds a
        # snapshot, two hold none and one ends on 0.5; at 0.05 each holds one
        # to three, whose extension is built once
        out, calls, attempts = self.counted_run(monkeypatch, snapshot_every)
        times = [s for s, _ in out.trajectory]
        t = 0.0
        inside = []
        for dt, ok in attempts:
            if ok:
                inside.append(sum(t + 1e-12 < s < t + dt - 1e-12 for s in times))
                t += dt
        holding = sum(k > 0 for k in inside)
        assert 0 < holding
        assert calls == 12 * len(attempts) + 1 + 3 * holding


class TestDop853Tableau:
    """The copied DOP853 coefficients meet the order conditions they must."""

    def test_each_row_sums_to_its_node(self):
        assert len(_dop853.A) == len(_dop853.C) == 16
        for row, c in zip(_dop853.A, _dop853.C):
            assert sum(row) == pytest.approx(c, abs=1e-14)

    def test_weights_meet_the_quadrature_conditions_to_order_8(self):
        b = np.array(_dop853.A[12])
        c = np.array(_dop853.C[:12])
        for k in range(8):
            assert b @ c**k == pytest.approx(1.0 / (k + 1), abs=1e-15)
        assert abs(b @ c**8 - 1.0 / 9.0) > 1e-6  # order 8, not 9

    def test_error_estimates_weigh_to_zero(self):
        assert abs(sum(_dop853.E5)) < 1e-15
        assert abs(np.sum(timestepper._E3)) < 1e-15

    @pytest.mark.parametrize("formulation", ["eulerian", "lagrangian"])
    def test_extension_returns_the_start_and_the_result(self, formulation):
        scheme, vec = _make_scheme(smooth_state(), PARAMS, formulation)
        ks = timestepper._stage_stack(scheme, vec, "adaptive")
        new, _, _ = timestepper._dopri_attempt(scheme, ks, vec, StepControl(), 0.05)
        assert new is not None
        extension = timestepper._extension(scheme, vec, ks, 0.05)
        assert np.array_equal(extension(0.0), vec)
        assert np.max(np.abs(extension(1.0) - new)) <= 1e-14 * np.max(np.abs(new))

    def test_fixed_steps_converge_at_order_8(self):
        # steps of 1/4, 1/8 and 1/16 to T = 1 against 64 steps of 1/64; the
        # errors 1.7e-6, 6.9e-9 and 2.8e-11 sit well above the roundoff floor
        st = smooth_state(32)
        wide_open = StepControl(abs_tol=1e10, rel_tol=0.0)
        attempt = timestepper._dopri_attempt

        def solve(steps):
            scheme, vec = _make_scheme(st, PARAMS, "eulerian")
            ks = timestepper._stage_stack(scheme, vec, "adaptive")
            for _ in range(steps):
                vec, _, _ = attempt(scheme, ks, vec, wide_open, 1.0 / steps)
                ks[0] = ks[12]
            return scheme, vec

        scheme, ref = solve(64)
        errors = [scheme.norm(solve(steps)[1] - ref) for steps in (4, 8, 16)]
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(np.abs(orders - 8.0) < 0.5), orders


class TestSingleSteps:
    def test_rk4_keeps_alpha_bit_identical(self):
        st = smooth_state(alpha=0.37)
        out = rk4_step(st, ModelParams(a=2.0, alpha=0.37), 1e-3)
        assert out.alpha == 0.37

    def test_rk4_advances_lagrangian_states(self):
        st = from_eulerian(smooth_state())
        out = rk4_step(st, PARAMS, 1e-3)
        assert not out.phi.is_identity()
        assert out.alpha == 0.5

    def test_adaptive_accepts_smooth_step(self):
        st = smooth_state()
        new, dt_next, accepted = adaptive_step(st, PARAMS, StepControl(dt=1e-3))
        assert accepted
        assert dt_next >= 1e-3
        assert new.alpha == st.alpha

    def test_adaptive_rejects_under_unreachable_tolerance(self):
        # a tolerance of 1e-300 cannot be met, so the controller must
        # reject and propose the maximum shrink
        st = smooth_state()
        _, dt_next, accepted = adaptive_step(
            st, PARAMS, StepControl(dt=1e-3, abs_tol=1e-300, rel_tol=0.0)
        )
        assert not accepted
        assert dt_next == pytest.approx(0.2e-3)

    def test_growth_is_capped(self):
        st = smooth_state(amp=1e-6)
        _, dt_next, accepted = adaptive_step(
            st, PARAMS, StepControl(dt=1e-3, abs_tol=1e-2, rel_tol=1e-2)
        )
        assert accepted
        assert dt_next <= 5.0 * 1e-3 + 1e-15


class TestOneAlpha:
    """The dynamics read params.alpha, so the state must agree with it;
    the scaling symmetry doubles it together with the data, and a Galilean
    boost by c shifts it by -a c."""

    @pytest.mark.parametrize("formulation", ["eulerian", "lagrangian"])
    def test_scheme_keeps_no_copy_of_alpha(self, formulation):
        scheme, vec = _make_scheme(smooth_state(alpha=0.5), PARAMS, formulation)
        assert not hasattr(scheme, "alpha")
        assert scheme.unpack(vec).alpha == PARAMS.alpha

    @pytest.mark.parametrize("kernel,row", [(rhs_u_form, 0), (spray_rhs, 1)])
    def test_the_right_hand_sides_read_alpha_from_params(self, kernel, row):
        # the rows are (m, rho, disp) for the velocity form and (disp, v,
        # sigma) for the spray; alpha enters the velocity tendency alone
        g = SpectralGrid(64)
        x = g.nodes
        hat = np.fft.rfft(np.stack([0.1 * np.sin(x), 0.7 * np.cos(x), 1.0 + 0.3 * np.sin(x)]))
        base = kernel(g, hat, PARAMS)
        moved = kernel(g, hat, replace(PARAMS, alpha=-PARAMS.alpha))
        changed = [not np.array_equal(b, m) for b, m in zip(base, moved)]
        assert changed == [i == row for i in range(3)]

    @pytest.mark.parametrize("formulation", ["eulerian", "lagrangian"])
    def test_every_entry_point_rejects_a_second_alpha(self, formulation):
        st = smooth_state(alpha=0.0)
        if formulation == "lagrangian":
            st = from_eulerian(st)
        params = ModelParams(a=2.0, alpha=0.5)
        with pytest.raises(ValueError, match="alpha"):
            run(st, params, 0.1)
        with pytest.raises(ValueError, match="alpha"):
            next(integrate(st, params, 0.1))
        with pytest.raises(ValueError, match="alpha"):
            rk4_step(st, params, 1e-3)
        with pytest.raises(ValueError, match="alpha"):
            adaptive_step(st, params, StepControl())

    @pytest.mark.parametrize(
        "formulation,tracked", [("eulerian", False), ("eulerian", True), ("lagrangian", False)]
    )
    def test_doubled_data_in_half_the_time_doubles_m_exactly(self, formulation, tracked):
        # u -> 2 u(x, 2 t), rho -> 2 rho(x, 2 t), alpha -> 2 alpha solves the
        # same system; powers of two scale floats exactly, so every step of
        # the doubled run is the original one doubled, bit for bit
        params = ModelParams(a=2.5, alpha=0.5, kappa=1.3)
        # Fields from values on both sides, so that their modes are rffts of
        # values that differ by the factor 2 alone
        base = smooth_state()
        m, rho = (Field(f.grid, f.values) for f in (base.m, base.rho))
        st, doubled = EulerianState(m, rho, 0.5), EulerianState(2.0 * m, 2.0 * rho, 1.0)
        kw = dict(formulation=formulation, track_flowmap=tracked)
        out = run(st, params, 0.2, StepControl(dt=2e-3), snapshot_every=0.05, **kw)
        params2 = ModelParams(a=2.5, alpha=1.0, kappa=1.3)
        out2 = run(doubled, params2, 0.1, StepControl(dt=1e-3), snapshot_every=0.025, **kw)
        assert out.status == out2.status == STATUS_COMPLETED
        assert len(out.trajectory) == len(out2.trajectory) == 5
        for (t, state), (t2, state2) in zip(out.trajectory, out2.trajectory):
            assert t2 == 0.5 * t
            assert np.array_equal(state2.m.values, 2.0 * state.m.values)
            assert np.array_equal(state2.rho.values, 2.0 * state.rho.values)

    @pytest.mark.parametrize("formulation", ["eulerian", "lagrangian"])
    @pytest.mark.parametrize(
        "stepper,control",
        [("rk4", StepControl(dt=1e-3)), ("adaptive", StepControl(abs_tol=1e-10, rel_tol=1e-10))],
    )
    def test_galilean_boost_shifts_alpha_by_a_c(self, formulation, stepper, control):
        # u = w(x - c t, t) + c and rho = r(x - c t, t) turn the momentum form
        # into itself with alpha' = alpha - a c, so the run of (u0, rho0, alpha)
        # is the run of (u0 - c, rho0, alpha - a c) carried along at speed c.
        # Criterion 9's reflection maps alpha to -alpha whatever the alpha
        # term's coefficient is; this boost ties that coefficient to a
        g = SpectralGrid(128)
        x = g.nodes
        u0 = Field(g, 0.5 * np.cos(x) + 0.2 * np.sin(2 * x))
        rho0 = Field(g, 1.0 + 0.3 * np.cos(x) + 0.1 * np.sin(x))
        a, alpha, kappa, c = 2.5, 0.6, 1.2, 0.37
        kw = dict(control=control, formulation=formulation, stepper=stepper, snapshot_every=0.1)
        out, out_b = (
            run(EulerianState(helmholtz_apply(u), rho0, al), ModelParams(a, al, kappa), 0.5, **kw)
            for u, al in ((u0, alpha), (u0 - constant_field(g, c), alpha - a * c))
        )
        assert out.status == out_b.status == STATUS_COMPLETED
        assert len(out.trajectory) == len(out_b.trajectory) == 6
        worst = 0.0
        for (t, state), (t_b, state_b) in zip(out.trajectory, out_b.trajectory):
            assert t == t_b
            shift = np.exp(-1j * c * t * g.wavenumbers)  # f(x) -> f(x - c t), exactly
            carried = np.fft.irfft(
                np.stack([state_b.velocity().coeffs, state_b.rho.coeffs]) * shift, g.n
            )
            worst = max(worst, np.max(np.abs(state.velocity().values - c - carried[0])))
            worst = max(worst, np.max(np.abs(state.rho.values - carried[1])))
        assert worst < 1e-8


class TestOrderOfAccuracy:
    def test_rk4_is_fourth_order(self):
        g = SpectralGrid(64)
        x = g.nodes
        params = ModelParams(a=2.0, alpha=0.8, kappa=1.0)
        st0 = EulerianState(
            helmholtz_apply(Field(g, 1.2 * np.cos(x))),
            Field(g, 1.0 + 0.4 * np.sin(x)),
            0.8,
        )

        def final(dt):
            out = run(st0, params, 0.5, control=StepControl(dt=dt), snapshot_every=0.5)
            assert out.status == STATUS_COMPLETED
            return final_velocity(out)

        ref = final(1e-4)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        assert 12.0 < errs[0] / errs[1] < 21.0
        assert 12.0 < errs[1] / errs[2] < 21.0

    def test_adaptive_tracks_reference(self):
        g = SpectralGrid(64)
        x = g.nodes
        params = ModelParams(a=2.0, alpha=0.8, kappa=1.0)
        st0 = EulerianState(
            helmholtz_apply(Field(g, 1.2 * np.cos(x))),
            Field(g, 1.0 + 0.4 * np.sin(x)),
            0.8,
        )
        ref = run(st0, params, 0.5, control=StepControl(dt=1e-4), snapshot_every=0.5)
        ada = run(
            st0,
            params,
            0.5,
            control=StepControl(dt=1e-3, abs_tol=1e-10, rel_tol=1e-10),
            stepper="adaptive",
            snapshot_every=0.5,
        )
        assert ada.status == STATUS_COMPLETED
        diff = np.max(np.abs(final_velocity(ada) - final_velocity(ref)))
        assert diff < 1e-8


class TestRunOrchestration:
    def test_completes_at_exact_horizon(self):
        out = run(smooth_state(), PARAMS, 1.0, control=StepControl(dt=1e-3))
        assert out.status == STATUS_COMPLETED
        assert out.t_final == 1.0
        assert out.trajectory[-1][0] == 1.0

    def test_snapshot_cadence_with_commensurate_dt(self):
        out = run(
            smooth_state(), PARAMS, 1.0, control=StepControl(dt=1e-3), snapshot_every=0.25
        )
        times = [t for t, _ in out.trajectory]
        assert len(times) == 5
        assert times[0] == 0.0
        for got, want in zip(times, (0.0, 0.25, 0.5, 0.75, 1.0)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_snapshot_cadence_with_awkward_dt(self):
        out = run(
            smooth_state(),
            PARAMS,
            0.5,
            control=StepControl(dt=3e-3),
            snapshot_every=0.2,
        )
        times = [t for t, _ in out.trajectory]
        assert times[0] == 0.0
        assert times[-1] == 0.5
        assert all(b > a for a, b in zip(times, times[1:]))
        # 0.2 and 0.4 fall inside steps and are read off the RK4 extension
        assert times[1:3] == [0.2, 0.4]

    def test_diagnostics_align_with_trajectory(self):
        out = run(
            smooth_state(), PARAMS, 0.4, control=StepControl(dt=1e-3), snapshot_every=0.1
        )
        assert len(out.diagnostics) == len(out.trajectory)
        for (t, _), rec in zip(out.trajectory, out.diagnostics):
            assert rec.t == t

    def test_constant_state_is_fixed_point(self):
        g = SpectralGrid(32)
        st = EulerianState(constant_field(g, 0.3), constant_field(g, 1.2), 0.7)
        out = run(
            st,
            ModelParams(a=2.5, alpha=0.7, kappa=1.0),
            2.0,
            control=StepControl(dt=1e-2),
            snapshot_every=1.0,
        )
        fin = out.trajectory[-1][1]
        assert np.array_equal(fin.m.values, st.m.values)
        assert np.array_equal(fin.rho.values, st.rho.values)

    def test_rerun_is_bit_identical(self):
        first = run(
            smooth_state(), PARAMS, 0.3, control=StepControl(dt=1e-3), snapshot_every=0.1
        )
        second = run(
            smooth_state(), PARAMS, 0.3, control=StepControl(dt=1e-3), snapshot_every=0.1
        )
        for (t1, s1), (t2, s2) in zip(first.trajectory, second.trajectory):
            assert t1 == t2
            assert np.array_equal(s1.m.values, s2.m.values)
            assert np.array_equal(s1.rho.values, s2.rho.values)

    def test_adaptive_rerun_is_bit_identical(self):
        kw = dict(control=StepControl(dt=1e-3), stepper="adaptive", snapshot_every=0.1)
        first = run(smooth_state(), PARAMS, 0.3, **kw)
        second = run(smooth_state(), PARAMS, 0.3, **kw)
        assert first.status == second.status == STATUS_COMPLETED
        assert [t for t, _ in first.trajectory] == [t for t, _ in second.trajectory]
        assert np.array_equal(final_velocity(first), final_velocity(second))

    def test_lagrangian_trajectory_is_fixed_frame(self):
        out = run(
            smooth_state(),
            PARAMS,
            0.1,
            control=StepControl(dt=1e-2),
            formulation="lagrangian",
            snapshot_every=0.05,
        )
        assert out.status == STATUS_COMPLETED
        assert len(out.trajectory) == 3
        assert all(isinstance(state, EulerianState) for _, state in out.trajectory)

    def test_snapshot_count_is_bounded(self):
        # every multiple is recorded, so this would ask for 1e16 snapshots
        with pytest.raises(ValueError, match="too small"):
            run(
                smooth_state(n=16),
                PARAMS,
                1.0,
                control=StepControl(dt=0.25),
                snapshot_every=1e-16,
            )

    def test_lagrangian_run_accepts_eulerian_initial_data(self):
        out = run(
            smooth_state(),
            PARAMS,
            0.2,
            control=StepControl(dt=1e-3),
            formulation="lagrangian",
            snapshot_every=0.1,
        )
        assert out.status == STATUS_COMPLETED
        assert out.diagnostics[-1].lemma_deviation is not None
        assert out.diagnostics[-1].lemma_deviation < 1e-10

    def test_formulations_agree_on_short_runs(self):
        st = smooth_state(n=128, amp=0.4)
        kw = dict(control=StepControl(dt=1e-3), snapshot_every=0.1)
        e_out = run(st, PARAMS, 0.1, **kw)
        l_out = run(st, PARAMS, 0.1, formulation="lagrangian", **kw)
        diff = np.max(np.abs(final_velocity(e_out) - final_velocity(l_out)))
        assert diff < 1e-8

    def test_tracked_flowmap_populates_lemma_column(self):
        out = run(
            smooth_state(),
            PARAMS,
            0.2,
            control=StepControl(dt=1e-3),
            track_flowmap=True,
            snapshot_every=0.1,
        )
        assert out.status == STATUS_COMPLETED
        assert all(isinstance(state, EulerianState) for _, state in out.trajectory)
        dev = out.diagnostics[-1].lemma_deviation
        assert dev is not None
        # the co-advected map is resolution limited at n=64, so the bar
        # here is loose; the tight bound lives with the flow-map runs
        assert dev < 1e-5

    def test_tracking_leaves_the_adaptive_steps_alone(self):
        kw = dict(control=StepControl(dt=1e-3), stepper="adaptive", snapshot_every=0.1)
        plain = run(smooth_state(amp=1.2), PARAMS, 1.0, **kw)
        tracked = run(smooth_state(amp=1.2), PARAMS, 1.0, track_flowmap=True, **kw)
        assert (tracked.status, tracked.t_final) == (plain.status, plain.t_final)
        assert len(tracked.trajectory) == len(plain.trajectory) == 11
        for (t1, s1), (t2, s2) in zip(plain.trajectory, tracked.trajectory):
            assert t1 == t2
            assert np.array_equal(s1.m.values, s2.m.values)
            assert np.array_equal(s1.rho.values, s2.rho.values)

    def test_plain_eulerian_leaves_lemma_column_empty(self):
        out = run(smooth_state(), PARAMS, 0.2, control=StepControl(dt=1e-3))
        assert all(rec.lemma_deviation is None for rec in out.diagnostics)

    def test_time_reversal_roundtrip(self):
        st0 = smooth_state()
        T = 0.5
        fwd = run(st0, PARAMS, T, control=StepControl(dt=1e-3), snapshot_every=T)
        half = run(st0, PARAMS, T, control=StepControl(dt=5e-4), snapshot_every=T)
        est = np.max(np.abs(final_velocity(fwd) - final_velocity(half)))

        end = fwd.trajectory[-1][1]
        neg = EulerianState(-end.m, -end.rho, -end.alpha)
        params_neg = ModelParams(a=2.0, alpha=-0.5, kappa=1.0)
        back = run(neg, params_neg, T, control=StepControl(dt=1e-3), snapshot_every=T)
        u_back = -final_velocity(back)
        defect = np.max(np.abs(u_back - st0.velocity().values))
        assert defect < 10.0 * est + 1e-12


class TestDenseOutput:
    """Snapshots inside a step come from the stepper's continuous extension."""

    @staticmethod
    def compare_data():
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, 0.8 * np.cos(g.nodes))), constant_field(g, 1.0), 0.8
        )
        return st, ModelParams(a=2.0, alpha=0.8, kappa=1.0)

    @pytest.mark.parametrize(
        "b", [(1 / 6, 1 / 3, 1 / 3, 1 / 6), _dop853.A[12] + (0.0,) * 4], ids=["rk4", "dopri"]
    )
    def test_weights_at_the_step_end_are_the_step(self, b):
        table = timestepper._DENSE[len(b)]
        assert np.max(np.abs(timestepper._weights(table, 1.0) - np.array(b))) < 1e-15
        assert np.all(timestepper._weights(table, 0.0) == 0.0)

    @pytest.mark.parametrize("theta", [0.13, 0.5, 0.77, 1.0])
    def test_rk4_weights_are_the_order_3_closed_form(self, theta):
        # Hairer, Norsett & Wanner I, II.6: b1, b2 = b3 and b4 as cubics in theta
        b2 = theta**2 - 2 * theta**3 / 3
        want = (theta - 1.5 * theta**2 + 2 * theta**3 / 3, b2, b2, -0.5 * theta**2 + 2 * theta**3 / 3)
        got = timestepper._weights(timestepper._DENSE[4], theta)
        assert np.max(np.abs(got - np.array(want))) < 1e-15

    @pytest.mark.parametrize("formulation", ["eulerian", "lagrangian"])
    def test_adaptive_snapshots_land_on_the_multiples(self, formulation):
        out = run(
            smooth_state(),
            PARAMS,
            0.5,
            formulation=formulation,
            stepper="adaptive",
            snapshot_every=0.1,
        )
        assert out.status == STATUS_COMPLETED
        times = [t for t, _ in out.trajectory]
        assert times == [0.0] + [k * 0.1 for k in range(1, 5)] + [0.5]
        assert [rec.t for rec in out.diagnostics] == times

    @pytest.mark.parametrize("stepper", ["rk4", "adaptive"])
    def test_no_multiple_is_dropped_inside_long_steps(self, stepper, monkeypatch):
        attempt = timestepper._dopri_attempt
        accepted = []

        def counted_attempt(*args, **kwargs):
            out = attempt(*args, **kwargs)
            if out[0] is not None:
                accepted.append(args[4])
            return out

        monkeypatch.setattr(timestepper, "_dopri_attempt", counted_attempt)
        out = run(
            smooth_state(),
            PARAMS,
            0.2,
            control=StepControl(dt=0.05, abs_tol=1e-4, rel_tol=1e-4),
            stepper=stepper,
            snapshot_every=0.01,
        )
        assert out.status == STATUS_COMPLETED
        assert [t for t, _ in out.trajectory] == [k * 0.01 for k in range(20)] + [0.2]
        if stepper == "adaptive":
            assert min(accepted) > 0.01

    @pytest.mark.parametrize("stepper, dt, bound", [("rk4", 3e-3, 1e-9), ("adaptive", 1e-3, 1e-8)])
    def test_interpolated_snapshots_match_a_fine_reference(self, stepper, dt, bound):
        st, params = self.compare_data()
        kw = dict(snapshot_every=0.1)
        ref = run(st, params, 0.5, control=StepControl(dt=1e-4), **kw)
        out = run(st, params, 0.5, control=StepControl(dt=dt), stepper=stepper, **kw)
        assert out.status == ref.status == STATUS_COMPLETED
        assert [t for t, _ in out.trajectory] == [t for t, _ in ref.trajectory]
        for (_, got), (_, want) in zip(out.trajectory[1:-1], ref.trajectory[1:-1]):
            assert np.max(np.abs(got.velocity().values - want.velocity().values)) < bound


class TestIntegrate:
    def test_run_takes_the_parameters_of_integrate(self):
        # run forwards its arguments, so the two cannot drift apart
        assert inspect.signature(run).parameters == inspect.signature(integrate).parameters

    @staticmethod
    def collect(steps):
        snapshots = []
        while True:
            try:
                snapshots.append(next(steps))
            except StopIteration as done:
                return snapshots, done.value

    @pytest.mark.parametrize("case", ["tracked-adaptive", "flowmap-rk4-mesh"])
    def test_generator_agrees_with_run(self, case):
        if case == "tracked-adaptive":
            initial, T, status = smooth_state(), 0.5, STATUS_COMPLETED
            options = dict(stepper="adaptive", track_flowmap=True)
        else:
            # the flow map of u0 = -sin x compresses below MESH_FLOOR near t = 1.22
            g = SpectralGrid(64)
            u0 = Field(g, -np.sin(g.nodes))
            initial = EulerianState(helmholtz_apply(u0), constant_field(g, 0.0), 0.0)
            T, status = 3.0, STATUS_MESH
            options = dict(formulation="lagrangian")
        options["snapshot_every"] = 0.1
        params = ModelParams(a=2.0, alpha=initial.alpha, kappa=1.0)
        control = StepControl(dt=2e-3)
        out = run(initial, params, T, control=control, **options)
        snapshots, end = self.collect(integrate(initial, params, T, control=control, **options))
        assert out.status == status
        assert end == replace(out, trajectory=(), diagnostics=())
        assert len(snapshots) == len(out.trajectory) == len(out.diagnostics)
        for (t, state, record), (t_run, state_run), record_run in zip(
            snapshots, out.trajectory, out.diagnostics
        ):
            assert t == t_run
            assert np.array_equal(state.m.coeffs, state_run.m.coeffs)
            assert np.array_equal(state.rho.coeffs, state_run.rho.coeffs)
            assert state.alpha == state_run.alpha
            assert repr(record) == repr(record_run)  # repr keeps every bit, nan included


class TestFailureMonitors:
    def test_slope_threshold_triggers_blowup_status(self):
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, -np.sin(g.nodes))),
            constant_field(g, 0.0),
            0.0,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            2.5,
            control=StepControl(dt=2e-3, max_ux=8.0),
            formulation="lagrangian",
            stepper="adaptive",
            snapshot_every=0.05,
        )
        assert out.status == STATUS_BLOWUP
        assert out.t_final < 2.5
        assert "slope criterion" in out.message
        assert out.diagnostics[-1].max_ux > 8.0

    def test_mesh_monitor_trips_on_compression(self):
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, -np.sin(g.nodes))),
            constant_field(g, 0.0),
            0.0,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            3.0,
            control=StepControl(dt=2e-3),
            track_flowmap=True,
            snapshot_every=0.1,
        )
        assert out.status == STATUS_MESH
        assert out.t_final < 3.0
        assert "mesh criterion" in out.message

    def test_tracked_map_that_folds_reports_mesh(self):
        # steps of 0.5 under u0 = -sin x fold the tracked map between two
        # accepted steps (min phi_x < 0), which no stage of RK4 notices
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, -np.sin(g.nodes))),
            constant_field(g, 1.0),
            0.0,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            3.0,
            control=StepControl(dt=0.5),
            track_flowmap=True,
        )
        assert out.status == STATUS_MESH
        assert out.t_final == 2.0
        assert "mesh criterion crossed" in out.message
        assert float(out.message.split("min phi_x = ")[1].split()[0]) < 0.0
        # (m, rho) are still well defined, so the final snapshot is kept;
        # only the transported invariant is lost with the folded map
        assert out.trajectory[-1][0] == out.t_final
        assert out.diagnostics[-1].t == out.t_final
        assert out.diagnostics[-1].lemma_deviation is None
        assert out.diagnostics[-2].lemma_deviation is not None

    @pytest.mark.parametrize("stepper, t_end", [("rk4", 1.218), ("adaptive", 1.2175)])
    def test_compressed_flow_map_keeps_its_terminal_view(self, stepper, t_end):
        # the flow map compresses until min phi_x < 1e-3; the run must still
        # record its last snapshot.  Its values are not checked: by then the
        # grid has lost the solution, and the a=2 energy, 2 pi at t=0, reads
        # 20 to 70 whichever way the view is computed.
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, -np.sin(g.nodes))),
            constant_field(g, 0.0),
            0.0,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            3.0,
            control=StepControl(dt=2e-3),
            formulation="lagrangian",
            stepper=stepper,
        )
        assert out.status == STATUS_MESH
        assert out.t_final == pytest.approx(t_end, abs=1e-3)
        t, view = out.trajectory[-1]
        assert t == out.diagnostics[-1].t == out.t_final
        for field in (view.velocity(), view.rho, view.m):
            assert np.all(np.isfinite(field.values))

    def test_step_collapse_reports_blowup(self):
        # an unreachable tolerance forces a rejection whose shrunk suggestion
        # lands under dt_min, so the run must stop before any step is taken
        out = run(
            smooth_state(),
            PARAMS,
            1.0,
            control=StepControl(dt=1e-3, abs_tol=1e-300, rel_tol=0.0, dt_min=9e-4),
            stepper="adaptive",
        )
        assert out.status == STATUS_BLOWUP
        assert "collapsed" in out.message
        assert out.t_final == 0.0
        assert len(out.trajectory) == 1

    def test_non_finite_attempt_is_rejected_until_the_step_collapses(self):
        # at sup u = 1e150 the stages overflow, so every attempt's error is
        # not finite and the step shrinks until it falls below dt_min.  The
        # overflow is what is tested, so its RuntimeWarnings, which the test
        # configuration turns into errors, are silenced.
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, 1e150 * np.sin(g.nodes))),
            constant_field(g, 1.0),
            0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            out = run(
                st,
                ModelParams(a=2.0, alpha=0.0, kappa=1.0),
                1.0,
                control=StepControl(dt=1e-3),
                stepper="adaptive",
            )
        assert out.status == STATUS_BLOWUP
        assert out.message == (
            "step size collapsed below dt_min=1e-12 at t=0; slope criterion presumed exceeded"
        )
        assert out.t_final == 0.0
        assert len(out.trajectory) == 1

    def test_non_finite_slope_is_not_reported_as_an_inequality(self):
        # kappa = 1e308 sends one RK4 step into nan; its RuntimeWarnings,
        # which the test configuration turns into errors, are silenced
        g = SpectralGrid(64)
        u = cosine_mode(g, 1, 0.05)
        st = EulerianState(helmholtz_apply(u), constant_field(g, 1.0), 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            out = run(st, ModelParams(a=2.0, kappa=1e308), 0.1)
        assert out.status == STATUS_BLOWUP
        assert out.message == "slope criterion exceeded: max |u_x| is not finite at t=0.001"

    @pytest.mark.parametrize(
        "stepper, dt_min, phrase, formulation",
        [
            pytest.param(
                "rk4",
                1e-12,
                "degenerated during the step",
                "lagrangian",
                id="rk4-1e-12-degenerated during the step",
            ),
            pytest.param(
                "adaptive",
                0.2,
                "while the flow map degenerated",
                "lagrangian",
                id="adaptive-0.2-while the flow map degenerated",
            ),
            pytest.param(
                "rk4",
                1e-12,
                "degenerated during the step",
                "eulerian",
                id="tracked-rk4-1e-12-degenerated during the step",
            ),
            pytest.param(
                "adaptive",
                0.2,
                "while the flow map degenerated",
                "eulerian",
                id="tracked-adaptive-0.2-while the flow map degenerated",
            ),
        ],
    )
    def test_map_breakdown_inside_a_step_reports_mesh(
        self, stepper, dt_min, phrase, formulation
    ):
        # a step of 0.5 under u0 = -5 sin x folds the flow map before the
        # step ends; RK4 stops at once, the adaptive stepper once its
        # shrunk step falls below dt_min.  An Eulerian run folds its
        # tracked map the same way.
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, -5.0 * np.sin(g.nodes))),
            constant_field(g, 1.0),
            0.0,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            1.0,
            control=StepControl(dt=0.5, dt_min=dt_min),
            formulation=formulation,
            stepper=stepper,
            track_flowmap=formulation == "eulerian",
        )
        assert out.status == STATUS_MESH
        assert phrase in out.message
        assert out.t_final == 0.0
        assert len(out.trajectory) == 1

    @staticmethod
    def folding_flowmap_run(u0, snapshot_every=0.1):
        g = SpectralGrid(32)
        st = EulerianState(helmholtz_apply(Field(g, u0(g.nodes))), constant_field(g, 1.0), 0.0)
        return run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            2.0,
            control=StepControl(dt=0.04),
            formulation="lagrangian",
            snapshot_every=snapshot_every,
        )

    def test_fold_at_a_snapshot_inside_a_step_ends_at_the_step_start(self):
        # the step from t = 1.28 starts and ends with phi_x > 0 (min 1.03e-2
        # and 9.09e-2), but its continuous extension at the snapshot t = 1.3
        # has folded (min phi_x = -5.50e-2): the run ends at 1.28, with every
        # earlier multiple of 0.1 recorded and a terminal snapshot at 1.28
        out = self.folding_flowmap_run(lambda x: -1.5 * np.sin(x))
        assert out.status == STATUS_MESH
        assert out.t_final == pytest.approx(1.28, abs=1e-12)
        assert out.message.startswith("flow map degenerated during the step from t=1.28: ")
        times = [t for t, _ in out.trajectory]
        assert times == [k * 0.1 for k in range(13)] + [out.t_final]
        assert [rec.t for rec in out.diagnostics] == times

    def test_fold_in_the_extension_stages_ends_at_the_step_start(self, monkeypatch):
        # the first step, from 0 to 0.1, holds the snapshot at 0.05: the 14th
        # right-hand side is the first of its extension's three, and a fold
        # there ends the run at the step's start, as inside an RK4 step
        spray = timestepper.spray_rhs
        calls = []

        def folding_spray(*args):
            calls.append(1)
            if len(calls) == 14:
                raise NonDiffeomorphismError("folded")
            return spray(*args)

        monkeypatch.setattr(timestepper, "spray_rhs", folding_spray)
        out = run(
            smooth_state(),
            PARAMS,
            0.5,
            control=StepControl(dt=0.1),
            formulation="lagrangian",
            stepper="adaptive",
            snapshot_every=0.05,
        )
        assert out.status == STATUS_MESH
        assert out.message == "flow map degenerated during the step from t=0: folded"
        assert out.t_final == 0.0
        assert [t for t, _ in out.trajectory] == [0.0]

    def test_step_ending_on_a_snapshot_records_its_state_once(self):
        # 32 steps of 0.04 put the clock at 1.2800000000000005, where the
        # snapshot at 1.28 is read off the end state; the next step folds, and
        # that state, already recorded, is not recorded again at t_final
        out = self.folding_flowmap_run(lambda x: -1.5 * np.sin(x), snapshot_every=0.01)
        assert out.status == STATUS_MESH
        assert out.t_final == 1.2800000000000005
        times = [t for t, _ in out.trajectory]
        assert times == [k * 0.01 for k in range(129)]
        assert [rec.t for rec in out.diagnostics] == times

    def test_terminal_state_beyond_diagnosing_is_not_recorded(self):
        # the mesh monitor stops the run at t = 0.48 with min phi_x = -2.183e-3:
        # that state cannot be viewed, so the last snapshot stays at t = 0.4
        out = self.folding_flowmap_run(lambda x: -2.25 * np.sin(x) + 0.5 * np.cos(2 * x))
        assert out.status == STATUS_MESH
        assert out.t_final == pytest.approx(0.48, abs=1e-12)
        assert out.message == "mesh criterion crossed: min phi_x = -2.183e-03 at t=0.48"
        assert [t for t, _ in out.trajectory] == [k * 0.1 for k in range(5)]
        assert len(out.diagnostics) == 5

    def test_small_data_sails_through(self):
        g = SpectralGrid(64)
        st = EulerianState(
            helmholtz_apply(Field(g, -1e-3 * np.sin(g.nodes))),
            constant_field(g, 0.0),
            0.0,
        )
        out = run(
            st,
            ModelParams(a=2.0, alpha=0.0, kappa=1.0),
            5.0,
            control=StepControl(dt=1e-3, max_ux=8.0),
            formulation="lagrangian",
            stepper="adaptive",
            snapshot_every=0.5,
        )
        assert out.status == STATUS_COMPLETED
        assert out.t_final == 5.0


class TestValidation:
    def test_bad_stepper_name(self):
        with pytest.raises(ValueError):
            run(smooth_state(), PARAMS, 0.1, stepper="euler")

    def test_bad_formulation_name(self):
        with pytest.raises(ValueError):
            run(smooth_state(), PARAMS, 0.1, formulation="hybrid")

    def test_track_flowmap_needs_eulerian(self):
        with pytest.raises(ValueError):
            run(
                smooth_state(),
                PARAMS,
                0.1,
                formulation="lagrangian",
                track_flowmap=True,
            )

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            run(smooth_state(), PARAMS, 0.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon(self, T):
        with pytest.raises(ValueError):
            run(smooth_state(), PARAMS, T)

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(dt=0.0)
        with pytest.raises(ValueError):
            StepControl(dt=1e-3, dt_min=-1.0)
        with pytest.raises(ValueError):
            StepControl(dt=1e-3, abs_tol=-1.0)
        # NaN fails every comparison, so it must not slip through as "not negative"
        for key, value in [
            ("abs_tol", np.nan),
            ("rel_tol", np.nan),
            ("max_ux", np.nan),
            ("max_ux", 0.0),
        ]:
            with pytest.raises(ValueError):
                StepControl(dt=1e-3, **{key: value})
        # with no tolerance at all every adaptive attempt would be rejected
        with pytest.raises(ValueError):
            StepControl(dt=1e-3, abs_tol=0.0, rel_tol=0.0)

    def test_adaptive_dt_below_dt_min(self):
        # the first attempt would already count as a collapse, a false breakdown
        control = StepControl(dt=1e-13)
        with pytest.raises(ValueError, match="below dt_min"):
            run(smooth_state(), PARAMS, 0.1, control=control, stepper="adaptive")
        # RK4 reads no dt_min
        assert run(smooth_state(), PARAMS, 2e-12, control=control).status == STATUS_COMPLETED

    def test_control_is_frozen(self):
        # the checks run once, at construction; a later dt = 0 would never end a run
        control = StepControl()
        with pytest.raises(FrozenInstanceError):
            control.dt = 0.0

    @pytest.mark.parametrize(
        "initial, formulation",
        [("field", "eulerian"), ("field", "lagrangian"), ("flow map", "eulerian")],
    )
    def test_initial_state_type_is_checked_before_its_alpha(self, initial, formulation):
        # a Field has no alpha: the type check must come first
        state = Field(SpectralGrid(16), np.zeros(16)) if initial == "field" else curved_lagrangian()
        with pytest.raises(TypeError, match=f"{formulation} run needs an? [A-Z]"):
            run(state, PARAMS, 0.1, formulation=formulation)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
    def test_rk4_step_needs_a_positive_step(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            rk4_step(smooth_state(), PARAMS, dt)
