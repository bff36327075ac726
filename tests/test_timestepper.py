"""Fixed and adaptive stepping, run orchestration, and failure monitors."""

import numpy as np
import pytest

from shearwave import (
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_MESH,
    EulerianState,
    Field,
    ModelParams,
    SpectralGrid,
    StepControl,
    adaptive_step,
    constant_field,
    derivative,
    from_eulerian,
    helmholtz_apply,
    rhs_u_form,
    rk4_step,
    run,
    spray_rhs,
)
from shearwave import timestepper
from shearwave.timestepper import _make_scheme


def smooth_state(n=64, amp=0.6, alpha=0.5):
    g = SpectralGrid(n)
    x = g.nodes
    u0 = Field(g, amp * np.cos(x) + 0.2 * amp * np.sin(2 * x))
    rho0 = Field(g, 1.0 + 0.3 * np.cos(x))
    return EulerianState(helmholtz_apply(u0), rho0, alpha)


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
        out = rhs_u_form(g, hat, 0.5, PARAMS)
        assert out.shape == (len(rows), g.n // 2 + 1)
        assert calls["fft"] == calls["ifft"] == 0
        assert calls["rfft"] + calls["irfft"] <= 2

    def test_spray_makes_no_complex_transform(self, calls):
        g = SpectralGrid(64)
        x = g.nodes
        rows = np.stack([0.1 * np.sin(x), 0.7 * np.cos(x), 1.0 + 0.3 * np.sin(x)])
        out = spray_rhs(g, rows, 0.5, PARAMS)
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
    """The Eulerian scheme carries the rfft modes of its rows."""

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

        rho_x = derivative(st.rho).values
        expect = l2(st.m.values) + np.sqrt(g.integrate(st.rho.values**2 + rho_x**2))
        if tracked:
            expect += l2(np.fft.irfft(vec[2], g.n))
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


class TestFirstSameAsLast:
    def test_attempts_after_the_first_make_six_rhs_calls(self, monkeypatch):
        rhs = timestepper.rhs_u_form
        attempt = timestepper._dopri_attempt
        rhs_calls = []
        accepted = []

        def counted_rhs(*args):
            rhs_calls.append(1)
            return rhs(*args)

        def counted_attempt(*args, **kwargs):
            out = attempt(*args, **kwargs)
            accepted.append(out[0] is not None)
            return out

        monkeypatch.setattr(timestepper, "rhs_u_form", counted_rhs)
        monkeypatch.setattr(timestepper, "_dopri_attempt", counted_attempt)
        # dt = 0.5 is far too long for the tolerance, so the first attempts fail
        out = run(
            smooth_state(),
            PARAMS,
            0.5,
            control=StepControl(dt=0.5),
            stepper="adaptive",
            track_flowmap=True,
        )
        assert out.status == STATUS_COMPLETED
        assert not all(accepted) and any(accepted)
        assert len(rhs_calls) == 6 * len(accepted) + 1


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
        "table, b",
        [(timestepper._RK4_DENSE, (1 / 6, 1 / 3, 1 / 3, 1 / 6)), (timestepper._DP_DENSE, timestepper._DP_B5)],
        ids=["rk4", "dopri"],
    )
    def test_weights_at_the_step_end_are_the_step(self, table, b):
        unit = list(np.eye(len(b)))
        weights = timestepper._dense(table, np.zeros(len(b)), unit, 1.0, 1.0)
        assert np.max(np.abs(weights - np.array(b))) < 1e-15

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
                accepted.append(args[3])
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
