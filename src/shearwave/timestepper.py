"""Time integration: fixed-step RK4, an embedded 8(5,3) pair, integrate() and run().

Both formulations advance through the same machinery.  A scheme object
packs a state into one array and evaluates on it the right-hand side,
the norm ||m||_L2 + ||rho||_H1 (with the natural flow-map analogue) and
the breakdown monitors.  Both schemes pack the rfft modes of their rows
as one (rows, n/2 + 1) array: the Eulerian (m, rho), plus the
displacement when the flow map is tracked, and the flow-map (disp, v,
sigma).  So each norm is a Parseval sum and the monitors make one
irfft.  Fields are built only by unpack(), for the single-step entry
points, and by view(), which turns a snapshot into its fixed-frame
EulerianState and transported invariant; a run records that view for
either formulation, so a flow-map run converts to the fixed frame once per
snapshot, by a series sum that needs no inverse map.
The scheme copies the vorticity params.alpha into every state.

Both steppers keep their stages in one stack per run, 4 rows for RK4 and
16 for DOP853, the 8(5,3) Dormand-Prince pair.  One DOP853 attempt holds
the step-size controller for adaptive_step() and integrate(), which copies
an accepted step's last stage to the first row (first same as last), twelve
right-hand sides an attempt.  integrate() drives either stepper to time T,
yields snapshots at multiples of a time interval, read off the continuous
extension of the step spanning them (RK4's of order 3; DOP853's of order 7,
with three more right-hand sides in a step that holds a snapshot), as it
records them, and returns the RunOutcome without its snapshots
(run() adds them).  It reads two breakdown monitors off the state after
every accepted step: the slope criterion max|u_x| > max_ux (wave breaking
happens iff the slope blows up, so exceeding the threshold is reported as a
detected criterion, not as a fact about the PDE solution), and for a tracked
or flow-map run the mesh criterion min phi_x < 1e-3, which a folded map also
crosses.  Under the adaptive stepper a collapse of dt below dt_min is
reported the same way.  A map that folds inside an RK4 step, in the
stages of DOP853's extension, or at a snapshot read off a step's
extension, ends the run at that step's start.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _dop853
from .diagnostics import lemma_invariant, make_record, transported_density_invariant
from .eulerian import EulerianState, rhs_u_form
from .lagrangian import LagrangianState, from_eulerian, spray_rhs, to_eulerian
from .model import ModelParams
from .spectral import DiffeoMap, Field, NonDiffeomorphismError, sobolev_sq

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blowup_detected"
STATUS_MESH = "mesh_degenerate"

MESH_FLOOR = 1e-3
_TEPS = 1e-12
_MAX_SNAPSHOTS = 10**6  # every multiple of snapshot_every below T is recorded


@dataclass(frozen=True)
class StepControl:
    """Step size and tolerances for the steppers and monitors."""

    dt: float = 1e-3
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    dt_min: float = 1e-12
    max_ux: float = 1e6

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0):
            raise ValueError("tolerances must be nonnegative")
        if not self.abs_tol + self.rel_tol > 0.0:
            raise ValueError("abs_tol and rel_tol must not both be zero")
        if not self.dt_min > 0.0:
            raise ValueError(f"dt_min must be positive, got {self.dt_min}")
        if not self.max_ux > 0.0:
            raise ValueError(f"max_ux must be positive, got {self.max_ux}")


@dataclass(frozen=True)
class RunOutcome:
    status: str
    t_final: float
    trajectory: tuple = ()
    diagnostics: tuple = ()
    message: str = ""


# ---------------------------------------------------------------------------
# schemes: pack/unpack plus the norm and monitors for each formulation


class _EulerianScheme:
    """The rfft modes of the rows (m, rho), plus the displacement when tracked.

    The tracked map starts at the identity and follows phi_t = u o phi.
    It is diagnostic only: it feeds the transport-invariant drift column
    and the same mesh-degeneracy monitor as a flow-map run, and neither
    unpack() nor the step-size norm reads it, so tracking leaves the
    adaptive steps and (m, rho) as they are untracked.
    """

    def __init__(self, grid, params: ModelParams, tracked):
        self.grid = grid
        self.params = params
        self.tracked = tracked

    def pack(self, state: EulerianState) -> np.ndarray:
        zeros = [np.zeros(self.grid.n)] if self.tracked else []
        return np.fft.rfft(np.stack([state.m.values, state.rho.values, *zeros]))

    def unpack(self, vec: np.ndarray) -> EulerianState:
        m, rho = (Field._from_coeffs(self.grid, row) for row in vec[:2])
        return EulerianState(m, rho, self.params.alpha)

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        return rhs_u_form(self.grid, vec, self.params)

    def norm(self, vec: np.ndarray) -> float:
        """||m||_L2 + ||rho||_H1, by Parseval."""
        return _row_norm_sum(self.grid, vec, (0, 1))

    def monitors(self, vec: np.ndarray):
        """(min phi_x, or None when untracked; max |u_x|)."""
        grid = self.grid
        rows = [grid._ainv_d_mult * vec[0]]  # u_x = A^{-1} D m
        if self.tracked:
            rows.append(grid._deriv_mult * vec[2])  # the displacement's slope, phi_x - 1
        u_x, *disp_x = np.fft.irfft(rows, grid.n)
        mesh = 1.0 + float(np.min(disp_x[0])) if self.tracked else None
        return mesh, float(np.max(np.abs(u_x)))

    def view(self, vec: np.ndarray):
        """(the state, the transported invariant or None).

        The invariant is None untracked or once the map has folded; (m, rho)
        stay well defined after a fold, so the snapshot is still recorded,
        without a lemma deviation.
        """
        state = self.unpack(vec)
        if not self.tracked:
            return state, None
        try:
            phi = DiffeoMap(Field._from_coeffs(self.grid, vec[2]))
        except NonDiffeomorphismError:
            return state, None
        return state, transported_density_invariant(state.rho, phi, self.params.a)


class _LagrangianScheme:
    """The rfft modes of the rows (disp, v, sigma) of the flow map phi = x + disp."""

    def __init__(self, grid, params: ModelParams):
        self.grid = grid
        self.params = params

    def pack(self, state: LagrangianState) -> np.ndarray:
        rows = [state.phi.displacement, state.v, state.sigma]
        return np.fft.rfft(np.stack([row.values for row in rows]))

    def unpack(self, vec: np.ndarray) -> LagrangianState:
        disp, v, sigma = (Field._from_coeffs(self.grid, row) for row in vec)
        return LagrangianState(DiffeoMap(disp), v, sigma, self.params.alpha)

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        return spray_rhs(self.grid, vec, self.params)

    def norm(self, vec: np.ndarray) -> float:
        """||disp||_L2 + ||A v||_L2 + ||sigma||_H1, by Parseval."""
        return _row_norm_sum(self.grid, vec, (0, 2, 1))

    def monitors(self, vec: np.ndarray):
        """(min phi_x, max |u_x|); u_x o phi = v_x / phi_x has the same sup."""
        disp_x, v_x = np.fft.irfft(self.grid._deriv_mult * vec[:2], self.grid.n)
        phi_x = 1.0 + disp_x
        return float(np.min(phi_x)), float(np.max(np.abs(v_x / phi_x)))

    def view(self, vec: np.ndarray):
        """(the fixed-frame state, the invariant sigma * phi_x^(a-1))."""
        state = self.unpack(vec)
        return to_eulerian(state), lemma_invariant(state.sigma, state.phi, self.params.a)


def _row_norm_sum(grid, vec, orders) -> float:
    """sum_i ||row i||_{H^orders[i]}, each by Parseval from its modes."""
    return sum(math.sqrt(sobolev_sq(grid, row, s)) for row, s in zip(vec, orders))


def _formulation_of(state) -> str:
    return "lagrangian" if isinstance(state, LagrangianState) else "eulerian"


def _make_scheme(initial, params, formulation, track_flowmap=False):
    """The scheme for a run and the initial state packed by it."""
    if formulation == "eulerian":
        if not isinstance(initial, EulerianState):
            raise TypeError("eulerian run needs an EulerianState initial condition")
        scheme = _EulerianScheme(initial.m.grid, params, track_flowmap)
    else:
        if isinstance(initial, EulerianState):
            initial = from_eulerian(initial)
        if not isinstance(initial, LagrangianState):
            raise TypeError("lagrangian run needs a LagrangianState initial condition")
        scheme = _LagrangianScheme(initial.v.grid, params)
    if initial.alpha != params.alpha:  # the scheme steps and returns params.alpha
        raise ValueError(f"state alpha {initial.alpha} differs from params.alpha {params.alpha}")
    return scheme, scheme.pack(initial)


# ---------------------------------------------------------------------------
# steppers on packed arrays


def _stage_stack(scheme, vec, stepper):
    """The stepper's stages for a run from vec: 4 rows for RK4; 16 for
    DOP853, whose first holds the right-hand side at vec."""
    if stepper == "rk4":
        return np.empty((4, *vec.shape), dtype=complex)
    ks = np.empty((16, *vec.shape), dtype=complex)
    ks[0] = scheme.rhs(vec)
    return ks


def _rk4(scheme, ks, vec, dt):
    ks[0] = scheme.rhs(vec)
    ks[1] = scheme.rhs(vec + 0.5 * dt * ks[0])
    ks[2] = scheme.rhs(vec + 0.5 * dt * ks[1])
    ks[3] = scheme.rhs(vec + dt * ks[2])
    return vec + (dt / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])


# DOP853, the 8(5,3) pair of Dormand and Prince (see _dop853): stage s takes
# the first s stages with the weights _A[s], stage 12 is taken at the
# eighth-order result, and stages 13-15 serve the continuous extension only.
_A = tuple(np.array(row) for row in _dop853.A)
_E5 = np.array(_dop853.E5)
_E3 = _A[12] - np.array(_dop853.BHH)

# Continuous extensions (Hairer, Norsett & Wanner I, II.6; dop853.f) by stage
# count: rows F0 (the step's weights), F1 = k1 - F0, F2, ... of weights on the
# stages nest as theta (F0 + (1-theta) (F1 + theta (F2 + ...))).  RK4's is of
# order 3; DOP853's of order 7, with F2 = 2 F0 - k1 - k13 and F3..F6 from D.
_B = np.concatenate([_A[12], np.zeros(4)])
_K1, _K13 = np.eye(16)[[0, 12]]
_DENSE = {
    4: np.array([[1, 2, 2, 1], [5, -2, -2, -1], [-4, 4, 4, -4]]) / 6,  # F0, k1 - F0, F2
    16: np.array([_B, _K1 - _B, 2.0 * _B - _K1 - _K13, *_dop853.D]),
}


def _combine(weights, ks):
    """sum_i weights[i] * ks[i], as one product over the stacked stages."""
    return (weights @ ks.reshape(len(ks), -1)).reshape(ks.shape[1:])


def _weights(table, theta):
    """The stage weights of the continuous extension with these rows at theta."""
    w = np.zeros(table.shape[1])
    for i in reversed(range(len(table))):
        w = (w + table[i]) * (theta if i % 2 == 0 else 1.0 - theta)
    return w


def _extension(scheme, start, ks, dt):
    """theta -> the state theta*dt into the step of size dt just accepted from start.

    ks holds that step's stages.  DOP853's three extension stages are taken
    here into its last rows, at three right-hand sides; a fold in them raises.
    """
    for s in range(13, len(ks)):
        ks[s] = scheme.rhs(start + dt * _combine(_A[s], ks[:s]))
    table = _DENSE[len(ks)]
    return lambda theta: start + dt * _combine(_weights(table, theta), ks)


_SAFETY = 0.9
_SHRINK = 0.2
_GROW = 5.0


def _dopri_attempt(scheme, ks, vec, control: StepControl, dt: float):
    """One DOP853 attempt of size dt from the packed state vec.

    ks is the stage stack, whose first row holds the right-hand side at
    vec; the attempt overwrites the next twelve.  Returns (new, dt_next,
    breakdown).  new is the packed eighth-order result, or None when the
    attempt is rejected.  breakdown is the flow-map error that cut the
    attempt short, or None.  After an acceptance ks[12] is the right-hand
    side at new, taken there bit for bit.
    """
    try:
        for s in range(1, 13):
            stage = vec + dt * _combine(_A[s], ks[:s])
            ks[s] = scheme.rhs(stage)
    except NonDiffeomorphismError as exc:
        return None, dt * _SHRINK, exc
    new = stage  # the thirteenth stage is taken at the eighth-order result
    e5 = scheme.norm(dt * _combine(_E5, ks[:12]))
    e3 = scheme.norm(dt * _combine(_E3, ks[:12]))
    err = 0.0 if e5 == 0.0 else e5 / math.hypot(1.0, 0.1 * e3 / e5)  # e5^2/sqrt(e5^2+e3^2/100)
    if not (math.isfinite(err) and np.all(np.isfinite(new))):
        return None, dt * _SHRINK, None
    tol = control.abs_tol + control.rel_tol * scheme.norm(vec)
    ratio = math.inf if err == 0.0 else tol / err
    factor = min(_GROW, max(_SHRINK, _SAFETY * ratio**0.125))
    return (None if err > tol else new), dt * factor, None


def _collapse_message(control: StepControl, t: float, breakdown) -> str:
    text = f"step size collapsed below dt_min={control.dt_min:g} at t={t:.6g}"
    if breakdown is not None:
        return f"{text} while the flow map degenerated: {breakdown}"
    return f"{text}; slope criterion presumed exceeded"


# ---------------------------------------------------------------------------
# public single-step entry points


def rk4_step(state, params: ModelParams, dt: float):
    """One classical RK4 step; alpha is copied unchanged."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    scheme, vec = _make_scheme(state, params, _formulation_of(state))
    return scheme.unpack(_rk4(scheme, _stage_stack(scheme, vec, "rk4"), vec, dt))


def adaptive_step(state, params: ModelParams, control: StepControl):
    """One embedded 8(5,3) attempt.

    Returns (state, next_dt, accepted).  On rejection the state comes
    back unchanged.  next_dt may fall below control.dt_min; interpreting
    that as a blow-up suspicion is the caller's job (run() does).
    """
    scheme, vec = _make_scheme(state, params, _formulation_of(state))
    ks = _stage_stack(scheme, vec, "adaptive")
    new, dt_next, _ = _dopri_attempt(scheme, ks, vec, control, control.dt)
    if new is None:
        return state, dt_next, False
    return scheme.unpack(new), dt_next, True


# ---------------------------------------------------------------------------
# integration to time T


def check_run_options(T, snapshot_every, stepper, formulation, track_flowmap, control) -> None:
    """Raise ValueError for run() options that no initial state makes valid."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if not snapshot_every > 0.0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    if not T / snapshot_every <= _MAX_SNAPSHOTS:
        raise ValueError(f"snapshot_every={snapshot_every} is too small for T={T}")
    if stepper not in ("rk4", "adaptive"):
        raise ValueError(f"stepper must be rk4 or adaptive, got {stepper!r}")
    if stepper == "adaptive" and control.dt < control.dt_min:  # a collapse at the first step
        raise ValueError(f"dt={control.dt:g} is below dt_min={control.dt_min:g}")
    if formulation not in ("eulerian", "lagrangian"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if track_flowmap and formulation != "eulerian":
        raise ValueError("track_flowmap applies to eulerian runs only")


def snapshot_times(T: float, snapshot_every: float):
    """The times after 0 that a run to T records: each multiple of
    snapshot_every below T, and T.

    A run that breaks down stops short and records its final time instead of T.
    """
    k = 1
    while (s := k * snapshot_every) < T - _TEPS:
        yield s
        k += 1
    yield T


def integrate(
    initial,
    params: ModelParams,
    T: float,
    control: Optional[StepControl] = None,
    formulation: Optional[str] = None,
    snapshot_every: float = 0.1,
    stepper: str = "rk4",
    track_flowmap: bool = False,
):
    """run() as a generator: yields (t, EulerianState, DiagnosticsRecord) as
    each snapshot is recorded and returns the RunOutcome without its snapshots.

    The snapshot times and the values are those of run(), which takes these
    arguments and collects this generator; it holds no snapshot once yielded.
    """
    formulation = formulation or _formulation_of(initial)
    control = StepControl() if control is None else control
    check_run_options(T, snapshot_every, stepper, formulation, track_flowmap, control)
    scheme, vec = _make_scheme(initial, params, formulation, track_flowmap)
    ks = _stage_stack(scheme, vec, stepper)
    lemma0 = None

    def observe(t, vec):
        nonlocal lemma0
        view, lemma = scheme.view(vec)
        if t == 0.0:  # the first snapshot; every later one is at t > 0
            lemma0 = lemma
        dev = None
        if lemma is not None:
            dev = float(np.max(np.abs(lemma.values - lemma0.values)))
        slope = scheme.monitors(vec)[1]
        return t, view, make_record(t, view, params, max_ux=slope, lemma_deviation=dev)

    yield observe(0.0, vec)
    t_recorded = 0.0
    status = STATUS_COMPLETED
    message = ""
    t = 0.0
    upcoming = snapshot_times(T, snapshot_every)
    s = next(upcoming)  # the next time to record
    dt_next = control.dt

    try:
        while t < T - _TEPS:
            dt = min(dt_next, T - t)  # only the adaptive branch changes dt_next
            t_prev, start = t, vec
            if stepper == "rk4":
                vec = _rk4(scheme, ks, vec, dt)
                t += dt
            else:
                new, dt_next, breakdown = _dopri_attempt(scheme, ks, vec, control, dt)
                if new is not None:
                    vec = new
                    t += dt
                if dt_next < control.dt_min and (new is None or t < T - _TEPS):
                    status = STATUS_MESH if breakdown is not None else STATUS_BLOWUP
                    message = _collapse_message(control, t, breakdown)
                    break
                if new is None:
                    continue

            # monitors run after every accepted step
            mesh, slope = scheme.monitors(vec)
            if mesh is not None and mesh < MESH_FLOOR:
                status = STATUS_MESH
                message = f"mesh criterion crossed: min phi_x = {mesh:.3e} at t={t:.6g}"
                break
            if not math.isfinite(slope) or slope > control.max_ux:
                status = STATUS_BLOWUP
                size = f"= {slope:.6e} > {control.max_ux:g}"
                if not math.isfinite(slope):
                    size = "is not finite"
                message = f"slope criterion exceeded: max |u_x| {size} at t={t:.6g}"
                break
            extension = None  # built at the step's first snapshot strictly inside it
            while s <= t + _TEPS:
                inside = s < t - _TEPS
                if inside and extension is None:
                    extension = _extension(scheme, start, ks, dt)
                yield observe(s, extension((s - t_prev) / dt) if inside else vec)
                t_recorded = s if inside else max(s, t)  # the end state counts as recorded
                s = next(upcoming, math.inf)
            if stepper == "adaptive":
                ks[0] = ks[12]  # first same as last: the next attempt's first stage
    except NonDiffeomorphismError as exc:
        # a fold inside an RK4 step, in DOP853's extension stages, or at a
        # snapshot read off a step's extension
        status = STATUS_MESH
        message = f"flow map degenerated during the step from t={t_prev:.6g}: {exc}"
        t, vec = t_prev, start

    if status == STATUS_COMPLETED:
        t = T
    end = RunOutcome(status, t, message=message)
    # off the schedule: a breakdown's own time, or a T too short for any step
    if t_recorded < t:
        try:
            final = observe(t, vec)
        except (NonDiffeomorphismError, FloatingPointError):
            return end  # the terminal state may be beyond diagnosing
        yield final
    return end


@functools.wraps(integrate, assigned=())
def run(*args, **kwargs) -> RunOutcome:
    """Integrate to time T, recording snapshots and diagnostics.

    Takes the arguments of integrate().  Snapshots are taken at t = 0, at
    every multiple of snapshot_every below the final time, read off the
    continuous extension of the step that spans it, and at the final time.
    The trajectory holds (t, EulerianState) pairs for either formulation.
    Identical inputs give bit-identical outcomes: the integration is
    deterministic and seeds nothing.  formulation defaults to that of the
    initial state.
    """
    steps = integrate(*args, **kwargs)
    trajectory = []
    records = []
    while True:
        try:
            t, view, record = next(steps)
        except StopIteration as done:
            return replace(done.value, trajectory=tuple(trajectory), diagnostics=tuple(records))
        trajectory.append((t, view))
        records.append(record)
