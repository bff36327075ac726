"""Time integration: fixed-step RK4, an embedded 4(5) pair, and run().

Both formulations advance through the same machinery.  A scheme object
packs a state into one array and evaluates on it the right-hand side,
the norm ||m||_L2 + ||rho||_H1 (with the natural flow-map analogue) and
the breakdown monitors.  The Eulerian scheme packs the rfft modes of the
rows (m, rho), plus the displacement when the flow map is tracked, so
its norm is a Parseval sum and its monitors make one irfft.  The
flow-map scheme packs the nodal rows (disp, v, sigma): its off-grid
series sums take and return nodal values, so modes would save no
transform there.  Fields are built only by unpack(), for the single-step
entry points, and by view(), which turns a snapshot into its fixed-frame
EulerianState and transported invariant; run() records that view for
either formulation, so a flow-map run converts to the fixed frame once per
snapshot, by a series sum that needs no inverse map.
The scheme holds the vorticity alpha and copies it into every state.

One Dormand-Prince attempt function holds the step-size controller for
both adaptive_step() and run(); run() passes each attempt's reusable
stage to the next (first same as last), six right-hand sides an attempt.
run() drives either stepper to time T, records snapshots on a simulated
time cadence, and reads two breakdown monitors off the state after every
accepted step: the slope criterion max|u_x| > max_ux (wave breaking
happens iff the slope blows up, so exceeding the threshold is reported
as a detected criterion, not as a fact about the PDE solution), and for
a tracked or flow-map run the mesh criterion min phi_x < 1e-3, which a
folded map also crosses.  Under the adaptive stepper a collapse of dt
below dt_min is reported the same way.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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


@dataclass
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
    trajectory: tuple
    diagnostics: tuple
    message: str = ""


# ---------------------------------------------------------------------------
# schemes: pack/unpack plus the norm and monitors for each formulation


class _EulerianScheme:
    """The rfft modes of the rows (m, rho), plus the displacement when tracked.

    The tracked map starts at the identity and follows phi_t = u o phi.
    It is diagnostic only: it feeds the transport-invariant drift column
    and the same mesh-degeneracy monitor as a flow-map run, and unpack()
    leaves it out.
    """

    def __init__(self, grid, alpha, params: ModelParams, tracked):
        self.grid = grid
        self.alpha = alpha
        self.params = params
        self.tracked = tracked

    def pack(self, state: EulerianState) -> np.ndarray:
        zeros = [np.zeros(self.grid.n)] if self.tracked else []
        return np.fft.rfft(np.stack([state.m.values, state.rho.values, *zeros]))

    def unpack(self, vec: np.ndarray) -> EulerianState:
        # copies, so that the Fields neither follow vec nor keep it alive
        m, rho = (Field._from_coeffs(self.grid, row.copy()) for row in vec[:2])
        return EulerianState(m, rho, self.alpha)

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        return rhs_u_form(self.grid, vec, self.alpha, self.params)

    def norm(self, vec: np.ndarray) -> float:
        grid = self.grid
        total = math.sqrt(sobolev_sq(grid, vec[0], 0)) + math.sqrt(sobolev_sq(grid, vec[1], 1))
        if self.tracked:
            total += math.sqrt(sobolev_sq(grid, vec[2], 0))
        return total

    def monitors(self, vec: np.ndarray):
        """(min phi_x, or None when untracked; max |u_x|)."""
        grid = self.grid
        rows = vec[0::2]  # m, and the displacement when tracked: A^{-1} D and D
        u_x, *disp_x = np.fft.irfft(grid._uform_in[0::2, 1][: len(rows)] * rows, grid.n)
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
            phi = DiffeoMap(Field._from_coeffs(self.grid, vec[2].copy()))
        except NonDiffeomorphismError:
            return state, None
        return state, transported_density_invariant(state.rho, phi, self.params.a)


class _LagrangianScheme:
    """Rows (disp, v, sigma) of the flow map phi = x + disp and its velocities."""

    def __init__(self, grid, alpha, params: ModelParams):
        self.grid = grid
        self.alpha = alpha
        self.params = params

    def pack(self, state: LagrangianState) -> np.ndarray:
        rows = [state.phi.displacement, state.v, state.sigma]
        return np.concatenate([row.values for row in rows])

    def unpack(self, vec: np.ndarray) -> LagrangianState:
        disp, v, sigma = (Field(self.grid, row) for row in vec.reshape(3, -1))
        return LagrangianState(DiffeoMap(disp), v, sigma, self.alpha)

    def rhs(self, vec: np.ndarray) -> np.ndarray:
        return spray_rhs(self.grid, vec.reshape(3, -1), self.alpha, self.params).ravel()

    def norm(self, vec: np.ndarray) -> float:
        grid = self.grid
        rows = vec.reshape(3, grid.n)
        v_hat, sigma_hat = np.fft.rfft(rows[1:])
        return (
            math.sqrt(sobolev_sq(grid, v_hat, 2))  # ||A v||_L2
            + math.sqrt(sobolev_sq(grid, sigma_hat, 1))
            + math.sqrt(grid.integrate(rows[0] * rows[0]))
        )

    def monitors(self, vec: np.ndarray):
        """(min phi_x, max |u_x|); u_x o phi = v_x / phi_x has the same sup."""
        grid = self.grid
        rows = vec.reshape(3, grid.n)
        disp_x, v_x = np.fft.irfft(grid._deriv_mult * np.fft.rfft(rows[:2]), grid.n)
        phi_x = 1.0 + disp_x
        return float(np.min(phi_x)), float(np.max(np.abs(v_x / phi_x)))

    def view(self, vec: np.ndarray):
        """(the fixed-frame state, the invariant sigma * phi_x^(a-1))."""
        state = self.unpack(vec)
        return to_eulerian(state), lemma_invariant(state, self.params.a)


def _formulation_of(state) -> str:
    return "lagrangian" if isinstance(state, LagrangianState) else "eulerian"


def _make_scheme(initial, params, formulation, track_flowmap=False):
    """The scheme for a run and the initial state packed by it."""
    if formulation == "eulerian":
        if not isinstance(initial, EulerianState):
            raise TypeError("eulerian run needs an EulerianState initial condition")
        scheme = _EulerianScheme(initial.m.grid, initial.alpha, params, track_flowmap)
        return scheme, scheme.pack(initial)
    if isinstance(initial, EulerianState):
        initial = from_eulerian(initial)
    if not isinstance(initial, LagrangianState):
        raise TypeError("lagrangian run needs a LagrangianState initial condition")
    scheme = _LagrangianScheme(initial.v.grid, initial.alpha, params)
    return scheme, scheme.pack(initial)


# ---------------------------------------------------------------------------
# steppers on packed arrays


def _rk4(scheme, vec, dt):
    k1 = scheme.rhs(vec)
    k2 = scheme.rhs(vec + 0.5 * dt * k1)
    k3 = scheme.rhs(vec + 0.5 * dt * k2)
    k4 = scheme.rhs(vec + dt * k3)
    return vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4): the fifth-order result propagates, the embedded
# fourth-order difference drives the step-size controller.
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))

_SAFETY = 0.9
_SHRINK = 0.2
_GROW = 5.0


def _dopri_attempt(scheme, vec, control: StepControl, dt: float, k1=None):
    """One embedded 4(5) attempt of size dt from the packed state vec.

    Returns (new, dt_next, breakdown, k_next).  new is the packed
    fifth-order result, or None when the attempt is rejected.  breakdown
    is the flow-map error that cut the attempt short, or None.  k1 is the
    right-hand side at vec if known; k_next is k1 after a rejection and the
    last stage after an acceptance, whose argument is new bit for bit.
    """
    ks = [k1]
    try:
        ks[0] = scheme.rhs(vec) if k1 is None else k1
        for row in _DP_A[1:]:
            stage = vec
            for a_ij, k in zip(row, ks):
                if a_ij != 0.0:
                    stage = stage + dt * a_ij * k
            ks.append(scheme.rhs(stage))
    except NonDiffeomorphismError as exc:
        return None, dt * _SHRINK, exc, ks[0]
    new = vec
    err_vec = np.zeros_like(vec)
    for b, e, k in zip(_DP_B5, _DP_ERR, ks):
        if b != 0.0:
            new = new + dt * b * k
        if e != 0.0:
            err_vec = err_vec + dt * e * k
    err = scheme.norm(err_vec)
    if not (math.isfinite(err) and np.all(np.isfinite(new))):
        return None, dt * _SHRINK, None, ks[0]
    tol = control.abs_tol + control.rel_tol * scheme.norm(vec)
    ratio = math.inf if err == 0.0 else tol / err
    factor = min(_GROW, max(_SHRINK, _SAFETY * ratio**0.2))
    if err > tol:
        return None, dt * factor, None, ks[0]
    return new, dt * factor, None, ks[-1]


def _collapse_message(control: StepControl, t: float, breakdown) -> str:
    text = f"step size collapsed below dt_min={control.dt_min:g} at t={t:.6f}"
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
    return scheme.unpack(_rk4(scheme, vec, dt))


def adaptive_step(state, params: ModelParams, control: StepControl):
    """One embedded 4(5) attempt.

    Returns (state, next_dt, accepted).  On rejection the state comes
    back unchanged.  next_dt may fall below control.dt_min; interpreting
    that as a blow-up suspicion is the caller's job (run() does).
    """
    scheme, vec = _make_scheme(state, params, _formulation_of(state))
    new, dt_next, _, _ = _dopri_attempt(scheme, vec, control, control.dt)
    if new is None:
        return state, dt_next, False
    return scheme.unpack(new), dt_next, True


# ---------------------------------------------------------------------------
# integration to time T


def check_run_options(T, snapshot_every, stepper, formulation, track_flowmap) -> None:
    """Raise ValueError for run() options that no initial state makes valid."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if not snapshot_every > 0.0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    if not T / snapshot_every < math.inf:
        raise ValueError(f"snapshot_every={snapshot_every} is too small for T={T}")
    if stepper not in ("rk4", "adaptive"):
        raise ValueError(f"stepper must be rk4 or adaptive, got {stepper!r}")
    if formulation not in ("eulerian", "lagrangian"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if track_flowmap and formulation != "eulerian":
        raise ValueError("track_flowmap applies to eulerian runs only")


def run(
    initial,
    params: ModelParams,
    T: float,
    control: Optional[StepControl] = None,
    formulation: Optional[str] = None,
    snapshot_every: float = 0.1,
    stepper: str = "rk4",
    track_flowmap: bool = False,
) -> RunOutcome:
    """Integrate to time T, recording snapshots and diagnostics.

    Snapshots are taken at t = 0, at the first accepted step past every
    multiple of snapshot_every, and at the final time.  The trajectory
    holds (t, EulerianState) pairs for either formulation.  Identical
    inputs give bit-identical outcomes: the integration is deterministic
    and seeds nothing.  formulation defaults to that of the initial state.
    """
    formulation = formulation or _formulation_of(initial)
    check_run_options(T, snapshot_every, stepper, formulation, track_flowmap)
    control = StepControl() if control is None else control
    scheme, vec = _make_scheme(initial, params, formulation, track_flowmap)

    trajectory = []
    records = []
    lemma0 = None

    def observe(t, vec):
        nonlocal lemma0
        view, lemma = scheme.view(vec)
        if not trajectory:
            lemma0 = lemma
        dev = None
        if lemma is not None:
            dev = float(np.max(np.abs(lemma.values - lemma0.values)))
        slope = scheme.monitors(vec)[1]
        records.append(make_record(t, view, params, max_ux=slope, lemma_deviation=dev))
        trajectory.append((t, view))

    observe(0.0, vec)
    status = STATUS_COMPLETED
    message = ""
    t = 0.0
    next_snap = snapshot_every
    dt_next = control.dt
    k1 = None

    while t < T - _TEPS:
        dt_step = min(control.dt if stepper == "rk4" else dt_next, T - t)
        if stepper == "rk4":
            try:
                vec = _rk4(scheme, vec, dt_step)
            except NonDiffeomorphismError as exc:
                status = STATUS_MESH
                message = f"flow map degenerated during the step from t={t:.6f}: {exc}"
                break
            t += dt_step
        else:
            new, dt_next, breakdown, k1 = _dopri_attempt(scheme, vec, control, dt_step, k1)
            if new is not None:
                vec = new
                t += dt_step
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
            message = f"mesh criterion crossed: min phi_x = {mesh:.3e} at t={t:.6f}"
            break
        if not math.isfinite(slope) or slope > control.max_ux:
            status = STATUS_BLOWUP
            message = (
                f"slope criterion exceeded: max |u_x| = {slope:.6e} > "
                f"{control.max_ux:g} at t={t:.6f}"
            )
            break
        if t >= next_snap - _TEPS and t < T - _TEPS:
            observe(t, vec)
            # the next multiple past t: a loop of additions stalls once
            # snapshot_every is below half an ulp of next_snap
            next_snap = snapshot_every * (math.floor((t + _TEPS) / snapshot_every) + 1)

    if status == STATUS_COMPLETED:
        t = T
    if not trajectory or trajectory[-1][0] < t:
        try:
            observe(t, vec)
        except (NonDiffeomorphismError, FloatingPointError):
            pass  # the terminal state may be beyond diagnosing after a breakdown
    return RunOutcome(
        status=status,
        t_final=t,
        trajectory=tuple(trajectory),
        diagnostics=tuple(records),
        message=message,
    )
