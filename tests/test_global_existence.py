"""The global-existence regime: the steep data of criterion 8 over a positive density.

With rho0 = 0 the data u0 = -sin x break near t = 1.2 (criterion 8).  With
rho0 > 0 the transport law keeps sigma * phi_x^(a-1) = rho0, so while sigma
stays bounded the flow map cannot fold; that is the mechanism of global
existence for two-component Camassa-Holm systems with a nonvanishing density
(Constantin & Ivanov, Phys. Lett. A 372, 2008).  These tests pin the
converged Eulerian runs on rho0 = 0.5 to T = 6: they stay smooth and
positive, and the two grids agree.  They do not check the paper's criterion
itself.
"""

import numpy as np
import pytest

from shearwave import (
    STATUS_COMPLETED,
    EulerianState,
    Field,
    ModelParams,
    SpectralGrid,
    StepControl,
    constant_field,
    helmholtz_apply,
    run,
)

T = 6.0
GRIDS = (256, 512)


@pytest.fixture(scope="module")
def outcomes():
    """The Eulerian runs on u0 = -sin x, rho0 = 0.5 (a = 2, alpha = 0) per grid size."""
    params = ModelParams(a=2.0, alpha=0.0, kappa=1.0)
    control = StepControl(dt=1e-3, max_ux=30.0)
    runs = {}
    for n in GRIDS:
        g = SpectralGrid(n)
        initial = EulerianState(
            helmholtz_apply(Field(g, -np.sin(g.nodes))), constant_field(g, 0.5), 0.0
        )
        runs[n] = run(initial, params, T, control, "eulerian", 0.05, "adaptive")
    return runs


@pytest.mark.parametrize("n", GRIDS)
def test_run_completes_smooth_with_positive_density(outcomes, n):
    out = outcomes[n]
    assert out.status == STATUS_COMPLETED and out.t_final == T
    assert len(out.trajectory) == 121
    assert min(float(np.min(state.rho.values)) for _, state in out.trajectory) > 0.0
    # criterion 8's data without the density cross max|u_x| = 30 by t = 1.23
    assert max(record.max_ux for record in out.diagnostics) < 6.0


def test_grids_agree_at_the_final_time(outcomes):
    coarse, fine = (outcomes[n].trajectory[-1][1].velocity().values for n in GRIDS)
    assert float(np.max(np.abs(coarse - fine[::2]))) < 1e-2  # measured 5.0e-3
