"""Fourier collocation toolkit on the periodic interval [0, 2*pi).

Real scalar fields live on a uniform grid of n nodes (n even) and carry
lazily cached Fourier coefficients.  Differential operators are diagonal
Fourier multipliers, so they are exact on band-limited data.  The 2/3-rule
truncation is linear, so a sum of products formed on ``.values`` goes
through :func:`dealias` once.  ``Field * Field`` is undefined so that every
product is dealiased.

Odd multipliers (the derivative and the smoothing derivative ``A^{-1} D``)
zero the Nyquist mode: that slot has no conjugate partner, and keeping it
would break the skew symmetry the conservation checks rely on.  Off-grid
evaluation uses the trigonometric interpolant with the Nyquist term read
as a pure cosine, which is the unique real interpolant of minimal band.
It sums the series directly, O(n) per point, from two power tables of
about sqrt(n/2) columns per set of points (baby-step/giant-step), so
building the tables costs O(sqrt(n)) vector steps rather than O(n).  The
same tables give the adjoint sum, the modes of a function sampled at
those points, which lets :func:`conjugated_ainv_d` work without phi^{-1}.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


class GridMismatchError(ValueError):
    """Raised when an operation mixes fields from different grids."""


class NonDiffeomorphismError(ValueError):
    """Raised when a map that must preserve orientation fails to."""


class InversionError(RuntimeError):
    """Raised when the Newton solve for a map inverse does not converge."""


class SpectralGrid:
    """Uniform collocation grid x_j = 2*pi*j/n with its wavenumber table.

    The wavenumbers follow FFT storage order with the Nyquist slot taken
    as +n/2, i.e. k ranges over {-n/2+1, ..., n/2}.  Multiplier tables for
    the derivative, the Helmholtz operator A = 1 - D^2 and the smoothing
    derivative A^{-1} D are precomputed once per grid.
    """

    def __init__(self, n: int):
        if n % 2 != 0 or n < 8:
            raise ValueError(f"grid size must be even and at least 8, got {n}")
        self.n = n
        self.spacing = TWO_PI / n
        self.nodes = np.arange(n) * self.spacing
        self.nodes.setflags(write=False)
        k = (np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
        k[n // 2] = n // 2
        self.wavenumbers = k
        self.wavenumbers.setflags(write=False)
        kf = k.astype(float)
        self._helmholtz_mult = 1.0 + kf * kf
        ik = 1j * kf
        ik[n // 2] = 0.0
        self._deriv_mult = ik
        self._ainv_d_mult = ik / self._helmholtz_mult
        self._keep = np.abs(k) <= n // 3

    def __eq__(self, other):
        return isinstance(other, SpectralGrid) and other.n == self.n

    def __hash__(self):
        return hash(("SpectralGrid", self.n))

    def __repr__(self):
        return f"SpectralGrid(n={self.n})"

    def integrate(self, values) -> float:
        """Trapezoid quadrature over the period (spectral accuracy)."""
        return float(np.sum(values) * self.spacing)


class Field:
    """Real periodic function: nodal samples plus cached coefficients.

    Immutable.  Supports addition, subtraction, negation and scalar
    multiplication; pointwise products are formed on ``.values`` and
    truncated by :func:`dealias`.
    """

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid: SpectralGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} samples, got shape {values.shape}")
        self.grid = grid
        self._values = values.copy()
        self._values.setflags(write=False)
        self._coeffs = None

    @classmethod
    def _from_coeffs(cls, grid: SpectralGrid, coeffs: np.ndarray) -> "Field":
        f = cls.__new__(cls)
        f.grid = grid
        vals = np.fft.ifft(coeffs).real
        vals.setflags(write=False)
        f._values = vals
        c = np.asarray(coeffs, dtype=complex)
        c.setflags(write=False)
        f._coeffs = c
        return f

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = np.fft.fft(self._values)
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    def _require_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatchError(
                f"fields live on different grids: n={self.grid.n} vs n={other.grid.n}"
            )

    def __add__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        self._require_same_grid(other)
        return Field(self.grid, self._values + other._values)

    def __sub__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        self._require_same_grid(other)
        return Field(self.grid, self._values - other._values)

    def __neg__(self):
        return Field(self.grid, -self._values)

    def __mul__(self, scalar):
        if isinstance(scalar, Field):
            raise TypeError("form products on .values and truncate them with dealias")
        return Field(self.grid, self._values * float(scalar))

    __rmul__ = __mul__

    def linf(self) -> float:
        return float(np.max(np.abs(self._values)))


def derivative(f: Field) -> Field:
    """Spectral derivative; the Nyquist mode is dropped."""
    return Field._from_coeffs(f.grid, f.coeffs * f.grid._deriv_mult)


def helmholtz_apply(f: Field) -> Field:
    """Apply A = 1 - D^2 through the multiplier 1 + k^2."""
    return Field._from_coeffs(f.grid, f.coeffs * f.grid._helmholtz_mult)


def helmholtz_invert(f: Field) -> Field:
    """Apply A^{-1} through the multiplier 1/(1 + k^2)."""
    return Field._from_coeffs(f.grid, f.coeffs / f.grid._helmholtz_mult)


def ainv_d(f: Field) -> Field:
    """Smoothing derivative A^{-1} D, multiplier i*k/(1 + k^2)."""
    return Field._from_coeffs(f.grid, f.coeffs * f.grid._ainv_d_mult)


def ainv_d_factored(f: Field) -> Field:
    """A^{-1} D via the factorization A = (1 - D)(1 + D).

    Computes (1/2)[(1 - D)^{-1} - (1 + D)^{-1}] f, which agrees with the
    direct multiplier route mode by mode.  Kept as an independent code
    path so the two can be cross-checked.  The Nyquist mode is zeroed to
    match the convention of :func:`ainv_d`.
    """
    grid = f.grid
    ik = 1j * grid.wavenumbers.astype(float)
    out = 0.5 * (f.coeffs / (1.0 - ik) - f.coeffs / (1.0 + ik))
    out[grid.n // 2] = 0.0
    return Field._from_coeffs(grid, out)


def dealias(f: Field) -> Field:
    """Zero every mode with |k| > n/3 (2/3-rule truncation)."""
    c = f.coeffs.copy()
    c[~f.grid._keep] = 0.0
    return Field._from_coeffs(f.grid, c)


_EVAL_BLOCK = 8192


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """Columns w^0 .. w^(count-1), built by cumulative products."""
    P = np.empty((w.size, count), dtype=complex)
    P[:, 0] = 1.0
    for k in range(1, count):
        P[:, k] = P[:, k - 1] * w
    return P


class _SeriesAt:
    """Sums the Fourier series of real fields on an n-point grid at fixed points.

    Baby-step/giant-step evaluation (Paterson & Stockmeyer, SIAM J. Comput.
    2, 1973).  With z = exp(i x) and B a power of two near sqrt(n/2), mode
    k = a*B + b + 1 factors as z^(a*B+1) * z^b.  Two tables, z^0 .. z^(B-1)
    and z^(a*B+1) for a < ceil((n/2)/B), take the place of all n/2 powers:
    a sum is one matrix product with the first and a row-wise product-sum
    with the second.  It is still exact direct summation.  The adjoint sum
    (:meth:`modes`) is one more matrix product on the same two tables.
    """

    __slots__ = ("n", "baby", "giant")

    def __init__(self, n: int, pts: np.ndarray):
        half = n // 2
        self.n = n
        z = np.exp(1j * pts)
        self.baby = _powers(z, 1 << (half.bit_length() // 2))
        giants = -(-half // self.baby.shape[1])
        self.giant = z[:, None] * _powers(self.baby[:, -1] * z, giants)

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        """The series of a real field from its one-sided modes.

        Uses conjugate symmetry: f = c_0 + 2 Re sum_{k=1}^{n/2} c_k z^k with
        the Nyquist term halved, which reads it as a pure cosine.
        """
        n, half = self.n, self.n // 2
        width = self.baby.shape[1]
        h = np.zeros(self.giant.shape[1] * width, dtype=complex)
        h[:half] = coeffs[1 : half + 1] / n
        h[half - 1] *= 0.5
        inner = self.baby @ h.reshape(-1, width).T
        return coeffs[0].real / n + 2.0 * np.einsum("ij,ij->i", self.giant, inner).real

    def modes(self, q: np.ndarray) -> np.ndarray:
        """One-sided modes c_k = sum_j q_j exp(-i k p_j), k = 0 .. n/2, for real q.

        The conjugate transpose of the series sum: entry (a, b) of
        (q * giant)^T baby is sum_j q_j z_j^(a*B+b+1), so its first n/2
        entries read row by row are the modes k = 1 .. n/2.
        """
        half = self.n // 2
        out = np.empty(half + 1, dtype=complex)
        out[0] = np.sum(q)
        out[1:] = np.conj((q[:, None] * self.giant).T @ self.baby).ravel()[:half]
        return out


def evaluate_at(f: Field, points) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Direct summation of the Fourier series, O(n) per point: per block of
    points, two power tables of about sqrt(n/2) columns each and one
    matrix product (see :class:`_SeriesAt`).  The Nyquist term enters as a
    cosine, so the result is real for real fields and reproduces the
    nodal values at the nodes.
    """
    pts = np.mod(np.asarray(points, dtype=float), TWO_PI)
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    out = np.empty(pts.size)
    for i in range(0, pts.size, _EVAL_BLOCK):
        block = pts[i : i + _EVAL_BLOCK]
        out[i : i + _EVAL_BLOCK] = _SeriesAt(f.grid.n, block)(f.coeffs)
    return float(out[0]) if scalar else out


class DiffeoMap:
    """Orientation-preserving circle map phi(x) = x + displacement(x).

    The displacement is a periodic Field; phi lifts to a strictly
    increasing map of the line commuting with x -> x + 2*pi.  The nodal
    derivative phi_x must be positive, checked at construction.
    """

    __slots__ = ("displacement", "deriv_values")

    def __init__(self, displacement: Field):
        self.displacement = displacement
        dv = 1.0 + derivative(displacement).values
        dv.setflags(write=False)
        self.deriv_values = dv
        if float(np.min(dv)) <= 0.0:
            raise NonDiffeomorphismError(
                f"map derivative reaches {np.min(dv):.3e} <= 0 at a node"
            )

    @classmethod
    def identity(cls, grid: SpectralGrid) -> "DiffeoMap":
        return cls(Field(grid, np.zeros(grid.n)))

    @property
    def grid(self) -> SpectralGrid:
        return self.displacement.grid

    def node_images(self) -> np.ndarray:
        """phi(x_j) for all nodes, not wrapped."""
        return self.grid.nodes + self.displacement.values

    def min_deriv(self) -> float:
        return float(np.min(self.deriv_values))

    def is_identity(self) -> bool:
        return not np.any(self.displacement.values)


def compose(f: Field, phi: DiffeoMap) -> Field:
    """Pullback f o phi, sampled on the grid of f."""
    f._require_same_grid(phi.displacement)
    if phi.is_identity():
        return f
    return Field(f.grid, evaluate_at(f, phi.node_images()))


def conjugated_ainv_d(phi: DiffeoMap, w: Field) -> Field:
    """R_phi o (A^{-1} D) o R_{phi^-1} applied to w, without phi^{-1}.

    Substituting z = phi(y) in the Fourier integral of w o phi^{-1} gives
    its modes as c_k = sum_j w(x_j) phi_x(x_j) exp(-i k phi(x_j)): the
    trapezoid rule on a smooth periodic integrand, so spectrally accurate.
    After the multiplier i k/(1 + k^2) (Nyquist and k = 0 zeroed, as in
    :func:`ainv_d`) the series is summed back at the same points phi(x_j).
    Both sums share one :class:`_SeriesAt`.
    """
    w._require_same_grid(phi.displacement)
    if phi.is_identity():
        return ainv_d(w)
    grid = w.grid
    series = _SeriesAt(grid.n, np.mod(phi.node_images(), TWO_PI))
    modes = series.modes(w.values * phi.deriv_values)
    return Field(grid, series(modes * grid._ainv_d_mult[: grid.n // 2 + 1]))


def invert_diffeo(phi: DiffeoMap, tol: float = 1e-12, max_iter: int = 50) -> DiffeoMap:
    """Inverse map, solved nodewise by safeguarded Newton iteration.

    Each target node is bracketed between adjacent images of grid nodes
    (a cell of width 2*pi/n), then refined by Newton steps that fall back
    to bisection whenever they would leave the bracket or the local
    derivative is too small.  Converges to |phi(y) - x| < tol.
    """
    if phi.is_identity():
        return phi
    grid = phi.grid
    n = grid.n
    x = grid.nodes
    images = x + phi.displacement.values
    ext = np.append(images, images[0] + TWO_PI)
    if np.any(np.diff(ext) <= 0.0):
        raise NonDiffeomorphismError("nodal images are not strictly increasing")

    # shift each target into the principal window [phi(x_0), phi(x_0) + 2*pi)
    targets = x - TWO_PI * np.floor((x - images[0]) / TWO_PI)
    idx = np.searchsorted(images, targets, side="right") - 1
    nodes_ext = np.append(x, TWO_PI)
    lo = nodes_ext[idx].copy()
    hi = nodes_ext[idx + 1].copy()
    f_lo = images[idx]
    f_hi = ext[idx + 1]
    y = lo + (hi - lo) * (targets - f_lo) / (f_hi - f_lo)

    disp_c = phi.displacement.coeffs
    slope_c = phi.displacement.coeffs * grid._deriv_mult
    converged = False
    for _ in range(max_iter):
        series = _SeriesAt(n, np.mod(y, TWO_PI))
        resid = y + series(disp_c) - targets
        done = np.abs(resid) < tol
        if np.all(done):
            converged = True
            break
        # a converged node keeps y and its bracket: its Newton candidate
        # would sit on a bracket end and be bisected away from the root
        above = resid > 0.0
        hi = np.where(above & ~done, y, hi)
        lo = np.where(above | done, lo, y)
        slope = 1.0 + series(slope_c)
        with np.errstate(divide="ignore", invalid="ignore"):
            candidate = y - resid / slope
        bad = (
            (slope < 1e-8)
            | ~np.isfinite(candidate)
            | (candidate <= lo)
            | (candidate >= hi)
        )
        y = np.where(done, y, np.where(bad, 0.5 * (lo + hi), candidate))
    if not converged:
        raise InversionError(
            f"map inversion stalled at residual {np.max(np.abs(resid)):.3e}"
        )
    return DiffeoMap(Field(grid, y - targets))
