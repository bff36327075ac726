"""Fourier collocation toolkit on the periodic interval [0, 2*pi).

Real scalar fields live on a uniform grid of n nodes (n even) and carry
lazily cached one-sided Fourier coefficients, the np.fft.rfft modes
k = 0 .. n/2; the modes -k are their conjugates.  Differential operators
are diagonal Fourier multipliers, so they are exact on band-limited data.
The grid owns the 2/3 rule: products keep the modes k <= ``grid.cutoff``
= floor(n/3), and :func:`dealias` and both right-hand sides zero the rest;
being linear, it truncates a sum of products on ``.values`` once.
``Field * Field`` is undefined so that every product is dealiased.  The
right-hand sides that the time steppers call skip ``Field`` and work on
rfft rows with the same multiplier tables, and :func:`sobolev_sq` gives
every H^s norm by Parseval from those modes.  The grid holds the
velocity form's input table too: one product takes the modes of (m,
rho, disp) to those of (u, u_x, rho, rho_x, disp, disp_x).

Odd multipliers (the derivative and the smoothing derivative ``A^{-1} D``)
zero the Nyquist mode: that slot has no conjugate partner, and keeping it
would break the skew symmetry the conservation checks rely on.  Off-grid
evaluation uses the trigonometric interpolant with the Nyquist term read
as a pure cosine, which is the unique real interpolant of minimal band.
Every path from an m-point layout to an n-point one keeps that rule: going
up, the m-point Nyquist mode is halved and shared by +m/2 and -m/2; going
down, +n/2 and -n/2 alias into the one n-point mode, which doubles it.
It sums the series directly, O(n) per point, from one table per set of
points: about 2 sqrt(n/2) rows of powers of z = cos p + i sin p, built in
O(sqrt(n)) vector steps (baby-step/giant-step).  A sum or its adjoint, the
modes of a function sampled at the points, is one matrix product on it.
With the change of variables z = phi(y) the adjoint gives the modes of
w o phi^{-1} from samples at the nodes, so neither
:meth:`_SeriesAt.conjugated` (adjoint sum, multiplier and series sum fused
in one pass) nor the fixed-frame view of a flow map
(``lagrangian.to_eulerian``) inverts phi.
"""

import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class GridMismatchError(ValueError):
    """Raised when an operation mixes fields from different grids."""


class NonDiffeomorphismError(ValueError):
    """Raised when a map that must preserve orientation fails to."""


@dataclass(unsafe_hash=True)
class SpectralGrid:
    """Uniform collocation grid x_j = 2*pi*j/n with its wavenumber table.

    The wavenumbers are those of the rfft layout, k = 0 .. n/2, the last
    being the Nyquist mode.  Multiplier tables for the derivative, the
    Helmholtz operator A = 1 - D^2 and the smoothing derivative A^{-1} D
    are precomputed once per grid on the same layout.  Equality, hashing
    and the repr read n alone.
    """

    n: int

    def __post_init__(self):
        try:
            n = self.n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"grid size must be an integer, got {self.n!r}") from None
        if n % 2 != 0 or n < 8:
            raise ValueError(f"grid size must be even and at least 8, got {n}")
        self.spacing = TWO_PI / n
        self.nodes = np.arange(n) * self.spacing
        self.nodes.setflags(write=False)
        k = np.arange(n // 2 + 1)
        self.wavenumbers = k
        self.wavenumbers.setflags(write=False)
        kf = k.astype(float)
        self._helmholtz_mult = 1.0 + kf * kf
        ik = 1j * kf
        ik[-1] = 0.0
        self._deriv_mult = ik
        self._ainv_d_mult = ik / self._helmholtz_mult
        self.cutoff = n // 3
        # velocity form: (u, u_x) from m, (f, f_x) from rho and a displacement
        h, ones = self._helmholtz_mult, np.ones_like(kf)
        self._uform_in = np.array([[1.0 / h, self._ainv_d_mult], [ones, ik], [ones, ik]])

    def integrate(self, values) -> float:
        """Trapezoid quadrature over the period (spectral accuracy)."""
        return float(np.sum(values) * self.spacing)


class Field:
    """Real periodic function: nodal samples plus cached rfft coefficients.

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
        c = np.array(coeffs, dtype=complex)  # a copy: neither follows nor keeps coeffs
        c.setflags(write=False)
        f._coeffs = c
        vals = np.fft.irfft(c, grid.n)
        vals.setflags(write=False)
        f._values = vals
        return f

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        """The rfft modes c_k = sum_j f(x_j) exp(-i k x_j), k = 0 .. n/2."""
        if self._coeffs is None:
            c = np.fft.rfft(self._values)
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
    out[-1] = 0.0
    return Field._from_coeffs(grid, out)


def dealias(f: Field) -> Field:
    """Zero every mode with |k| > grid.cutoff (2/3-rule truncation)."""
    kept = f.coeffs.copy()
    kept[f.grid.cutoff + 1 :] = 0.0
    return Field._from_coeffs(f.grid, kept)


def sobolev_sq(grid: SpectralGrid, hat: np.ndarray, s: int) -> float:
    """Squared H^s norm, (2*pi/n^2) sum_k (1 + k^2)^s |c_k|^2, from rfft modes.

    Parseval over the full band k = -n/2+1 .. n/2: each mode 0 < k < n/2
    stands for itself and its conjugate, so it counts twice.
    """
    power = grid._helmholtz_mult**s * np.abs(hat) ** 2
    return float(grid.spacing / grid.n * (2.0 * power.sum() - power[0] - power[-1]))


class _SeriesAt:
    """Sums the Fourier series of real fields on an n-point grid at fixed points.

    Baby-step/giant-step evaluation (Paterson & Stockmeyer, SIAM J. Comput.
    2, 1973).  With B a power of two near sqrt(n/2), mode k = a*B + b + 1
    factors as z^(a*B+1) * z^b.  One contiguous table holds the baby rows
    z^0 .. z^(B-1) and the G = ceil((n/2)/B) giant rows z^(a*B+1), each row
    one in-place product of the row before; the points need no wrapping.
    The modes k = 1 .. G*B as a (G, B) block h give sum_k h_k z^k as the
    column sums of (h @ baby) * giant, and the adjoint sum is
    (giant * q) @ baby^T.  It is still exact direct summation; G*B > n/2
    (n = 10, 30, ...) pads the modes with zeros.  The points are not reduced
    mod 2*pi: that rounds each by up to ulp(2*pi), which mode k multiplies by k.
    """

    __slots__ = ("n", "baby", "giant")

    def __init__(self, n: int, pts: np.ndarray):
        half = n // 2
        width = 1 << (half.bit_length() // 2)
        table = np.empty((width - (-half // width), pts.size), dtype=complex)  # B + G rows
        table[0] = 1.0
        np.cos(pts, out=table[1].real)
        np.sin(pts, out=table[1].imag)
        for row in range(2, width):
            np.multiply(table[row - 1], table[1], out=table[row])
        step = table[width - 1] * table[1]  # z^B
        table[width] = table[1]
        for row in range(width + 1, len(table)):
            np.multiply(table[row - 1], step, out=table[row])
        self.n, self.baby, self.giant = n, table[:width], table[width:]

    def _sum(self, h: np.ndarray) -> np.ndarray:
        """(2/n) Re sum_k h_k z^k from h_k, k = 1 .. n/2."""
        if (pad := len(self.giant) * len(self.baby) - h.size) > 0:
            h = np.concatenate([h, np.zeros(pad)])
        inner = h.reshape(-1, len(self.baby)) @ self.baby
        inner *= self.giant
        return (2.0 / self.n) * inner.sum(axis=0).real

    def _adjoint(self, q: np.ndarray) -> np.ndarray:
        """sum_j q_j z_j^k for k = 1 .. n/2."""
        return ((self.giant * q) @ self.baby.T).ravel()[: self.n // 2]

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        """The series of a real field from its one-sided modes.

        Uses conjugate symmetry: f = c_0 + 2 Re sum_{k=1}^{n/2} c_k z^k with
        the Nyquist term halved, which reads it as a pure cosine.
        """
        h = coeffs[1:].copy()
        h[-1] *= 0.5
        return coeffs[0].real / self.n + self._sum(h)

    def modes(self, q: np.ndarray) -> np.ndarray:
        """One-sided modes c_k = sum_j q_j exp(-i k p_j), k = 0 .. n/2, for real q."""
        out = np.empty(self.n // 2 + 1, dtype=complex)
        out[0] = np.sum(q)
        np.conjugate(self._adjoint(q), out=out[1:])
        return out

    def conjugated(self, q: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """self(self.modes(q) * mult) for a mult that zeroes k = 0 and n/2, which
        drops the c_0 term and the Nyquist halving."""
        h = np.conjugate(self._adjoint(q))
        h *= mult[1:]
        return self._sum(h)


def require_orientation(phi_x: np.ndarray) -> np.ndarray:
    """phi_x itself; raises NonDiffeomorphismError unless positive at every node."""
    low = float(np.min(phi_x))
    if low <= 0.0:
        raise NonDiffeomorphismError(f"map derivative reaches {low:.3e} <= 0 at a node")
    return phi_x


class DiffeoMap:
    """Orientation-preserving circle map phi(x) = x + displacement(x).

    The displacement is a periodic Field; phi lifts to a strictly
    increasing map of the line commuting with x -> x + 2*pi.  The nodal
    derivative phi_x must be positive, checked at construction.
    """

    __slots__ = ("displacement", "deriv_values")

    def __init__(self, displacement: Field):
        self.displacement = displacement
        self.deriv_values = require_orientation(1.0 + derivative(displacement).values)
        self.deriv_values.setflags(write=False)

    @classmethod
    def identity(cls, grid: SpectralGrid) -> "DiffeoMap":
        return cls(Field(grid, np.zeros(grid.n)))

    @property
    def grid(self) -> SpectralGrid:
        return self.displacement.grid

    def is_identity(self) -> bool:
        return not np.any(self.displacement.values)


def compose(f: Field, phi: DiffeoMap) -> Field:
    """Pullback f o phi, sampled on the grid of f."""
    f._require_same_grid(phi.displacement)
    if phi.is_identity():
        return f
    images = f.grid.nodes + phi.displacement.values
    return Field(f.grid, _SeriesAt(f.grid.n, images)(f.coeffs))
