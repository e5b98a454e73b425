"""Periodic grids, fields, mollifiers, and spectral calculus.

Everything downstream works on a periodic box [0, L)^n, n in {1, 2}, with N
uniformly spaced nodes per axis.  Test data is kept in the central half of the
box so that compactly-supported arguments survive the torus truncation.

Derivatives are Fourier multipliers, convolutions are FFT products scaled by
the quadrature weight h^n, and the mollifier is the classic bump

    eta(x) = c * exp(-1 / (1 - |x|^2))   on |x| < 1,

rescaled to eta_eps(x) = eps^{-n} eta(x/eps) and renormalized so the *discrete*
integral is exactly 1 (this removes a spurious O(h^2) offset from every
commutator limit measured on top of it).

Every transform of the package runs through _spectral (forward) and
_synthesize (inverse).  They call numpy's pocketfft gufuncs, the routines
np.fft.fft and np.fft.ifft end in, directly, axis by axis as np.fft.fftn and
ifftn do: np.fft's bits without its per-call wrapper, which costs more than
the transform of a 64-point field.  The gufuncs are bound on the first
transform (_pocketfft), so importing the package loads no numpy.fft.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridScalar",
    "GridVector",
    "TimeGridVector",
    "build_grid",
    "central_half",
    "epsilon_ladder",
    "mollifier",
    "convolve",
    "spectral_derivative",
    "lp_norm",
    "kernel_moment",
    "bump_values",
]


class FieldError(ValueError):
    """Raised on grid/field contract violations."""


# Points per batched call (a chunk of members, a block of steps or rows): past
# a few thousand the per-call overhead no longer shows, and a bounded block
# keeps the temporary arrays small.
_BLOCK_POINTS = 2048


def _blocks(grid: Grid, count: int) -> list[range]:
    """Cut 0..count into consecutive ranges of about _BLOCK_POINTS points of grid:
    the package's one block rule (steps of a path, rows or samples of a time field)."""
    per_block = max(1, _BLOCK_POINTS // grid.N**grid.dim)
    return [range(start, min(start + per_block, count)) for start in range(0, count, per_block)]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^n with nodes {0, h, ..., L-h}^n."""

    dim: int
    L: float
    N: int

    def __post_init__(self):
        # the one grid validation (build_grid, a .fld/.flo header, Grid itself),
        # in the header's words; numpy integers and floats are stored as int/float
        for key in ("dim", "N"):
            if not _is_integer(getattr(self, key)):
                raise FieldError(f"{key} must be an integer, got {getattr(self, key)!r}")
        try:
            box = _positive_float(FieldError, "L", self.L)
        except FieldError:  # in the header's words
            raise FieldError(f"L must be a finite positive number, got {self.L!r}") from None
        for key, value in (("dim", int(self.dim)), ("L", box), ("N", int(self.N))):
            object.__setattr__(self, key, value)
        if self.dim not in (1, 2):
            raise FieldError(f"dim must be 1 or 2, got {self.dim}")
        if self.N < 8 or self.N % 2 != 0:
            raise FieldError(f"N must be even and >= 8 (aliasing hazard), got {self.N}")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Node coordinates along one axis: 0, h, ..., L-h."""
        return np.arange(self.N) * self.h

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij') of node coordinates, one array per axis."""
        axes = [self.axis_coordinates()] * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def wrapped_coordinates(self) -> tuple[np.ndarray, ...]:
        """Coordinates folded to [-L/2, L/2), measured from the origin node.

        The fold is done in exact integer index arithmetic so that the mirror
        node of x carries exactly -x (bitwise), which makes even symmetry of
        the mollifier exact rather than approximate.
        """
        idx = np.arange(self.N)
        signed = np.where(idx < self.N - idx, idx, idx - self.N)
        axis = signed * self.h
        axes = [axis] * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))


def build_grid(dim: int, L: float, N: int) -> Grid:
    """Grid(dim, L, N), which validates its fields and stores them as int/float."""
    return Grid(dim=dim, L=L, N=N)


@dataclass
class GridScalar:
    """Scalar field sampled on the grid nodes, shape (N,)*dim."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise FieldError(
                f"scalar values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("scalar field contains non-finite values")

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "GridScalar":
        return cls(grid, np.asarray(fn(*grid.coordinates()), dtype=np.float64))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridScalar":
        return cls(grid, np.full(grid.shape, float(c)))


@dataclass
class GridVector:
    """Vector field on the grid; values shape (dim, N, ...), component-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.dim,) + self.grid.shape
        if self.values.shape != expected:
            raise FieldError(
                f"vector values shape {self.values.shape} != expected {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("vector field contains non-finite values")

    @classmethod
    def from_functions(cls, grid: Grid, fns) -> "GridVector":
        mesh = grid.coordinates()
        comps = [np.asarray(fn(*mesh), dtype=np.float64) for fn in fns]
        return cls(grid, np.stack(comps, axis=0))

    @classmethod
    def constant(cls, grid: Grid, c) -> "GridVector":
        c = np.asarray(c, dtype=np.float64).reshape(grid.dim)
        vals = np.empty((grid.dim,) + grid.shape)
        for i in range(grid.dim):
            vals[i].fill(c[i])
        return cls(grid, vals)


@dataclass
class TimeGridVector:
    """Time-sliced vector field: sample j, at times[j], is row index[j] of values.

    values holds the slices as rows, (rows, dim) + grid shape; samples that
    share a slice share its row, so per-slice work runs once per row.  A field
    constant in time (every coefficient the lab builds) is one row, index 0s.
    Times are strictly increasing with times[0] = 0; the last entry is the
    horizon T.  Left-slice lookup (`slice_at`) matches the left-endpoint/Ito
    convention used by every quadrature in the package.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise FieldError("need at least two time samples (0 and T)")
        if self.times[0] != 0.0:
            raise FieldError(f"first time must be 0, got {self.times[0]}")
        if not np.all(np.diff(self.times) > 0):
            raise FieldError("times must be strictly increasing")
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.dim,) + self.grid.shape
        if self.values.shape[1:] != expected or len(self.values) == 0:
            raise FieldError(
                f"slice values shape {self.values.shape} != (rows,) + {expected}, rows >= 1"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("time-sliced field contains non-finite values")
        index = np.asarray(self.index)
        if index.shape != self.times.shape or not np.issubdtype(index.dtype, np.integer):
            raise FieldError(
                f"index needs one integer row per time sample, got {index.dtype} {index.shape}"
            )
        lo, hi, rows = index.min(), index.max(), len(self.values)
        if lo < 0 or hi >= rows:
            raise FieldError(f"index out of range: rows are 0..{rows - 1}, got {lo}..{hi}")
        # per-row passes (splines, the straightening) read every row
        unused = np.flatnonzero(np.bincount(index, minlength=rows) == 0)
        if len(unused):
            raise FieldError(f"row {unused[0]} of {rows} is indexed by no time sample")
        self.index = index.astype(np.intp)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def slices(self) -> list[GridVector]:
        """One GridVector per sample, built on each access; samples of one row share it."""
        rows = [GridVector(self.grid, row) for row in self.values]
        return [rows[i] for i in self.index]

    def slice_at(self, t: float) -> GridVector:
        """Slice at the largest sample time <= t (left-endpoint convention)."""
        return GridVector(self.grid, self.values[self.rows_at(t)])

    def rows_at(self, times) -> np.ndarray:
        """The row of values in force at each of ``times`` (the row ``slice_at`` reads)."""
        return self.index[self.slice_indices(times)]

    def per_sample(self, compute, times=None) -> list:
        """compute(block) per block of rows (_blocks), listed per sample or per time in ``times``.

        block is (rows, dim) + grid shape, and compute returns one entry per
        row; a row's entry is listed wherever the row is in force (rows_at).
        """
        done = []
        for rows in _blocks(self.grid, len(self.values)):
            done.extend(compute(self.values[rows.start : rows.stop]))
        return [done[i] for i in (self.index if times is None else self.rows_at(times))]

    def slice_indices(self, ts) -> np.ndarray:
        """Index of the sample ``slice_at`` picks, for each time in ``ts``."""
        ts = np.asarray(ts, dtype=np.float64)
        j = np.searchsorted(self.times, ts + 1e-12 * max(self.T, 1.0), side="right") - 1
        outside = (j < 0) | ~(ts <= self.T * (1 + 1e-12))  # nan is outside too
        if np.any(outside):
            raise FieldError(f"time {ts[outside][0]} outside [0, {self.T}]")
        return j


def _time_tolerance(T: float) -> float:
    """The package's one slack on a time of an axis of horizon T: absolute up
    to T = 1, relative beyond (a step count, a time on a path, an axis)."""
    return 1e-9 * max(T, 1.0)


def _step_axis(times, error, name: str, like=None) -> float:
    """times[1] - times[0], once every times[j] is j T/n within _time_tolerance(T),
    n steps to T, and, given like = (other, label), other is the same axis
    within it; refused otherwise with ``error``, naming the axes."""
    tol = _time_tolerance(float(times[-1]))
    if not np.abs(times - np.linspace(0.0, times[-1], len(times))).max() <= tol:
        raise error(f"{name} must be sampled on a uniform time grid (tolerance {tol:.3g})")
    if like is not None:
        other, label = like
        if len(other) != len(times) or not np.abs(other - times).max() <= tol:
            raise error(f"{label} and {name} live on different time grids (tolerance {tol:.3g})")
    return float(times[1] - times[0])


# ---------------------------------------------------------------------------
# Spectral machinery
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _wavenumbers(dim: int, L: float, N: int) -> tuple[np.ndarray, ...]:
    """Per-axis angular wavenumbers broadcast to the field shape."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    out = []
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = N
        out.append(k1.reshape(shape))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _derivative_multiplier(dim: int, L: float, N: int, multi_index: tuple[int, ...]) -> np.ndarray:
    """Fourier multiplier for the mixed derivative d^beta.

    The Nyquist mode is zeroed for odd per-axis orders so derivatives of real
    fields stay exactly real and spectral summation-by-parts is exact.
    """
    ks = _wavenumbers(dim, L, N)
    mult = np.ones((N,) * dim, dtype=np.complex128)
    for axis, order in enumerate(multi_index):
        if order == 0:
            continue
        k = ks[axis].copy()
        if order % 2 == 1:
            nyq_index = [slice(None)] * dim
            nyq_index[axis] = N // 2
            k[tuple(nyq_index)] = 0.0
        mult = mult * (1j * k) ** order
    return mult


@functools.cache
def _pocketfft():
    """numpy's pocketfft gufuncs (fft, ifft), the transforms np.fft.fft and
    np.fft.ifft end in, bound on the first transform: a fresh
    ``import renormlab.cli`` loads no numpy.fft.  Each has the signature
    (n),()->(m) and is called as np.fft calls it, with the lanes of one axis
    (axes=[(axis,), (), (axis,)]), the factor fct each output is scaled by
    (1 forward, 1/n inverse) and an output array of the input's layout.  A
    numpy without them is refused with an ImportError naming its version and
    the pin."""
    try:
        from numpy.fft._pocketfft_umath import fft, ifft
    except ImportError:
        raise ImportError(
            f"numpy {np.__version__} has no pocketfft gufuncs fft and ifft in "
            "numpy.fft._pocketfft_umath; renormlab's pyproject.toml pins numpy>=2.0,<2.5"
        ) from None
    return fft, ifft


def _spectral(grid: Grid, values: np.ndarray, multipliers=None, out=None) -> np.ndarray:
    """Each Fourier multiplier applied to each field of a (...) + grid shape stack.

    Returns the real parts, (..., len(multipliers)) + grid shape, from one
    forward transform per field and one _synthesize per multiplier; with no
    multipliers, the complex spectra themselves (the forward half), written
    into out when a complex array of values' shape is given.  With
    _synthesize, the inverse half, this is the package's one FFT path.  It
    calls pocketfft's forward gufunc (_pocketfft) axis by axis, last axis
    first, exactly as np.fft.fftn does, so the bits are fftn's without the
    cost of np.fft's per-call wrapper; each axis after the first is
    transformed in place.
    """
    fft = _pocketfft()[0]
    if out is None:
        out = np.empty_like(values, dtype=complex)
    spectrum = values
    for axis in range(-1, -grid.dim - 1, -1):
        spectrum = fft(spectrum, 1.0, axes=[(axis,), (), (axis,)], out=out)
    if multipliers is None:
        return spectrum
    cells = (slice(None),) * grid.dim
    fields = np.empty(values.shape[: values.ndim - grid.dim] + (len(multipliers),) + grid.shape)
    for m, mult in enumerate(multipliers):
        fields[(..., m) + cells] = _synthesize(grid, mult * spectrum)
    return fields


def _synthesize(grid: Grid, spectra: np.ndarray, out=None) -> np.ndarray:
    """The inverse half of _spectral: the real fields of a (...) + grid shape stack
    of spectra, transformed back axis by axis by pocketfft's inverse gufunc,
    scaled by 1/N per axis, as np.fft.ifftn does.  The transforms write into
    out, a complex array of spectra's shape (a new one if none is given), and
    the result is a view of its real part."""
    ifft = _pocketfft()[1]
    if out is None:
        out = np.empty_like(spectra, dtype=complex)
    for axis in range(-1, -grid.dim - 1, -1):
        spectra = ifft(spectra, 1.0 / grid.N, axes=[(axis,), (), (axis,)], out=out)
    return spectra.real


def _partials(grid: Grid, derivatives) -> list[np.ndarray]:
    """The multiplier of d_a1 ... d_ak for each tuple (a1, ..., ak) of axes."""
    orders = [tuple(axes.count(a) for a in range(grid.dim)) for axes in derivatives]
    return [_derivative_multiplier(grid.dim, grid.L, grid.N, beta) for beta in orders]


def _orders(multi_index, what: str) -> tuple[int, ...]:
    """The per-axis orders of a multi-index as ints; a bool or a non-integer
    entry (0.5, 1.9, True, "1") is refused, not truncated."""
    index = tuple(multi_index)
    bad = [b for b in index if not _is_integer(b)]
    if bad:
        raise FieldError(f"{what} {index!r} has a non-integer entry {bad[0]!r}")
    return tuple(int(b) for b in index)


def spectral_derivative(f: GridScalar, multi_index) -> GridScalar:
    """Mixed partial derivative d^beta f via Fourier multiplier.

    multi_index is a length-dim tuple of per-axis integer orders with total
    order <= 2; a bool or a non-integer order is refused by name.
    """
    beta = _orders(multi_index, "derivative order")
    if len(beta) != f.grid.dim:
        raise FieldError(f"multi_index length {len(beta)} != dim {f.grid.dim}")
    if any(b < 0 for b in beta) or sum(beta) > 2:
        raise FieldError(f"derivative order {beta} unsupported (total order <= 2)")
    if sum(beta) == 0:
        return GridScalar(f.grid, f.values.copy())
    g = f.grid
    return GridScalar(g, _spectral(g, f.values, [_derivative_multiplier(g.dim, g.L, g.N, beta)])[0])


def gradient(f: GridScalar) -> GridVector:
    g = f.grid
    return GridVector(g, _spectral(g, f.values, _partials(g, [(a,) for a in range(g.dim)])))


def divergence(v: GridVector) -> GridScalar:
    return GridScalar(v.grid, divergence_stack(v.grid, v.values))


def divergence_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Divergences of a stack of vector fields, (..., dim) + grid shape in.

    Returns (...) + grid shape: the partials d_i v_i summed from 0.0 in the
    order of i, so the numbers are spectral_derivative's bit for bit.
    """
    cells = (slice(None),) * grid.dim
    total = np.zeros(values.shape[: -grid.dim - 1] + grid.shape)
    for i in range(grid.dim):
        partial = _spectral(grid, values[(..., i) + cells], _partials(grid, [(i,)]))
        total += partial.reshape(total.shape)
    return total


def jacobian(v: GridVector) -> np.ndarray:
    """All first partials of a vector field: out[i, j] = d_j v_i, each a grid array."""
    return jacobian_stack(v.grid, v.values)


def jacobian_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Jacobians of a stack of vector fields, (..., dim) + grid shape in.

    Returns (..., dim, dim) + grid shape, entry [..., i, j] = d_j v_i.
    """
    return _spectral(grid, values, _partials(grid, [(j,) for j in range(grid.dim)]))


def divergence_and_twist(grid: Grid, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Div v and the twist d_i v_j d_j v_i of a stack of jacobian_stack Jacobians.

    jac is (..., dim, dim) + grid shape, entry [..., i, j] = d_j v_i.  Div
    sums the diagonal from 0.0 in the order of i: divergence_stack's bits.
    """
    cells = (slice(None),) * grid.dim
    div = sum(jac[(..., i, i) + cells] for i in range(grid.dim))
    pairs = np.moveaxis(jac, (-grid.dim - 2, -grid.dim - 1), (0, 1))
    return div, np.einsum("ij...,ji...->...", pairs, pairs)


def hessian_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second partials of a stack of scalar fields, (...) + grid shape in.

    Returns (..., dim, dim) + grid shape, entry [..., j, k] = d_j d_k f; each
    mixed partial is computed once, for j <= k.
    """
    cells = (slice(None),) * grid.dim
    pairs = [(j, k) for j in range(grid.dim) for k in range(j, grid.dim)]
    seconds = _spectral(grid, values, _partials(grid, pairs))
    out = np.empty(values.shape[: values.ndim - grid.dim] + (grid.dim, grid.dim) + grid.shape)
    for m, (j, k) in enumerate(pairs):
        out[(..., j, k) + cells] = out[(..., k, j) + cells] = seconds[(..., m) + cells]
    return out


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------

def bump_values(r2_over_rad2: np.ndarray) -> np.ndarray:
    """Un-normalized C^inf bump exp(-1/(1-u)) evaluated at u = |x|^2/r^2.

    Returns 0 outside u < 1; the exponential underflows smoothly near the
    edge, so support is exactly the open ball.
    """
    u = np.asarray(r2_over_rad2, dtype=np.float64)
    out = np.zeros(u.shape)
    inside = u < 1.0
    with np.errstate(over="ignore", divide="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    return out


def epsilon_ladder(grid: Grid, epsilon_list, least: int = 3) -> list[float]:
    """The one epsilon check, before any kernel is built: ``least`` or more finite floats
    (a rate fit needs 3), strictly decreasing, each in the mollifier's 2h <= eps <= L/4."""
    epsilons = [_finite_float(FieldError, "epsilons", e) for e in epsilon_list]
    if len(epsilons) < least:
        raise FieldError(f"need at least {least} epsilons, got {len(epsilons)}")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise FieldError(f"epsilons must be strictly decreasing, got {epsilons}")
    for eps in epsilons:
        if eps < 2.0 * grid.h:
            raise FieldError(f"epsilon {eps} below resolution 2h = {2 * grid.h}")
        if eps > grid.L / 4.0:
            raise FieldError(f"epsilon {eps} above box quarter-width {grid.L / 4.0}")
    return epsilons


def mollifier(grid: Grid, epsilon: float) -> GridScalar:
    """Discrete eta_eps: nonnegative, unit discrete mass, support in |x| <= eps."""
    [eps] = epsilon_ladder(grid, [_finite_float(FieldError, "epsilon", epsilon)], least=1)
    mesh = grid.wrapped_coordinates()
    r2 = np.zeros(grid.shape)
    for x in mesh:
        r2 += x * x
    vals = bump_values(r2 / (eps * eps))
    mass = vals.sum() * grid.cell_volume
    vals = vals / mass
    return GridScalar(grid, vals)


def convolve(kernel: GridScalar, f: GridScalar) -> GridScalar:
    """Periodic convolution (eta_eps * f)(x) = h^n sum_y eta_eps(x-y) f(y)."""
    if kernel.grid != f.grid:
        raise FieldError(f"grid mismatch: {kernel.grid} vs {f.grid}")
    g = f.grid
    out = _spectral(g, f.values, [_spectral(g, kernel.values)])[0]
    return GridScalar(g, out * g.cell_volume)


def kernel_moment(kernel: GridScalar, power_index, deriv_index) -> float:
    """Discrete moment  h^n sum_x  x^alpha (d^beta eta_eps)(x), x wrapped to [-L/2, L/2)."""
    alpha = _orders(power_index, "moment power")
    beta = _orders(deriv_index, "moment derivative")
    g = kernel.grid
    if len(alpha) != g.dim or len(beta) != g.dim:
        raise FieldError("moment index length mismatch")
    if sum(alpha) > 2 or sum(beta) > 2 or min(alpha) < 0 or min(beta) < 0:
        raise FieldError("moment indices limited to total order <= 2")
    deriv = spectral_derivative(kernel, beta).values
    weight = np.ones(g.shape)
    for x, a in zip(g.wrapped_coordinates(), alpha):
        if a:
            weight = weight * x**a
    return float((weight * deriv).sum() * g.cell_volume)


# ---------------------------------------------------------------------------
# Norms and regions
# ---------------------------------------------------------------------------

def central_half(grid: Grid) -> np.ndarray:
    """The compact set K of the commutator estimates: the mask of the nodes in [L/4, 3L/4)^n."""
    m = np.ones(grid.shape, dtype=bool)
    for x in grid.coordinates():
        m &= (x >= grid.L / 4.0 - 1e-12) & (x < 3.0 * grid.L / 4.0 - 1e-12)
    return m


def lp_norm(f: GridScalar, p: float, region: np.ndarray | None = None) -> float:
    """L^p norm by h^n-weighted quadrature; sup norm for p = inf.

    region, a boolean node mask such as central_half's, restricts the sum to its nodes.
    """
    if region is not None and (region.dtype != bool or region.shape != f.grid.shape):
        raise FieldError(f"region must be a boolean mask of shape {f.grid.shape}")
    vals = f.values if region is None else f.values[region]
    return lp_norm_stack(f.grid, vals[None], p)[0]


def lp_norm_stack(grid: Grid, values: np.ndarray, p: float) -> list[float]:
    """lp_norm of each row of a block of fields, (rows, ...) in: finiteness
    checked once, abs, power and one flat sum per row on the whole block, and
    each row's 1/p-th power in Python, so each entry is lp_norm's bit for bit."""
    _check_exponents(FieldError, "p", p)
    if not np.isfinite(values).all():
        raise FieldError("norm of a field with non-finite values")
    a = np.abs(values.reshape(len(values), -1))
    if math.isinf(p):
        return [float(m) for m in a.max(axis=1, initial=0.0)]
    return [float(s) ** (1.0 / p) for s in (a**p).sum(axis=1) * grid.cell_volume]


# ---------------------------------------------------------------------------
# Serialization (.fld; flow's .flo shares the header check)
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    """A JSON number a float can hold: no bool, no nan, no int beyond the float range."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An int or a numpy integer, not a bool: a seed, a count, a factor or a step."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int, a float or a numpy real, not a bool: a box size, a damping lambda or an exponent."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _finite_float(error, name: str, value) -> float:
    """value as a float; refused with ``error``, by name, if it is no real
    (_is_real) or not finite as a float: nan, an infinity, an int beyond
    float range."""
    if not _is_real(value):
        raise error(f"{name} must be a number, got {value!r}")
    number = value if isinstance(value, int) else float(value)  # a float32 compared as float64
    if not -sys.float_info.max <= number <= sys.float_info.max:
        raise error(f"{name} must be finite, got {value!r}")
    return float(number)


def _positive_float(error, name: str, value) -> float:
    """_finite_float's value, refused with ``error``, by name, unless positive."""
    number = _finite_float(error, name, value)
    if not number > 0:
        raise error(f"{name} must be positive, got {number}")
    return number


def _check_exponents(error, names: str, *values) -> None:
    """Refuse with ``error`` exponents (r first) that are no real (_is_real),
    not positive (nan included) or r < 1; an infinity is the sup norm."""
    shown = f"({names}) = ({', '.join(map(repr, values))})"
    if not all(map(_is_real, values)):
        raise error(f"exponents must be numbers, got {shown}")
    if not all(x > 0 for x in values):
        raise error(f"exponents must be positive, got {shown}")
    if not values[0] >= 1:
        raise error(f"exponent {names.partition(',')[0]} must be >= 1, got {values[0]}")


# each kind of header key: its test and what a failing value is told it must be
_HEADER_KINDS = {
    "int": (_is_int, "an integer"),
    "count": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "positive": (lambda v: _is_number(v) and v > 0, "a finite positive number"),
    "times": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    "flo": (lambda v: v == "flo", "'flo'"),
}
# the grid keys of every .fld and .flo header
_GRID_HEADER = {"dim": "int", "L": "positive", "N": "int"}
_FLD_HEADER = {**_GRID_HEADER, "times": "times", "components": "int"}


def _read_header(fh, path, error: type[ValueError]):
    """The parsed one-line JSON header of an open .fld or .flo file."""
    try:
        return json.loads(fh.readline().decode("ascii"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{path}: header is not one line of JSON text ({exc})") from None


def _check_header(path, header: dict, kinds: dict, error: type[ValueError]) -> Grid:
    """Check each key's type before any arithmetic, then return the header's grid.

    ``kinds`` maps each key of the format to a kind of ``_HEADER_KINDS``: each
    is required, and any other key is refused.  Every failure raises ``error``
    naming the file and the key.
    """
    missing = [k for k in kinds if k not in header]
    if missing:
        raise error(f"{path}: header lacks {', '.join(missing)}")
    unknown = sorted(set(header) - set(kinds))
    if unknown:
        raise error(f"{path}: header has unknown key {', '.join(unknown)}")
    for key, kind in kinds.items():
        test, want = _HEADER_KINDS[kind]
        if not test(header[key]):
            raise error(f"{path}: header {key} must be {want}, got {header[key]!r}")
    try:
        return Grid(dim=header["dim"], L=header["L"], N=header["N"])
    except FieldError as exc:  # dim not 1 or 2, or N odd or below 8; the message names it
        raise error(f"{path}: header {exc}") from None


def _field_payload(obj) -> tuple[dict, np.ndarray]:
    if isinstance(obj, GridScalar):
        header = {"components": 1, "times": []}
        data = obj.values[None, ...]
    elif isinstance(obj, GridVector):
        header = {"components": obj.grid.dim, "times": []}
        data = obj.values
    elif isinstance(obj, TimeGridVector):
        header = {"components": obj.grid.dim, "times": [float(t) for t in obj.times]}
        data = obj.values[obj.index]  # one block per time sample
    else:
        raise FieldError(f"cannot serialize {type(obj).__name__} as a field")
    header.update({"dim": obj.grid.dim, "L": obj.grid.L, "N": obj.grid.N})
    return header, np.ascontiguousarray(data, dtype="<f8")


def save_field(path, obj) -> None:
    """Write a field: one-line JSON header, then flat little-endian float64."""
    header, data = _field_payload(obj)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(data.tobytes())


def load_field(path):
    with open(path, "rb") as fh:
        header = _read_header(fh, path, FieldError)
        raw = fh.read()
    if not isinstance(header, dict):
        raise FieldError(f"{path}: header is not a JSON object")
    grid = _check_header(path, header, _FLD_HEADER, FieldError)
    times = header["times"]
    comps = header["components"]
    if comps != grid.dim and (comps != 1 or times):
        raise FieldError(
            f"{path}: header components must be dim, or 1 for a static scalar, got {comps}"
        )
    expected = len(times or [1]) * comps * grid.N**grid.dim
    if len(raw) != 8 * expected:
        raise FieldError(
            f"{path}: payload has {len(raw)} bytes, header implies "
            f"{expected} float64 values ({8 * expected} bytes)"
        )
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    try:
        if times:
            data = data.reshape((len(times), comps) + grid.shape)
            return TimeGridVector(grid, times, data, np.arange(len(times)))
        if comps == 1:
            return GridScalar(grid, data.reshape(grid.shape))
        return GridVector(grid, data.reshape((comps,) + grid.shape))
    except FieldError as exc:  # non-finite values, or times that do not start at 0 and rise
        raise FieldError(f"{path}: {exc}") from None
