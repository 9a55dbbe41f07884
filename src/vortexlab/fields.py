"""Scalar/vector/tensor fields on a periodic grid and their spectral operators.

Fields are immutable: the sample array is frozen at construction and the
spectral mirror is cached on first use. Differentiation is exact for the
trigonometric interpolant; the 2/3-rule truncation is applied to nonlinear
products only (here: the pressure source), never to plain derivatives.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grid import GridSpec


class FieldError(ValueError):
    """Invalid field construction or operation."""


class DivergenceError(FieldError):
    """Velocity field is not divergence-free to the required tolerance."""


class EmptyRegionError(FieldError):
    """A ball region contains no grid points."""


def _check_samples(cls, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
        raise FieldError(f"{cls.__name__} has {bad} non-finite sample(s)")


class _Field:
    """Shared machinery for grid-sampled fields; do not instantiate directly."""

    rank = -1
    # Builds the exact spectrum of a derived field that keeps none; see
    # `_derived`. Without it `spectral` transforms the samples.
    _spectral_of = None
    # True when `values` is bit for bit the real part of the inverse
    # transform of the cached spectrum, so a solver may reuse it instead of
    # transforming again. Samples given in physical space are not: there
    # ifftn(fftn(values)) differs from values in the last bits.
    _values_exact = False

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        expected = (grid.dim,) * self.rank + grid.shape
        if values.shape != expected:
            raise FieldError(
                f"{type(self).__name__} expects shape {expected}, got {values.shape}"
            )
        _check_samples(type(self), values)
        values = values.copy()
        values.flags.writeable = False
        self.grid = grid
        self.values = values
        self._spectral = None

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray, spectral: np.ndarray | None = None):
        """Internal constructor: takes ownership of freshly computed arrays
        and freezes them, with no copy and no finiteness check."""
        values.flags.writeable = False
        if spectral is not None:
            spectral.flags.writeable = False
        field = cls.__new__(cls)
        field.grid = grid
        field.values = values
        field._spectral = spectral
        return field

    @classmethod
    def _from_own_spectral(cls, grid: GridSpec, coeffs: np.ndarray):
        """Internal constructor from complex128 coefficients of the right
        shape that no one else holds; they become the cached spectrum."""
        field = cls._wrap(grid, np.ascontiguousarray(grid.ifftn(coeffs)), coeffs)
        field._values_exact = True
        return field

    @classmethod
    def _derived(cls, grid: GridSpec, values: np.ndarray, spectral_of):
        """Internal constructor of a derivative whose fresh `values` are bit
        for bit the transform of the exact coefficients that `spectral_of()`
        builds. The coefficients are built, and cached, only if `spectral`
        is read, so a caller of the values alone never holds them."""
        field = cls._wrap(grid, values)
        field._values_exact = True
        field._spectral_of = spectral_of
        return field

    @classmethod
    def from_spectral(cls, grid: GridSpec, coeffs: np.ndarray):
        coeffs = np.array(coeffs, dtype=np.complex128)
        expected = (grid.dim,) * cls.rank + grid.shape
        if coeffs.shape != expected:
            raise FieldError(f"{cls.__name__} spectral shape {expected} expected, got {coeffs.shape}")
        field = cls._from_own_spectral(grid, coeffs)
        _check_samples(cls, field.values)
        return field

    @property
    def spectral(self) -> np.ndarray:
        """Cached forward transform of the samples (for a derivative: its
        exact coefficients)."""
        if self._spectral is None:
            build = self._spectral_of
            spectral = self.grid.fftn(self.values) if build is None else build()
            spectral.flags.writeable = False
            self._spectral = spectral
        return self._spectral

    def magnitude(self) -> np.ndarray:
        """Pointwise magnitude: |f| for scalars, Euclidean/Frobenius norm otherwise."""
        if self.rank == 0:
            return np.abs(self.values)
        comp_axes = tuple(range(self.rank))
        return np.sqrt(np.sum(self.values**2, axis=comp_axes))

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.grid == other.grid
            and np.array_equal(self.values, other.values)
        )


class ScalarField(_Field):
    rank = 0


class VectorField(_Field):
    rank = 1


class TensorField(_Field):
    rank = 2


def _derivative_coeffs(
    grid: GridSpec, coeffs: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Spectral derivative along one spatial axis of trailing-grid-shaped coeffs."""
    k = grid.wavenumbers[axis]
    return np.multiply(1j * k, coeffs, out=out)


def _gradient_coeffs(grid: GridSpec, fh: np.ndarray) -> np.ndarray:
    """Spectrum of the gradient of one field or a stack of fields fh:
    out[i] = 1j k_i fh."""
    out = np.empty((grid.dim,) + fh.shape, dtype=np.complex128)
    for i in range(grid.dim):
        _derivative_coeffs(grid, fh, i, out=out[i])
    return out


def gradient(field: ScalarField | VectorField) -> VectorField | TensorField:
    """Spectral gradient.

    For a scalar f returns the vector (d_i f). For a vector u returns the
    tensor G with G[i, j] = d_i u_j. The values are transformed one row
    d_i at a time, through one reused coefficient buffer; the exact spectrum
    of G is built only if the result's `spectral` is read.
    """
    if not isinstance(field, (ScalarField, VectorField)):
        raise FieldError("gradient expects a ScalarField or VectorField")
    grid = field.grid
    fh = field.spectral
    values = np.empty((grid.dim,) + fh.shape)
    row = np.empty(fh.shape, dtype=np.complex128)
    for i, out in enumerate(values):
        out[...] = grid.ifftn(_derivative_coeffs(grid, fh, i, out=row), overwrite=True)
    cls = VectorField if isinstance(field, ScalarField) else TensorField
    return cls._derived(grid, values, lambda: _gradient_coeffs(grid, fh))


def divergence(u: VectorField) -> ScalarField:
    grid = u.grid
    uh = u.spectral
    div = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(grid.dim):
        div += _derivative_coeffs(grid, uh[i], i)
    return ScalarField._from_own_spectral(grid, div)


def _perp_gradient_rows(grid: GridSpec, th: np.ndarray, buffers):
    """Yield the spectrum of (-d2 theta, d1 theta) one component at a time,
    each written into the next of `buffers`."""
    out = next(buffers)
    yield np.negative(_derivative_coeffs(grid, th, 1, out=out), out=out)
    yield _derivative_coeffs(grid, th, 0, out=next(buffers))


def perp_gradient(theta: ScalarField) -> VectorField:
    """Perpendicular gradient (-d2 theta, d1 theta); defined in 2D only."""
    grid = theta.grid
    if grid.dim != 2:
        raise FieldError("perp_gradient is defined for 2D grids only")
    out = np.empty((2,) + grid.shape, dtype=np.complex128)
    for _ in _perp_gradient_rows(grid, theta.spectral, iter(out)):
        pass
    return VectorField._from_own_spectral(grid, out)


def _hessian_coeff_rows(p: ScalarField, theta: ScalarField | None, out: np.ndarray):
    """Yield the rows of `hessian_coeffs(p, theta)` in turn, each written
    into out[r] when out is such a stack, else into the one grid array out."""
    grid = p.grid
    buffers = iter(out) if out.ndim > grid.dim else itertools.repeat(out)
    k = grid.wavenumbers
    for i, j in zip(*np.triu_indices(grid.dim)):
        yield np.multiply(-(k[i] * k[j]), p.spectral, out=next(buffers))
    if theta is not None:
        yield from _perp_gradient_rows(grid, theta.spectral, buffers)


def hessian_coeffs(p: ScalarField, theta: ScalarField | None = None) -> np.ndarray:
    """Spectra of the d(d+1)/2 distinct entries d_i d_j p, upper triangle
    row by row; given the 2D theta, the spectrum of `perp_gradient(theta)`
    follows them in the same stack."""
    grid = p.grid
    rows = grid.dim * (grid.dim + 1) // 2 + (0 if theta is None else 2)
    out = np.empty((rows,) + grid.shape, dtype=np.complex128)
    for _ in _hessian_coeff_rows(p, theta, out):
        pass
    return out


def symmetric_from_upper(upper: np.ndarray, dim: int) -> np.ndarray:
    """The symmetric (dim, dim, ...) tensor whose distinct entries, upper
    triangle row by row, lie along the leading axis of `upper`."""
    out = np.empty((dim, dim) + upper.shape[1:])
    for i, j, values in zip(*np.triu_indices(dim), upper):
        out[i, j] = values
        out[j, i] = values
    return out


def hessian_values(
    p: ScalarField, theta: ScalarField | None = None, coeffs: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Grid values of the rows of `hessian_coeffs(p, theta)`: the symmetric
    (d, d, ...) Hessian of p and, given the 2D theta, the (2, ...) carrier
    `perp_gradient(theta)`, else None. Each row is inverse-transformed in
    place and mirrored into the result: the rows of `coeffs`, that stack of
    a caller that samples it too, which is destroyed, or else rows built one
    at a time in one buffer. The bits are those of one batched transform."""
    grid = p.grid
    pairs = list(zip(*np.triu_indices(grid.dim)))
    if coeffs is None:
        coeffs = _hessian_coeff_rows(p, theta, np.empty(grid.shape, dtype=np.complex128))
    else:
        expected = (len(pairs) + (0 if theta is None else 2),) + grid.shape
        if coeffs.shape != expected:
            raise FieldError(f"Hessian coefficients must have shape {expected}, got {coeffs.shape}")
    hess = np.empty((grid.dim, grid.dim) + grid.shape)
    carrier = None if theta is None else np.empty((2,) + grid.shape)
    for r, row in enumerate(coeffs):
        values = grid.ifftn(row, overwrite=True)
        if r < len(pairs):
            i, j = pairs[r]
            hess[i, j] = values
            hess[j, i] = values
        else:
            carrier[r - len(pairs)] = values
    return hess, carrier


def hessian(p: ScalarField) -> TensorField:
    """Second-derivative tensor of p, transformed one distinct entry at a
    time and mirrored."""
    hess, _ = hessian_values(p)
    return TensorField._wrap(p.grid, hess)


def max_divergence(
    u: VectorField, grad_u: np.ndarray | None = None
) -> tuple[float, tuple[int, ...]]:
    """Max |div u| over the grid and the index where it is attained.

    grad_u, the grid values of `gradient(u)`, gives div u as its trace with
    no transform; without it div u is transformed from the spectrum.
    """
    if grad_u is None:
        div = divergence(u).values
    else:
        div = np.trace(grad_u)
    idx = np.unravel_index(np.argmax(np.abs(div)), div.shape)
    return float(np.abs(div[idx])), tuple(int(i) for i in idx)


def solve_pressure(
    u: VectorField,
    theta: ScalarField | None = None,
    div_tol: float = 1e-8,
    grad_u: np.ndarray | None = None,
) -> ScalarField:
    """Recover the mean-zero pressure from the velocity (and buoyancy in 2D).

    Solves lap(p) = -d_i u_j d_j u_i (+ d_2 theta when a 2D buoyancy field
    is supplied). The quadratic source is dealiased before inversion.
    grad_u, the grid values of `gradient(u)`, lets a caller that needs them
    too (`diagnostics.diag_field`) compute them once; they are computed
    here when not given. The divergence check reads div u off their trace
    and allows div_tol * max(1, max |grad u|), since the roundoff in div u
    grows with the gradient.
    """
    grid = u.grid
    if grad_u is None:
        grad_u = gradient(u).values
    elif grad_u.shape != (grid.dim, grid.dim) + grid.shape:
        raise FieldError(f"grad_u must have shape {(grid.dim, grid.dim) + grid.shape}, got {grad_u.shape}")
    worst, idx = max_divergence(u, grad_u)
    scale = max(1.0, float(np.max(grad_u)), -float(np.min(grad_u))) if worst > div_tol else 1.0
    if worst > div_tol * scale:
        coords = tuple(float(grid.axis_coords[i]) for i in idx)
        raise DivergenceError(
            f"velocity divergence {worst:.3e} exceeds {div_tol * scale:.1e} "
            f"at grid index {idx}, x = {coords}"
        )
    if theta is not None and grid.dim != 2:
        raise FieldError("buoyancy source is supported on 2D grids only")

    source = -np.einsum("ij...,ji...->...", grad_u, grad_u)
    p_hat = grid.fftn(source)
    grid.truncate(p_hat, out=p_hat)
    if theta is not None:
        np.add(p_hat, _derivative_coeffs(grid, theta.spectral, 1), out=p_hat)
    np.negative(p_hat, out=p_hat)
    np.multiply(p_hat, grid.inv_k_square, out=p_hat)
    return ScalarField._from_own_spectral(grid, p_hat)


def project_spectral(grid: GridSpec, uh: np.ndarray) -> np.ndarray:
    """In-place Leray projection of spectral velocity coefficients."""
    k = grid.wavenumbers
    k_dot_u = np.zeros(grid.shape, dtype=np.complex128)
    term = np.empty(grid.shape, dtype=np.complex128)
    for i in range(grid.dim):
        k_dot_u += np.multiply(k[i], uh[i], out=term)
    k_dot_u *= grid.inv_k_square
    for i in range(grid.dim):
        uh[i] -= np.multiply(k[i], k_dot_u, out=term)
    return uh


def ball_mask(grid: GridSpec, center, radius: float) -> np.ndarray | None:
    """Grid points of the periodic ball B(center, radius) as a boolean mask.

    Distances wrap around the period, so the ball holds the whole box only
    from radius sqrt(dim) * length / 2 on, the distance to the far corner.
    Such a radius gives None, so that a max over the "ball" is the global
    max exactly.
    """
    if not radius > 0:
        raise FieldError("radius must be positive")
    if not np.all(np.isfinite(center)):
        raise FieldError("center must be finite")
    if radius >= np.sqrt(grid.dim) * grid.length / 2.0:
        return None
    mask = grid.periodic_distance(np.asarray(center, dtype=float)) <= radius
    if not np.any(mask):
        raise EmptyRegionError(
            f"ball of radius {radius:g} around {tuple(np.asarray(center, float))} "
            f"contains no grid points (spacing {grid.dx:g})"
        )
    return mask


def masked_max(values: np.ndarray, mask: np.ndarray | None) -> float:
    """Max of grid values over a `ball_mask` (None: over the whole grid)."""
    return float(np.max(values if mask is None else values[mask]))


def region_sup_norm(field: _Field, center, radius: float) -> float:
    """Max pointwise magnitude over the periodic ball B(center, radius)."""
    mask = ball_mask(field.grid, center, radius)
    return masked_max(field.magnitude(), mask)


__all__ = [
    "ScalarField",
    "VectorField",
    "TensorField",
    "FieldError",
    "DivergenceError",
    "EmptyRegionError",
    "gradient",
    "divergence",
    "perp_gradient",
    "hessian",
    "hessian_coeffs",
    "hessian_values",
    "symmetric_from_upper",
    "max_divergence",
    "solve_pressure",
    "project_spectral",
    "ball_mask",
    "masked_max",
    "region_sup_norm",
]
