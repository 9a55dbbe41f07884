"""Scalar/vector/tensor fields on a periodic grid and their spectral operators.

Fields are immutable: the sample array is frozen at construction and the
spectral mirror is cached on first use. Differentiation is exact for the
trigonometric interpolant; the 2/3-rule truncation is applied to nonlinear
products only (here: the pressure source), never to plain derivatives.
"""

from __future__ import annotations

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
        """Cached forward transform of the samples."""
        if self._spectral is None:
            spectral = self.grid.fftn(self.values)
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


def gradient(field: ScalarField | VectorField) -> VectorField | TensorField:
    """Spectral gradient.

    For a scalar f returns the vector (d_i f). For a vector u returns the
    tensor G with G[i, j] = d_i u_j.
    """
    grid = field.grid
    if isinstance(field, ScalarField):
        fh = field.spectral
        out = np.empty((grid.dim,) + grid.shape, dtype=np.complex128)
        for i in range(grid.dim):
            _derivative_coeffs(grid, fh, i, out=out[i])
        return VectorField._from_own_spectral(grid, out)
    if isinstance(field, VectorField):
        uh = field.spectral
        out = np.empty((grid.dim, grid.dim) + grid.shape, dtype=np.complex128)
        for i in range(grid.dim):
            for j in range(grid.dim):
                _derivative_coeffs(grid, uh[j], i, out=out[i, j])
        return TensorField._from_own_spectral(grid, out)
    raise FieldError("gradient expects a ScalarField or VectorField")


def divergence(u: VectorField) -> ScalarField:
    grid = u.grid
    uh = u.spectral
    div = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(grid.dim):
        div += _derivative_coeffs(grid, uh[i], i)
    return ScalarField._from_own_spectral(grid, div)


def _perp_gradient_coeffs(grid: GridSpec, th: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spectrum of (-d2 theta, d1 theta), written into out."""
    np.negative(_derivative_coeffs(grid, th, 1, out=out[0]), out=out[0])
    _derivative_coeffs(grid, th, 0, out=out[1])
    return out


def perp_gradient(theta: ScalarField) -> VectorField:
    """Perpendicular gradient (-d2 theta, d1 theta); defined in 2D only."""
    grid = theta.grid
    if grid.dim != 2:
        raise FieldError("perp_gradient is defined for 2D grids only")
    out = np.empty((2,) + grid.shape, dtype=np.complex128)
    return VectorField._from_own_spectral(grid, _perp_gradient_coeffs(grid, theta.spectral, out))


def hessian_coeffs(p: ScalarField, theta: ScalarField | None = None) -> np.ndarray:
    """Spectra of the d(d+1)/2 distinct entries d_i d_j p, upper triangle
    row by row; given the 2D theta, the spectrum of `perp_gradient(theta)`
    follows them in the same stack."""
    grid = p.grid
    pairs = list(zip(*np.triu_indices(grid.dim)))
    out = np.empty((len(pairs) + (0 if theta is None else 2),) + grid.shape, dtype=np.complex128)
    k = grid.wavenumbers
    for (i, j), coeffs in zip(pairs, out):
        np.multiply(-(k[i] * k[j]), p.spectral, out=coeffs)
    if theta is not None:
        _perp_gradient_coeffs(grid, theta.spectral, out[len(pairs) :])
    return out


def symmetric_from_upper(upper: np.ndarray, dim: int) -> np.ndarray:
    """The symmetric (dim, dim, ...) tensor whose distinct entries, upper
    triangle row by row, lie along the leading axis of `upper`."""
    out = np.empty((dim, dim) + upper.shape[1:])
    for i, j, values in zip(*np.triu_indices(dim), upper):
        out[i, j] = values
        out[j, i] = values
    return out


def hessian(p: ScalarField) -> TensorField:
    """Second-derivative tensor of p. The d(d+1)/2 distinct entries are
    inverse-transformed in one batched call and then mirrored."""
    grid = p.grid
    upper = grid.ifftn(hessian_coeffs(p), overwrite=True)
    return TensorField._wrap(grid, symmetric_from_upper(upper, grid.dim))


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
    if radius <= 0:
        raise FieldError("radius must be positive")
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
    "symmetric_from_upper",
    "max_divergence",
    "solve_pressure",
    "project_spectral",
    "ball_mask",
    "masked_max",
    "region_sup_norm",
]
