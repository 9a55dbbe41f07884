"""Scalar and vector fields on a periodic grid and their spectral operators.

A field object is a state or a pressure that owns its spectrum: the sample
array is frozen at construction and the spectral mirror is cached on first
use. Differentiation is exact for the trigonometric interpolant; the
2/3-rule truncation is applied to nonlinear products only (here: the
pressure source), never to plain derivatives. Three builders make the
derivatives that a run reads, under one contract: `gradient` (the rows of
grad f, one at a time in one buffer), `hessian` (the distinct entries of
the Hessian of p, one stack when a callback takes it, else one row at a
time) and `perp_gradient` (the 2D carrier of theta). Each hands each
spectral stack it builds to an optional `on_stack(name, coeffs)` callback,
then transforms it in place and returns its grid values as a plain
C-ordered float64 array, components first, that keeps no spectrum; a
caller samples a stack there, so none is built twice.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec

# the max |div u| that `solve_pressure` allows, relative to max(1, max |grad u|)
DIV_TOL = 1e-8


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
    # True when the cached spectrum is zero outside the dealias cutoff, so
    # that its inverse transforms may skip the lines that are zero.
    _truncated = False

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
    def _from_own_spectral(cls, grid: GridSpec, coeffs: np.ndarray, truncated: bool = False):
        """Internal constructor from complex128 coefficients of the right
        shape that no one else holds; they become the cached spectrum, and
        both it and the transformed samples are frozen, with no copy and no
        finiteness check. truncated=True promises that they are zero outside
        the dealias cutoff (`GridSpec.ifftn`)."""
        values = np.ascontiguousarray(grid.ifftn(coeffs, truncated=truncated))
        values.flags.writeable = False
        coeffs.flags.writeable = False
        field = cls.__new__(cls)
        field.grid = grid
        field.values = values
        field._spectral = coeffs
        field._values_exact = True
        field._truncated = truncated
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


class ScalarField(_Field):
    rank = 0


class VectorField(_Field):
    rank = 1


def _derivative_coeffs(
    grid: GridSpec, coeffs: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Spectral derivative along one spatial axis of trailing-grid-shaped coeffs."""
    k = grid.wavenumbers[axis]
    return np.multiply(1j * k, coeffs, out=out)


def gradient(field: ScalarField | VectorField, on_stack=None) -> np.ndarray:
    """Spectral gradient as grid values: for a scalar f the (d, ...) array of
    d_i f, for a vector u the (d, d, ...) array G with G[i, j] = d_i u_j. The
    exact spectrum of each row d_i f is built in turn in one buffer, handed
    to on_stack("grad_u", row) when given, and then transformed in place."""
    if not isinstance(field, (ScalarField, VectorField)):
        raise FieldError("gradient expects a ScalarField or VectorField")
    grid = field.grid
    fh = field.spectral
    row = np.empty(fh.shape, dtype=np.complex128)
    values = np.empty((grid.dim,) + field.values.shape)
    for i, out in enumerate(values):
        _derivative_coeffs(grid, fh, i, out=row)
        if on_stack is not None:
            on_stack("grad_u", row)
        out[...] = grid.ifftn(row, overwrite=True)
    return values


def divergence(u: VectorField) -> ScalarField:
    grid = u.grid
    uh = u.spectral
    div = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(grid.dim):
        div += _derivative_coeffs(grid, uh[i], i)
    return ScalarField._from_own_spectral(grid, div)


def perp_gradient(theta: ScalarField, on_stack=None) -> np.ndarray:
    """Grid values of the perpendicular gradient (-d2 theta, d1 theta), the
    2D carrier, of shape (2, n, n); defined in 2D only. Its spectrum is
    built as one (2, ...) stack, handed to on_stack("carrier", stack) when
    given, and then transformed in place."""
    grid = theta.grid
    if grid.dim != 2:
        raise FieldError("perp_gradient is defined for 2D grids only")
    stack = np.empty((2,) + grid.shape, dtype=np.complex128)
    np.negative(_derivative_coeffs(grid, theta.spectral, 1, out=stack[0]), out=stack[0])
    _derivative_coeffs(grid, theta.spectral, 0, out=stack[1])
    if on_stack is not None:
        on_stack("carrier", stack)
    # copied out of the complex stack, so that the result holds only the real part
    return np.ascontiguousarray(grid.ifftn(stack, overwrite=True))


def symmetric_from_upper(upper: np.ndarray, dim: int) -> np.ndarray:
    """The symmetric (dim, dim, ...) tensor whose distinct entries, upper
    triangle row by row, lie along the leading axis of `upper`."""
    out = np.empty((dim, dim) + upper.shape[1:])
    for i, j, values in zip(*np.triu_indices(dim), upper):
        out[i, j] = values
        out[j, i] = values
    return out


def hessian(p: ScalarField, on_stack=None) -> np.ndarray:
    """Grid values of the second-derivative tensor of p, (d, d, ...) with
    [i, j] = d_i d_j p. The spectra of its d(d+1)/2 distinct entries, upper
    triangle row by row, are built as one stack handed to
    on_stack("hessian", stack) when given, else one at a time in one
    buffer; each is then transformed in place and mirrored. The rows of a
    pressure whose spectrum is truncated (as `solve_pressure` returns it
    without a temperature) take the inverse transform that skips the zero
    lines."""
    grid = p.grid
    k = grid.wavenumbers
    pairs = list(zip(*np.triu_indices(grid.dim)))
    stack = np.empty((len(pairs) if on_stack is not None else 1,) + grid.shape, dtype=np.complex128)
    # each row into its own row of the stack, or each in turn into one buffer
    rows = (np.multiply(-(k[i] * k[j]), p.spectral, out=stack[r % len(stack)]) for r, (i, j) in enumerate(pairs))
    if on_stack is not None:
        rows = list(rows)
        on_stack("hessian", stack)
    hess = np.empty((grid.dim, grid.dim) + grid.shape)
    for (i, j), row in zip(pairs, rows):
        hess[i, j] = hess[j, i] = grid.ifftn(row, overwrite=True, truncated=p._truncated)
    return hess


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
    grad_u: np.ndarray | None = None,
) -> ScalarField:
    """Recover the mean-zero pressure from the velocity (and buoyancy in 2D).

    Solves lap(p) = -d_i u_j d_j u_i (+ d_2 theta when a 2D buoyancy field
    is supplied). The quadratic source is transformed with the dealiased
    `GridSpec.fftn`, which computes only the modes the 2/3 rule keeps.
    Without a temperature the pressure spectrum is therefore zero outside
    the cutoff, and its grid values and Hessian rows take the inverse
    transform that skips the zero lines; the buoyancy term d_2 theta is not
    truncated, so a 2D pressure with it takes the full one.
    grad_u, the grid values of `gradient(u)`, lets a caller that needs them
    too (`diagnostics.diag_field`) compute them once; they are computed
    here when not given. The divergence check reads div u off their trace
    and allows DIV_TOL * max(1, max |grad u|), since the roundoff in div u
    grows with the gradient.
    """
    grid = u.grid
    if theta is not None and grid.dim != 2:
        raise FieldError("buoyancy source is supported on 2D grids only")
    if grad_u is None:
        grad_u = gradient(u)
    elif grad_u.shape != (grid.dim, grid.dim) + grid.shape:
        raise FieldError(f"grad_u must have shape {(grid.dim, grid.dim) + grid.shape}, got {grad_u.shape}")
    worst, idx = max_divergence(u, grad_u)
    scale = max(1.0, float(np.max(grad_u)), -float(np.min(grad_u))) if worst > DIV_TOL else 1.0
    if worst > DIV_TOL * scale:
        coords = tuple(float(grid.axis_coords[i]) for i in idx)
        raise DivergenceError(
            f"velocity divergence {worst:.3e} exceeds {DIV_TOL * scale:.1e} "
            f"at grid index {idx}, x = {coords}"
        )

    source = -np.einsum("ij...,ji...->...", grad_u, grad_u)
    p_hat = grid.fftn(source, truncate=True)
    if theta is not None:
        np.add(p_hat, _derivative_coeffs(grid, theta.spectral, 1), out=p_hat)
    np.negative(p_hat, out=p_hat)
    np.multiply(p_hat, grid.inv_k_square, out=p_hat)
    return ScalarField._from_own_spectral(grid, p_hat, truncated=theta is None)


def project_spectral(grid: GridSpec, uh: np.ndarray, truncated: bool = False) -> np.ndarray:
    """In-place Leray projection of spectral velocity coefficients.

    truncated=True promises that uh is zero outside the dealias cutoff;
    then only the retained index blocks (`GridSpec.mode_blocks`) are
    projected, which gives the same bits there and leaves the zeros.
    """
    for block in grid.mode_blocks(truncated):
        # the block's wavenumbers along each axis, shaped as `grid.wavenumbers`
        k = [grid.axis_wavenumbers[b].reshape((-1,) + (1,) * (grid.dim - i - 1)) for i, b in enumerate(block)]
        u = uh[(slice(None),) + block]
        k_dot_u = np.zeros(u.shape[1:], dtype=np.complex128)
        term = np.empty(u.shape[1:], dtype=np.complex128)
        for i in range(grid.dim):
            k_dot_u += np.multiply(k[i], u[i], out=term)
        k_dot_u *= grid.inv_k_square[block]
        for i in range(grid.dim):
            u[i] -= np.multiply(k[i], k_dot_u, out=term)
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


__all__ = [
    "ScalarField",
    "VectorField",
    "FieldError",
    "DivergenceError",
    "EmptyRegionError",
    "gradient",
    "divergence",
    "perp_gradient",
    "hessian",
    "symmetric_from_upper",
    "max_divergence",
    "solve_pressure",
    "project_spectral",
    "ball_mask",
]
