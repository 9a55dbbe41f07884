"""Pointwise geometric diagnostics of the velocity gradient and pressure Hessian.

The same direction-field construction serves both settings:

* 3D flow: the carrier vector is the vorticity, the matrix is the strain S.
* 2D buoyant flow: the carrier vector is the perpendicular temperature
  gradient, the matrix is the full velocity Jacobian J[i, j] = d_j u_i
  (its symmetric part is never taken; the transport of the carrier vector
  requires the Jacobian orientation, not the gradient-transpose).

`direction_quantities(vec, mat, hess, eps)` is the one implementation of
the pointwise algebra. The grid diagnostics (`diag_field`), the tracer
series and the randomized identity suite all read from it, and
`kernel_inputs` is the one assembly of its inputs from derivative values,
at the tracers (per sample, in `pipeline.integrate`) and, in two parts so
that the 3D velocity gradient can be freed first, on the grid
(`diag_field`). The three derivative builders of `fields` (`gradient` for
grad u, `perp_gradient` for the 2D carrier, `hessian` for the pressure
Hessian) share one contract: each hands each spectral stack it builds to
an `on_stack` callback before its transform, for the tracers to sample,
and returns the grid values as a plain component-first array.
With A = mat and P = hess it gives xi = vec/|vec|, zeta = A xi/|A xi|,
alpha = xi.A xi, rho = xi.P xi, the alignment zeta.P xi, the stretch
balance |A xi|^2 - 2 alpha^2 - rho, and the rates along the flow: alpha
|vec| for |vec|, A xi - alpha xi for xi, -(zeta.P xi) |vec| for |A vec|,
and (-P xi + (zeta.P xi) zeta)/|A xi| for zeta.

Degeneracy convention: where |vec| <= eps, xi and every quantity derived
from it are zero; where |vec| > eps but |A xi| <= eps, zeta, the alignment
and the rate of zeta are zero.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fields import FieldError, ScalarField, VectorField, gradient, hessian, perp_gradient


def positive_part(f):
    return np.maximum(f, 0.0)


def negative_part(f):
    return np.maximum(-f, 0.0)


def _strain(grad_u: np.ndarray) -> np.ndarray:
    """The symmetric part 0.5 (G + G^T) of a batch of (..., d, d) matrices,
    in one new array with the memory order of grad_u."""
    sym = np.add(grad_u, np.swapaxes(grad_u, -1, -2))
    sym *= 0.5
    return sym


def _vorticity(g: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The vorticity of the skew parts W = g - mat of a batch of (..., 3, 3)
    velocity gradients g with strains mat, built one pair of entries of W
    at a time into a C-ordered (..., 3) array. Raises ValueError when
    max |W + W^T| exceeds 1e-12 max(max |g|, 1): the strain rounds
    g_ij + g_ji, so W is skew up to a roundoff of the size of g, not of W."""
    batch = g.shape[:-2]
    vec = np.empty(batch + (3,))
    defect = []

    def sup(w):  # max |w| with no temporary; NaN if w holds one
        return np.max([np.max(w), -np.min(w)])

    # each entry of W into an array of the batch shape, 0-d for one point,
    # so that the in-place sums below have an array to write to
    for i in range(3):
        w_ii = np.subtract(g[..., i, i], mat[..., i, i], out=np.empty(batch))
        defect.append(sup(np.add(w_ii, w_ii, out=w_ii)))
        del w_ii
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        w_ij = np.subtract(g[..., i, j], mat[..., i, j], out=np.empty(batch))
        w_ji = np.subtract(g[..., j, i], mat[..., j, i], out=np.empty(batch))
        np.subtract(w_ij, w_ji, out=vec[..., c])
        defect.append(sup(np.add(w_ij, w_ji, out=w_ij)))
        del w_ij, w_ji
    scale = max(float(sup(g)), 1.0)
    asym = np.max(defect)
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not skew-symmetric (defect {asym:.3e})")
    return vec


def _norm(x: np.ndarray) -> np.ndarray:
    """|x| along the last axis, bit for bit `np.linalg.norm(x, axis=-1)`: the
    squares added in component order, with no (..., d) array of squares. A
    single vector of shape (d,) gives a numpy scalar, as there."""
    sq = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        sq += x[..., i] * x[..., i]
    return np.sqrt(sq)


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", mat, vec)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _unit(vec: np.ndarray, mag: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return vec / np.where(ok, mag, 1.0)[..., None] * ok[..., None]


class DirectionQuantities:
    """The pointwise direction algebra of one batch, evaluated lazily.

    vec has shape (..., d); mat and hess have shape (..., d, d). Each
    quantity is an array over the batch shape (vectors keep a trailing
    component axis), computed on first access and cached, so a caller pays
    only for what it reads. eps is fixed at construction and read-only.
    """

    def __init__(self, vec: np.ndarray, mat: np.ndarray, hess: np.ndarray, eps: float):
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        self.vec = np.asarray(vec, dtype=float)
        self.mat = np.asarray(mat, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self._eps = eps

    @property
    def eps(self) -> float:
        return self._eps

    def slabs(self, width: int):
        """The batch in consecutive slabs of `width` entries along its first
        axis: (slice, DirectionQuantities with this eps) pairs, read one at a
        time so that only one slab's quantities are held. Each quantity of
        a slab equals this batch's at the same entries, bit for bit. A width
        that covers the batch yields the batch itself, with its cache."""
        size = len(self.vec)
        if width >= size:
            yield slice(0, size), self
            return
        for start in range(0, size, width):
            s = slice(start, min(start + width, size))
            yield s, direction_quantities(self.vec[s], self.mat[s], self.hess[s], self.eps)

    @cached_property
    def vec_mag(self):
        return _norm(self.vec)

    @cached_property
    def active(self):
        return self.vec_mag > self.eps

    @cached_property
    def xi(self):
        return _unit(self.vec, self.vec_mag, self.active)

    @cached_property
    def m_xi(self):
        """mat applied to xi."""
        return _apply(self.mat, self.xi)

    @cached_property
    def unit_stretch_mag(self):
        return _norm(self.m_xi)

    @cached_property
    def stretch_active(self):
        return self.active & (self.unit_stretch_mag > self.eps)

    @cached_property
    def zeta(self):
        return _unit(self.m_xi, self.unit_stretch_mag, self.stretch_active)

    @cached_property
    def alpha(self):
        return _dot(self.xi, self.m_xi)

    @cached_property
    def p_xi(self):
        return _apply(self.hess, self.xi)

    @cached_property
    def p_xi_mag(self):
        return _norm(self.p_xi)

    @cached_property
    def rho(self):
        return _dot(self.xi, self.p_xi)

    @cached_property
    def align(self):
        return _dot(self.zeta, self.p_xi)

    @cached_property
    def align_negative(self):
        return negative_part(self.align)

    @cached_property
    def stretch_balance(self):
        return self.unit_stretch_mag**2 - 2.0 * self.alpha**2 - self.rho

    @cached_property
    def stretch_excess(self):
        return positive_part(self.stretch_balance)

    @cached_property
    def stretch_vec(self):
        return _apply(self.mat, self.vec)

    @cached_property
    def stretch_vec_mag(self):
        return self.unit_stretch_mag * self.vec_mag

    @cached_property
    def hess_vec(self):
        return _apply(self.hess, self.vec)

    @cached_property
    def hess_vec_mag(self):
        return self.p_xi_mag * self.vec_mag

    @cached_property
    def rate_vec_mag(self):
        return self.alpha * self.vec_mag

    @cached_property
    def rate_xi(self):
        return self.m_xi - self.alpha[..., None] * self.xi

    @cached_property
    def rate_xi_mag(self):
        return _norm(self.rate_xi)

    @cached_property
    def rate_stretch_mag(self):
        return -self.align * self.vec_mag

    @cached_property
    def rate_zeta(self):
        return _unit(-self.p_xi + self.align[..., None] * self.zeta, self.unit_stretch_mag, self.stretch_active)

    @cached_property
    def rate_zeta_mag(self):
        return _norm(self.rate_zeta)


def direction_quantities(vec: np.ndarray, mat: np.ndarray, hess: np.ndarray, eps: float) -> DirectionQuantities:
    """The direction algebra of a batch of (vec, mat, hess) samples; see
    `DirectionQuantities`. Raises ValueError for a negative eps."""
    return DirectionQuantities(vec, mat, hess, eps)


def _carrier_and_matrix(grad_u: np.ndarray, carrier: np.ndarray | None = None):
    """The (vec, mat) of `kernel_inputs`: in 3D the vorticity and the strain,
    built with no full skew part; in 2D the carrier and the Jacobian."""
    if grad_u.shape[0] == 3:
        g = np.moveaxis(grad_u, (0, 1), (-2, -1))
        if not np.all(np.isfinite(g)):
            raise ValueError("velocity gradient has non-finite entries")
        mat = _strain(g)
        return _vorticity(g, mat), mat
    # Jacobian orientation: J[i, j] = d_j u_i, i.e. the transpose of grad_u
    return np.moveaxis(carrier, 0, -1), np.moveaxis(grad_u, (0, 1), (-1, -2))


def kernel_inputs(grad_u: np.ndarray, hess_p: np.ndarray, carrier: np.ndarray | None = None):
    """The (vec, mat, hess) of `direction_quantities` from component-first
    values on the grid or at points: grad_u[i, j] = d_i u_j, hess_p[i, j] =
    d_i d_j p and, in 2D, the carrier (the perpendicular temperature
    gradient). Components move last as views, keeping the memory order."""
    return (*_carrier_and_matrix(grad_u, carrier), np.moveaxis(hess_p, (0, 1), (-2, -1)))


def diag_field(
    u: VectorField,
    p: ScalarField,
    theta: ScalarField | None = None,
    eps: float | None = None,
    grad_u: np.ndarray | None = None,
    on_stack=None,
) -> DirectionQuantities:
    """Evaluate the pointwise diagnostics over the whole grid.

    3D input gives the vorticity/strain diagnostics and takes no temperature
    (FieldError, as in `fields.solve_pressure`); 2D input requires the
    temperature field and gives the perpendicular-gradient/Jacobian ones.
    Quantities have the grid shape. eps defaults to the rule of a run's
    first sample, 1e-12 max(max |vec|, 1), read from this carrier.
    grad_u, the array `gradient(u)` returns (as `fields.solve_pressure`
    takes it), is computed here when not given; in 3D it is read before
    the Hessian is transformed, so a caller that hands over its only
    reference lets it be freed first. on_stack, when given, goes to the
    builders `fields.perp_gradient` (2D) and `fields.hessian`, in that
    order, which hand it their "carrier" and "hessian" stacks before they
    transform them in place and return the grid arrays that the kernel
    reads; without it the Hessian rows are built one at a time, after grad
    u is freed.
    """
    grid = u.grid
    if p.grid != grid or (theta is not None and theta.grid != grid):
        raise ValueError("fields must share one grid")
    if grid.dim == 2 and theta is None:
        raise ValueError("2D diagnostics require the temperature field")
    if grid.dim == 3 and theta is not None:
        raise FieldError("a temperature field is supported on 2D grids only")
    if grad_u is None:
        grad_u = gradient(u)
    elif grad_u.shape != (grid.dim, grid.dim) + grid.shape:
        raise ValueError(f"grad_u must have shape {(grid.dim, grid.dim) + grid.shape}, got {grad_u.shape}")
    carrier = None if theta is None else perp_gradient(theta, on_stack)
    # a sampled Hessian holds its whole stack, so it is built before the
    # strain and the vorticity, which it would sit beside; an unsampled one
    # builds one row at a time, after grad u is freed
    hess = None if on_stack is None else hessian(p, on_stack)
    vec, mat = _carrier_and_matrix(grad_u, carrier)
    del grad_u
    if hess is None:
        hess = hessian(p)
    hess = np.moveaxis(hess, (0, 1), (-2, -1))
    if eps is None:
        eps = 1e-12 * max(float(np.max(_norm(vec))), 1.0)
    return direction_quantities(vec, mat, hess, eps)


__all__ = [
    "positive_part",
    "negative_part",
    "DirectionQuantities",
    "direction_quantities",
    "kernel_inputs",
    "diag_field",
]
