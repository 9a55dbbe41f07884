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
on the grid (`diag_field`) and at the tracers (`pipeline.run`). With A = mat
and P = hess it gives xi = vec/|vec|, zeta = A xi/|A xi|, alpha = xi.A xi,
rho = xi.P xi, the alignment zeta.P xi, the stretch balance
|A xi|^2 - 2 alpha^2 - rho, and the rates along the flow: alpha |vec| for
|vec|, A xi - alpha xi for xi, -(zeta.P xi) |vec| for |A vec|, and
(-P xi + (zeta.P xi) zeta)/|A xi| for zeta.

Degeneracy convention: where |vec| <= eps, xi and every quantity derived
from it are zero; where |vec| > eps but |A xi| <= eps, zeta, the alignment
and the rate of zeta are zero.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fields import ScalarField, VectorField, gradient, hessian, perp_gradient


def positive_part(f):
    return np.maximum(f, 0.0)


def negative_part(f):
    return np.maximum(-f, 0.0)


def strain_rotation_split(grad_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a velocity-gradient matrix into symmetric and skew parts."""
    grad_u = np.asarray(grad_u, dtype=float)
    if not np.all(np.isfinite(grad_u)):
        raise ValueError("velocity gradient has non-finite entries")
    sym = 0.5 * (grad_u + np.swapaxes(grad_u, -1, -2))
    skew = grad_u - sym
    return sym, skew


def vorticity_from_rotation(omega_mat: np.ndarray, skew_tol: float = 1e-12) -> np.ndarray:
    """Recover the vorticity vector from the skew part of the velocity gradient."""
    omega_mat = np.asarray(omega_mat, dtype=float)
    if omega_mat.shape[-2:] != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    scale = max(float(np.max(np.abs(omega_mat))), 1.0)
    asym = np.max(np.abs(omega_mat + np.swapaxes(omega_mat, -1, -2)))
    if asym > skew_tol * scale:
        raise ValueError(f"matrix is not skew-symmetric (defect {asym:.3e})")
    w1 = omega_mat[..., 1, 2] - omega_mat[..., 2, 1]
    w2 = omega_mat[..., 2, 0] - omega_mat[..., 0, 2]
    w3 = omega_mat[..., 0, 1] - omega_mat[..., 1, 0]
    return np.stack([w1, w2, w3], axis=-1)


def _norm(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x, axis=-1)


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
    only for what it reads. eps may be reset until the first quantity that
    depends on it is read, so a caller can set it from this batch's own
    vec_mag.
    """

    def __init__(self, vec: np.ndarray, mat: np.ndarray, hess: np.ndarray, eps: float):
        self.vec = np.asarray(vec, dtype=float)
        self.mat = np.asarray(mat, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.eps = eps

    @property
    def eps(self) -> float:
        return self._eps

    @eps.setter
    def eps(self, value: float) -> None:
        if value < 0:
            raise ValueError("eps must be nonnegative")
        # every eps-dependent quantity reads `active` first
        if "active" in self.__dict__:
            raise ValueError("eps is fixed once a quantity that depends on it has been read")
        self._eps = value

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


def kernel_inputs(grad_u: np.ndarray, hess_p: np.ndarray, carrier: np.ndarray | None = None):
    """The (vec, mat, hess) of `direction_quantities` from component-first
    values on the grid or at points: grad_u[i, j] = d_i u_j, hess_p[i, j] =
    d_i d_j p and, in 2D, the carrier (the perpendicular temperature
    gradient). Components move last as views, keeping the memory order."""
    if grad_u.shape[0] == 3:
        mat, skew = strain_rotation_split(np.moveaxis(grad_u, (0, 1), (-2, -1)))
        vec = vorticity_from_rotation(skew)
    else:
        # Jacobian orientation: J[i, j] = d_j u_i, i.e. the transpose of grad_u
        mat = np.moveaxis(grad_u, (0, 1), (-1, -2))
        vec = np.moveaxis(carrier, 0, -1)
    return vec, mat, np.moveaxis(hess_p, (0, 1), (-2, -1))


def diag_field(
    u: VectorField,
    p: ScalarField,
    theta: ScalarField | None = None,
    eps: float | None = None,
    grad_u: np.ndarray | None = None,
) -> DirectionQuantities:
    """Evaluate the pointwise diagnostics over the whole grid.

    3D input gives the vorticity/strain diagnostics; 2D input requires the
    temperature field and gives the perpendicular-gradient/Jacobian ones.
    Quantities have the grid shape. eps defaults to 1e-12 max |vec|.
    grad_u, the grid values of `gradient(u)` (as `fields.solve_pressure`
    takes them), is computed here when not given.
    """
    grid = u.grid
    if p.grid != grid or (theta is not None and theta.grid != grid):
        raise ValueError("fields must share one grid")
    if grid.dim == 2 and theta is None:
        raise ValueError("2D diagnostics require the temperature field")
    if grad_u is None:
        grad_u = gradient(u).values
    elif grad_u.shape != (grid.dim, grid.dim) + grid.shape:
        raise ValueError(f"grad_u must have shape {(grid.dim, grid.dim) + grid.shape}, got {grad_u.shape}")
    hess_p = hessian(p).values
    carrier = perp_gradient(theta).values if grid.dim == 2 else None
    q = direction_quantities(*kernel_inputs(grad_u, hess_p, carrier), 0.0 if eps is None else eps)
    if eps is None:
        q.eps = 1e-12 * float(np.max(q.vec_mag))
    return q


__all__ = [
    "positive_part",
    "negative_part",
    "strain_rotation_split",
    "vorticity_from_rotation",
    "DirectionQuantities",
    "direction_quantities",
    "kernel_inputs",
    "diag_field",
]
