"""Lagrangian tracers: spectral point sampling, advection, and the
verification of transport identities and growth bounds along trajectories.

Positions are advanced with the same RK4 stages as the field solve, each
sampled inside the solver's step before the stage is consumed, and all point
values are taken from the trigonometric interpolant, which is exact for
band-limited fields. Residuals and bounds read the direction kernel of the
(samples, tracers) batch, a `DirectionQuantities`, with no copy, and run
once over the whole batch; being lazy, the kernel computes only the
quantities they read. Material derivatives are finite differences along the
sample axis: fourth-order central stencils in the interior by default
(`dynamical_residuals`) and second-order one-sided ones at the ends, so
identity residuals must shrink at order >= 2 under step refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import _lemma_integral, cumulative_trapezoid, uniform_step
from .diagnostics import DirectionQuantities, direction_quantities, negative_part, positive_part
from .grid import GridSpec

BOUND_VARIANTS = ("lemma", "double-exp", "damped")


class TracerError(RuntimeError):
    pass


# Contraction order of `SpectralSampler.sample`, fixed per dimension. With
# optimize=True numpy picks the order per call shape: for a 3-field 3D stack
# it picks one naive loop over all modes and points, more than ten times
# slower than these pairwise BLAS contractions. These are the orders it picks
# for the diagnostic stacks at n=32 (3D) and n=256 (2D), so pinning them
# leaves those bits as they were. With the order pinned, a row of a stack of
# two or more rows samples to the same bits in any such stack (the velocity
# rows of a stack equal the velocity sampled alone); a stack of one row, or a
# lone field, does not: numpy's einsum takes other inner loops for a
# length-1 stack axis, and the values can differ in the last bits.
_SAMPLE_PATHS = {
    2: ["einsum_path", (0, 1), (0, 1)],
    3: ["einsum_path", (1, 2), (0, 2), (0, 1)],
}
_SAMPLE_SUBSCRIPTS = {2: "sab,pa,pb->sp", 3: "sabc,pa,pb,pc->sp"}


class SpectralSampler:
    """Evaluate trigonometric interpolants of grid fields at arbitrary points.

    The contraction order is pinned per dimension (`_SAMPLE_PATHS`) instead of
    chosen per call, so every stack goes through pairwise BLAS contractions.
    A row's bits do not depend on which other rows share its stack as long
    as the stack has at least two rows; a one-row stack (a lone field is
    one) can differ from the same row in a larger stack in the last bits.
    """

    def __init__(self, grid: GridSpec, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != grid.dim:
            raise ValueError(f"points must have {grid.dim} columns")
        self.grid = grid
        self.points = points
        k = grid.axis_wavenumbers
        # one factor of 1/n per axis makes the product the ifftn normalization
        self._phases = [
            np.exp(1j * np.outer(points[:, axis], k)) / grid.n for axis in range(grid.dim)
        ]

    def sample(self, coeffs: np.ndarray) -> np.ndarray:
        """Sample stacked spectral arrays into a new real array; leading axes are preserved."""
        coeffs = np.asarray(coeffs)
        lead = coeffs.shape[: coeffs.ndim - self.grid.dim]
        flat = coeffs.reshape((-1,) + self.grid.shape)
        dim = self.grid.dim
        out = np.einsum(_SAMPLE_SUBSCRIPTS[dim], flat, *self._phases, optimize=_SAMPLE_PATHS[dim])
        return np.ascontiguousarray(out.real).reshape(lead + (self.points.shape[0],))


def advance_positions(grid: GridSpec, positions: np.ndarray, dt: float, step) -> tuple:
    """RK4 position update fed by the solver's four stage velocity spectra,
    each sampled when step(on_stage), one solver step, hands it to on_stage.
    They are combined after the step has returned, so that a failing step
    raises its own error first. Returns the step's result and the positions."""
    shifts = (0.5 * dt, 0.5 * dt, dt)
    velocities = []

    def on_stage(uh: np.ndarray) -> None:
        at = positions + shifts[len(velocities) - 1] * velocities[-1] if velocities else positions
        velocities.append(SpectralSampler(grid, at).sample(uh).T)

    result = step(on_stage)
    v1, v2, v3, v4 = velocities
    new = positions + (dt / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    if not np.all(np.isfinite(new)):
        bad = int(np.argwhere(~np.all(np.isfinite(new), axis=1))[0, 0])
        raise TracerError(f"tracer {bad} produced a non-finite position")
    return result, grid.wrap(new)


def time_derivative(values: np.ndarray, dt: float, order: int, accuracy: int = 2) -> np.ndarray:
    """Finite differences along axis 0: central stencils in the interior,
    one-sided second-order stencils at the ends.

    accuracy 2 uses three-point central stencils; accuracy 4 uses five-point
    central stencils where they fit (falling back to the three-point ones on
    the first/last interior sample).
    """
    v = np.asarray(values, dtype=float)
    if accuracy not in (2, 4):
        raise ValueError("accuracy must be 2 or 4")
    min_samples = 5 if accuracy == 2 else 7
    if v.shape[0] < min_samples:
        raise ValueError(f"need at least {min_samples} samples for derivative estimates")
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
        if accuracy == 4:
            out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * dt)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    elif order == 2:
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt**2
        if accuracy == 4:
            out[2:-2] = (
                -v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]
            ) / (12.0 * dt**2)
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dt**2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dt**2
    else:
        raise ValueError("order must be 1 or 2")
    return out


def diagnostics_series(vec: np.ndarray, mat: np.ndarray, hess: np.ndarray, eps: float) -> DirectionQuantities:
    """`direction_quantities` of the sampled (samples, tracers) kernel inputs:
    vec (k, p, d); mat, hess (k, p, d, d). mat is the strain in 3D and the
    velocity Jacobian in 2D, matching the grid diagnostics."""
    return direction_quantities(vec, mat, hess, eps)


def _stencil(samples: int) -> tuple[int, int]:
    """The (accuracy, halfwidth) of the residuals of a series of `samples`
    samples: interior stencils of accuracy 4 from 7 samples on, else 2, and
    the halfwidth that `dynamical_residuals` masks around a degenerate
    sample and `residual_summary` skips at each end."""
    accuracy = 4 if samples >= 7 else 2
    return accuracy, accuracy // 2 + 1


def _valid_window(active: np.ndarray, halfwidth: int) -> np.ndarray:
    """True where the FD stencil around an index touches only active samples."""
    ok = active.astype(bool).copy()
    for shift in range(1, halfwidth + 1):
        ok[shift:] &= active[:-shift]
        ok[:-shift] &= active[shift:]
    return ok


def dynamical_residuals(times: np.ndarray, q: DirectionQuantities) -> dict[str, np.ndarray]:
    """Residual series (samples, tracers) of the transport identities along
    the trajectories of the kernel batch `q` (samples first) at uniform
    `times`.

    Each residual is (finite-difference estimate of the left side) minus the
    sampled right side; entries are NaN where the carrier vector degenerates
    within the stencil. Interior estimates use stencils of accuracy 4 (2 when
    fewer than 7 samples exist), so residuals vanish under step refinement
    well above the required second order. Keys:

    * vec_transport:    rate of the carrier vector minus its stretching
    * vec_mag_rate:     rate of |vec| minus alpha |vec|
    * stretch_mag_rate: rate of the stretched magnitude plus the alignment term
    * log_curvature:    second rate of log|vec| minus the stretch balance
    * second_accel:     second rate of the carrier vector plus the Hessian term
    """
    dt = uniform_step(times)
    accuracy, halfwidth = _stencil(len(times))
    valid = _valid_window(q.active, halfwidth)
    valid_stretch = _valid_window(q.active & q.stretch_active, halfwidth)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.where(q.active, np.log(np.where(q.active, q.vec_mag, 1.0)), np.nan)

    d_vec = time_derivative(q.vec, dt, 1, accuracy)
    res_transport = np.max(np.abs(d_vec - q.stretch_vec), axis=-1)

    d_mag = time_derivative(q.vec_mag, dt, 1, accuracy)
    res_mag = d_mag - q.alpha * q.vec_mag

    d_stretch = time_derivative(q.stretch_vec_mag, dt, 1, accuracy)
    res_stretch = d_stretch + q.align * q.vec_mag

    d2_log = time_derivative(np.where(valid, log_mag, 0.0), dt, 2, accuracy)
    res_log = d2_log - q.stretch_balance

    d2_vec = time_derivative(q.vec, dt, 2, accuracy)
    res_accel = np.max(np.abs(d2_vec + q.hess_vec), axis=-1)

    nanmask = np.where(valid, 1.0, np.nan)
    # the stretch-rate identity needs the stretching direction; mask samples
    # where it degenerates within the stencil
    stretch_nanmask = np.where(valid_stretch, 1.0, np.nan)
    return {
        "vec_transport": res_transport * nanmask,
        "vec_mag_rate": res_mag * nanmask,
        "stretch_mag_rate": res_stretch * stretch_nanmask,
        "log_curvature": res_log * nanmask,
        "second_accel": res_accel * nanmask,
    }


def residual_summary(residuals: dict[str, np.ndarray]) -> dict[str, float]:
    """Max |residual| per identity over the batch, skipping the lower-order end stencils."""
    out = {}
    for name, series in residuals.items():
        margin = _stencil(series.shape[0])[1]
        window = series[margin:-margin] if series.shape[0] > 2 * margin else series
        out[name] = float(np.nanmax(np.abs(window))) if np.any(np.isfinite(window)) else 0.0
    return out


@dataclass(frozen=True)
class BoundCheck:
    """The margins (bound minus measured) of one bound variant over a batch,
    and the tolerance a margin may fall below zero by."""

    margins: np.ndarray
    tolerance: float

    @property
    def min_margin(self) -> float:
        """Smallest finite margin over the batch (inf if none is finite);
        `violations` counts the non-finite ones."""
        finite = self.margins[np.isfinite(self.margins)]
        return float(np.min(finite)) if finite.size else np.inf

    @property
    def violations(self) -> int:
        # a non-finite margin is a violation, not a pass
        ok = np.isfinite(self.margins) & (self.margins >= -self.tolerance)
        return int(np.count_nonzero(~ok))


def growth_bound_check(times: np.ndarray, q: DirectionQuantities, variant: str, tolerance: float) -> BoundCheck:
    """Quadrature the growth bound's right side and compare with the measured
    carrier magnitude along the trajectories of the kernel batch `q`
    (samples first) sampled at `times`; the margins are (samples, tracers).

    Variants:

    * 'lemma':      (m0 + s0 t) exp( II[ negative part of alignment ] )
    * 'double-exp':  m0 exp( alpha0 t + II[ positive part of stretch balance ] ),
                     the twice-integrated log-curvature bound
    * 'damped':      (m0 + sqrt(2) s0 t) exp( 2 J(t) ) with direction-rate
                     damping factors inside the iterated integral (3D only)

    where m0 and s0 are the rows of initial carrier and stretched magnitudes.
    """
    measured = q.vec_mag
    t = np.asarray(times, dtype=float) - times[0]
    tc = t.reshape((-1,) + (1,) * (measured.ndim - 1))  # beside the rows m0, s0, alpha0
    m0 = measured[0]
    s0 = q.stretch_vec_mag[0]

    if variant == "lemma":
        # where the stretched vector degenerates the alignment direction is
        # undefined; |P xi| dominates the bracket there and keeps the bound valid
        bracket = np.where(
            q.stretch_active,
            negative_part(q.align),
            np.where(q.active, q.p_xi_mag, 0.0),
        )
        exponent = _lemma_integral(t, bracket, "double")
        bound = (m0 + s0 * tc) * np.exp(exponent)
    elif variant == "double-exp":
        exponent = q.alpha[0] * tc + _lemma_integral(t, positive_part(q.stretch_balance), "double")
        bound = m0 * np.exp(exponent)
    elif variant == "damped":
        if q.vec.shape[-1] != 3:
            raise ValueError("the damped bound applies to the 3D diagnostics only")
        a_int = cumulative_trapezoid(t, q.rate_xi_mag)
        c_int = cumulative_trapezoid(t, q.rate_zeta_mag)
        inner = cumulative_trapezoid(t, q.p_xi_mag * np.exp(c_int))
        outer = cumulative_trapezoid(t, np.exp(a_int - c_int) * inner)
        bound = (m0 + np.sqrt(2.0) * s0 * tc) * np.exp(2.0 * np.exp(-a_int) * outer)
    else:
        raise ValueError(f"unknown bound variant {variant!r}; choose from {BOUND_VARIANTS}")

    return BoundCheck(margins=bound - measured, tolerance=tolerance)


__all__ = [
    "BOUND_VARIANTS",
    "TracerError",
    "SpectralSampler",
    "advance_positions",
    "time_derivative",
    "diagnostics_series",
    "dynamical_residuals",
    "residual_summary",
    "BoundCheck",
    "growth_bound_check",
]
