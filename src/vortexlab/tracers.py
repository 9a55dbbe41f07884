"""Lagrangian tracers: spectral point sampling, advection, and the
verification of transport identities and growth bounds along trajectories.

Positions are advanced with the same RK4 stages as the field solve, and all
point values are taken from the trigonometric interpolant, which is exact
for band-limited fields. Material derivatives along a trajectory are
estimated with second-order finite differences of the sampled series, so
identity residuals must shrink at order >= 2 under step refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import cumulative_trapezoid, uniform_step
from .diagnostics import direction_quantities, negative_part, positive_part
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


def advance_positions(
    grid: GridSpec, stages: list, positions: np.ndarray, dt: float
) -> np.ndarray:
    """RK4 position update fed by the solver's four stage velocity fields."""
    (_, uh1), (_, uh2), (_, uh3), (_, uh4) = stages
    v1 = SpectralSampler(grid, positions).sample(uh1).T
    v2 = SpectralSampler(grid, positions + 0.5 * dt * v1).sample(uh2).T
    v3 = SpectralSampler(grid, positions + 0.5 * dt * v2).sample(uh3).T
    v4 = SpectralSampler(grid, positions + dt * v3).sample(uh4).T
    new = positions + (dt / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    if not np.all(np.isfinite(new)):
        bad = int(np.argwhere(~np.all(np.isfinite(new), axis=1))[0, 0])
        raise TracerError(f"tracer {bad} produced a non-finite position")
    return np.mod(new, grid.length)


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


@dataclass
class TracerRecord:
    """Trajectory of one tracer and the diagnostics sampled along it.

    Series keys: vec and the kernel quantities named in SERIES_KEYS.
    """

    index: int
    seed_point: np.ndarray
    kind: str
    times: np.ndarray
    positions: np.ndarray
    series: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return uniform_step(self.times)


SERIES_KEYS = (
    "vec_mag",
    "stretch_vec",
    "stretch_vec_mag",
    "hess_vec",
    "alpha",
    "rho",
    "align",
    "stretch_balance",
    "p_xi_mag",
    "rate_xi_mag",
    "rate_zeta_mag",
    "active",
    "stretch_active",
)


def diagnostics_series(vec: np.ndarray, mat: np.ndarray, hess: np.ndarray, eps: float) -> dict:
    """Pointwise diagnostics for sampled (time, tracer) arrays, read from the
    direction kernel.

    vec: (k, p, d); mat, hess: (k, p, d, d). mat is the strain in 3D and the
    velocity Jacobian in 2D, matching the grid diagnostics.
    """
    q = direction_quantities(vec, mat, hess, eps)
    return {"vec": q.vec, **{key: getattr(q, key) for key in SERIES_KEYS}}


def _valid_window(active: np.ndarray, halfwidth: int = 2) -> np.ndarray:
    """True where the FD stencil around an index touches only active samples."""
    ok = active.astype(bool).copy()
    for shift in range(1, halfwidth + 1):
        ok[shift:] &= active[:-shift]
        ok[:-shift] &= active[shift:]
    return ok


def dynamical_residuals(record: TracerRecord, accuracy: int = 4) -> dict[str, np.ndarray]:
    """Residual series of the transport identities along one trajectory.

    Each residual is (finite-difference estimate of the left side) minus the
    sampled right side; entries are NaN where the carrier vector degenerates
    within the stencil. Interior estimates use stencils of the requested
    accuracy (4 by default, 2 when fewer than 7 samples exist), so residuals
    vanish under step refinement well above the required second order. Keys:

    * vec_transport:    rate of the carrier vector minus its stretching
    * vec_mag_rate:     rate of |vec| minus alpha |vec|
    * stretch_mag_rate: rate of the stretched magnitude plus the alignment term
    * log_curvature:    second rate of log|vec| minus the stretch balance
    * second_accel:     second rate of the carrier vector plus the Hessian term
    """
    s = record.series
    dt = record.dt
    if record.times.size < 7:
        accuracy = 2
    halfwidth = accuracy // 2 + 1
    valid = _valid_window(s["active"], halfwidth)
    valid_stretch = _valid_window(s["active"] & s["stretch_active"], halfwidth)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.where(s["active"], np.log(np.where(s["active"], s["vec_mag"], 1.0)), np.nan)

    d_vec = time_derivative(s["vec"], dt, 1, accuracy)
    res_transport = np.max(np.abs(d_vec - s["stretch_vec"]), axis=-1)

    d_mag = time_derivative(s["vec_mag"], dt, 1, accuracy)
    res_mag = d_mag - s["alpha"] * s["vec_mag"]

    d_stretch = time_derivative(s["stretch_vec_mag"], dt, 1, accuracy)
    res_stretch = d_stretch + s["align"] * s["vec_mag"]

    d2_log = time_derivative(np.where(valid, log_mag, 0.0), dt, 2, accuracy)
    res_log = d2_log - s["stretch_balance"]

    d2_vec = time_derivative(s["vec"], dt, 2, accuracy)
    res_accel = np.max(np.abs(d2_vec + s["hess_vec"]), axis=-1)

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


def residual_summary(residuals: dict[str, np.ndarray], interior_only: bool = True) -> dict[str, float]:
    """Max |residual| per identity, skipping the lower-order end stencils."""
    out = {}
    for name, series in residuals.items():
        margin = 3 if series.shape[0] > 6 else 2
        window = series[margin:-margin] if interior_only and series.shape[0] > 2 * margin else series
        out[name] = float(np.nanmax(np.abs(window))) if np.any(np.isfinite(window)) else 0.0
    return out


@dataclass(frozen=True)
class BoundCheck:
    variant: str
    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    margins: np.ndarray
    tolerance: float

    @property
    def min_margin(self) -> float:
        """Smallest finite margin (inf if none is finite); `violations`
        counts the non-finite ones."""
        finite = self.margins[np.isfinite(self.margins)]
        return float(np.min(finite)) if finite.size else np.inf

    @property
    def violations(self) -> int:
        # a non-finite margin is a violation, not a pass
        ok = np.isfinite(self.margins) & (self.margins >= -self.tolerance)
        return int(np.count_nonzero(~ok))


def _double_cumtrapz(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    return cumulative_trapezoid(times, cumulative_trapezoid(times, values))


def growth_bound_check(record: TracerRecord, variant: str, tolerance: float) -> BoundCheck:
    """Quadrature the growth bound's right side and compare with the measured
    carrier magnitude along the trajectory.

    Variants:

    * 'lemma':      (m0 + s0 t) exp( II[ negative part of alignment ] )
    * 'double-exp':  m0 exp( alpha0 t + II[ positive part of stretch balance ] ),
                     the twice-integrated log-curvature bound
    * 'damped':      (m0 + sqrt(2) s0 t) exp( 2 J(t) ) with direction-rate
                     damping factors inside the iterated integral (3D only)

    where m0 and s0 are the initial carrier and stretched magnitudes.
    """
    s = record.series
    t = record.times - record.times[0]
    m0 = float(s["vec_mag"][0])
    s0 = float(s["stretch_vec_mag"][0])
    measured = s["vec_mag"]

    if variant == "lemma":
        # where the stretched vector degenerates the alignment direction is
        # undefined; |P xi| dominates the bracket there and keeps the bound valid
        bracket = np.where(
            s["stretch_active"],
            negative_part(s["align"]),
            np.where(s["active"], s["p_xi_mag"], 0.0),
        )
        exponent = _double_cumtrapz(t, bracket)
        bound = (m0 + s0 * t) * np.exp(exponent)
    elif variant == "double-exp":
        alpha0 = float(s["alpha"][0])
        exponent = alpha0 * t + _double_cumtrapz(t, positive_part(s["stretch_balance"]))
        bound = m0 * np.exp(exponent)
    elif variant == "damped":
        if record.kind != "euler":
            raise ValueError("the damped bound applies to the 3D diagnostics only")
        a_int = cumulative_trapezoid(t, s["rate_xi_mag"])
        c_int = cumulative_trapezoid(t, s["rate_zeta_mag"])
        inner = cumulative_trapezoid(t, s["p_xi_mag"] * np.exp(c_int))
        outer = cumulative_trapezoid(t, np.exp(a_int - c_int) * inner)
        bound = (m0 + np.sqrt(2.0) * s0 * t) * np.exp(2.0 * np.exp(-a_int) * outer)
    else:
        raise ValueError(f"unknown bound variant {variant!r}; choose from {BOUND_VARIANTS}")

    margins = bound - measured
    return BoundCheck(
        variant=variant,
        times=record.times,
        measured=measured,
        bound=bound,
        margins=margins,
        tolerance=tolerance,
    )


__all__ = [
    "BOUND_VARIANTS",
    "TracerError",
    "SpectralSampler",
    "advance_positions",
    "TracerRecord",
    "time_derivative",
    "diagnostics_series",
    "dynamical_residuals",
    "residual_summary",
    "BoundCheck",
    "growth_bound_check",
]
