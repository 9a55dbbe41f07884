"""Pseudo-spectral time integration of incompressible flow on the torus.

3D: inviscid momentum transport with the nonlinearity in rotational form
(u x curl u), which is a pure gradient away from the divergence-free part
and therefore conserves kinetic energy up to time-integration error.

2D: the same transport plus a vertical buoyancy force from an advected
temperature field. The mean (zero-mode) force is removed, i.e. the solver
works in the frame of the mean flow; on a periodic box a nonzero mean
buoyancy cannot be balanced by a periodic pressure and would only
accelerate the box average.

Time stepping is classical RK4 with a fixed step; quadratic terms are
dealiased with the grid's truncation rule before projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, VectorField, project_spectral
from .grid import GridSpec

INITIAL_CONDITIONS = (
    "taylor-green-3d",
    "taylor-green-2d",
    "taylor-green-2d-embedded",
    "boussinesq-bubble",
    "random-band-limited",
)


class SolverError(RuntimeError):
    """Time integration failure."""


class CflError(SolverError):
    """Advective CFL guard tripped."""


class NonFiniteStateError(SolverError):
    """NaN or Inf detected in the evolved state."""


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step RK4 configuration; cfl_guard caps max|u| dt / dx when set."""

    dt: float
    cfl_guard: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.cfl_guard is not None and not self.cfl_guard > 0:
            raise ValueError("cfl_guard must be positive when set")


@dataclass(frozen=True)
class EulerState:
    time: float
    u: VectorField


@dataclass(frozen=True)
class BoussinesqState:
    time: float
    u: VectorField
    theta: ScalarField


def _vorticity_spectral(grid: GridSpec, uh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spectral curl of uh into `out`: 3 components in 3D, 1 in 2D."""
    k = grid.wavenumbers
    pairs = ((1, 2), (2, 0), (0, 1)) if grid.dim == 3 else ((0, 1),)
    term = np.empty(grid.shape, dtype=np.complex128)
    for wh, (a, b) in zip(out, pairs):
        # wh = 1j * (k_a uh_b - k_b uh_a)
        np.multiply(k[a], uh[b], out=wh)
        wh -= np.multiply(k[b], uh[a], out=term)
        np.multiply(1j, wh, out=wh)
    return out


def _finish_tendency(grid: GridSpec, fh: np.ndarray) -> None:
    """Project the truncated momentum tendency and remove its mean, in place."""
    project_spectral(grid, fh)
    fh[(slice(None),) + (0,) * grid.dim] = 0.0


def _max_speed(u: np.ndarray) -> float:
    return float(np.max(np.sqrt(np.sum(u**2, axis=0))))


def _euler_rhs(grid: GridSpec, y: tuple, u: np.ndarray | None) -> tuple:
    """Projected spectral tendency of y = (uh,) under the 3D momentum
    equation in rotational form u x curl u. `u`, when given, is the grid
    velocity, bit for bit ifftn(uh); otherwise it is transformed here."""
    (uh,) = y
    if u is None:
        # a real copy, so that the complex transform is not held with w
        u = np.ascontiguousarray(grid.ifftn(uh))
    w = grid.ifftn(_vorticity_spectral(grid, uh, np.empty_like(uh)), overwrite=True)
    force = np.empty(u.shape)
    term = np.empty(grid.shape)
    for fc, (a, b) in zip(force, ((1, 2), (2, 0), (0, 1))):
        # fc = u_a w_b - u_b w_a
        np.multiply(u[a], w[b], out=fc)
        fc -= np.multiply(u[b], w[a], out=term)
    del u, w, term
    fh = grid.fftn(force)
    del force
    grid.truncate(fh, out=fh)
    _finish_tendency(grid, fh)
    return (fh,)


def _boussinesq_rhs(grid: GridSpec, y: tuple, u: np.ndarray | None) -> tuple:
    """Projected tendencies of y = (uh, th) under 2D momentum (with
    buoyancy) and temperature transport; `u` as in `_euler_rhs`.

    One inverse transform gives u (unless given), the vorticity and grad
    theta; one forward transform gives the force and the advection term.
    """
    uh, th = y
    k = grid.wavenumbers
    lead = 0 if u is not None else 2
    coeffs = np.empty((lead + 3,) + grid.shape, dtype=np.complex128)
    coeffs[:lead] = uh[:lead]
    _vorticity_spectral(grid, uh, coeffs[lead : lead + 1])
    np.multiply(1j * k[0], th, out=coeffs[lead + 1])
    np.multiply(1j * k[1], th, out=coeffs[lead + 2])
    phys = grid.ifftn(coeffs, overwrite=True)
    if u is None:
        u = phys[:2]
    w, dth0, dth1 = phys[lead:]
    # rows: the force w * (u_2, -u_1) and the advection -(u . grad theta)
    src = np.empty((3,) + grid.shape)
    np.multiply(w, u[1], out=src[0])
    np.multiply(np.negative(w, out=src[1]), u[0], out=src[1])
    np.multiply(u[0], dth0, out=src[2])
    src[2] += np.multiply(u[1], dth1, out=dth1)
    np.negative(src[2], out=src[2])
    del u, phys, w, dth0, dth1
    out = grid.fftn(src)
    del src
    grid.truncate(out, out=out)
    fh, th_rhs = out[:2], out[2]
    fh[1] += th
    _finish_tendency(grid, fh)
    return (fh, th_rhs)


def _check_cfl(grid: GridSpec, config: StepperConfig, umax: float) -> None:
    if config.cfl_guard is not None:
        cfl = umax * config.dt / grid.dx
        if cfl > config.cfl_guard:
            raise CflError(f"CFL number {cfl:.3f} exceeds guard {config.cfl_guard:.3f}")


def _check_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NonFiniteStateError("non-finite values in evolved state")


def _rk4(grid: GridSpec, config: StepperConfig, rhs, y: tuple, u: np.ndarray | None, keep_stages: bool):
    """One classical RK4 step of the spectral arrays y = (y_1, ...).

    rhs(grid, y, u) returns the tendencies of y, given the grid velocity
    u of y[0] or None. `u` is the input state's velocity samples when they
    are bit for bit the transform of y[0], else None. Returns the new
    arrays and, with keep_stages, the stage tuples at t + dt/2, t + dt/2
    and t + dt, else None: then no stage outlives its own rhs call.

    The stages are y + (dt/2) k1, y + (dt/2) k2 and y + dt k3, and the new
    state is y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4): the textbook
    expressions in their textbook order, computed in place. A tendency is
    released before the next rhs call, so at most one k is alive beside
    the accumulator.
    """
    dt = config.dt
    if u is None:
        u = np.ascontiguousarray(grid.ifftn(y[0]))
    _check_cfl(grid, config, _max_speed(u))
    k = rhs(grid, y, u)
    del u
    acc = k
    stages = [] if keep_stages else None
    for step, c in enumerate((0.5 * dt, 0.5 * dt, dt)):
        stage = tuple(_shifted(yi, c, ki) for yi, ki in zip(y, k))
        if keep_stages:
            stages.append(stage)
        if step > 0:
            for a, ki in zip(acc, k):
                a += np.multiply(2.0, ki, out=ki)
            del ki
        del k
        k = rhs(grid, stage, None)
        del stage
    for a, ki, yi in zip(acc, k, y):
        a += ki
        np.multiply(dt / 6.0, a, out=a)
        np.add(yi, a, out=a)
    _check_finite(*acc)
    return acc, stages


def _shifted(y: np.ndarray, c: float, k: np.ndarray) -> np.ndarray:
    """y + c k in a new array."""
    out = np.multiply(c, k)
    return np.add(y, out, out=out)


def _stage_list(t0: float, dt: float, y0: np.ndarray, stages: list | None) -> list | None:
    """The (time, velocity coefficients) of the four stages, read-only."""
    if stages is None:
        return None
    velocities = [y0] + [stage[0] for stage in stages]
    for uh in velocities:
        uh.flags.writeable = False
    return list(zip((t0, t0 + 0.5 * dt, t0 + 0.5 * dt, t0 + dt), velocities))


def _exact_values(field) -> np.ndarray | None:
    """The field's samples when they are the exact transform of its spectrum."""
    return field.values if field._values_exact else None


def rk4_stages_euler(state: EulerState, config: StepperConfig, keep_stages: bool = True):
    """One RK4 step; returns the new state and the four (time, uh) stages,
    or None for them with keep_stages=False, which keeps no stage past its
    use and so holds less memory."""
    grid = state.u.grid
    uh = state.u.spectral
    (uh_new,), stages = _rk4(grid, config, _euler_rhs, (uh,), _exact_values(state.u), keep_stages)
    new_state = EulerState(
        time=state.time + config.dt, u=VectorField._from_own_spectral(grid, uh_new)
    )
    return new_state, _stage_list(state.time, config.dt, uh, stages)


def rk4_stages_boussinesq(state: BoussinesqState, config: StepperConfig, keep_stages: bool = True):
    """One RK4 step; returns the new state and the four (time, uh) stages,
    or None for them with keep_stages=False, as in `rk4_stages_euler`."""
    grid = state.u.grid
    uh = state.u.spectral
    y = (uh, state.theta.spectral)
    (uh_new, th_new), stages = _rk4(
        grid, config, _boussinesq_rhs, y, _exact_values(state.u), keep_stages
    )
    new_state = BoussinesqState(
        time=state.time + config.dt,
        u=VectorField._from_own_spectral(grid, uh_new),
        theta=ScalarField._from_own_spectral(grid, th_new),
    )
    return new_state, _stage_list(state.time, config.dt, uh, stages)


def step_euler(state: EulerState, config: StepperConfig) -> EulerState:
    """Advance a 3D state by one RK4 step."""
    new_state, _ = rk4_stages_euler(state, config, keep_stages=False)
    return new_state


def step_boussinesq(state: BoussinesqState, config: StepperConfig) -> BoussinesqState:
    """Advance a 2D buoyant state by one RK4 step."""
    new_state, _ = rk4_stages_boussinesq(state, config, keep_stages=False)
    return new_state


def initial_condition(
    name: str,
    grid: GridSpec,
    seed: int | None = None,
    amplitude: float = 1.0,
    band: int = 3,
):
    """Named divergence-free, band-limited initial states."""
    # the coordinates as in `grid.coords`, but not cached on the grid for the run
    x = np.meshgrid(*([grid.axis_coords] * grid.dim), indexing="ij")
    if name == "taylor-green-3d":
        if grid.dim != 3:
            raise ValueError("taylor-green-3d requires a 3D grid")
        u = amplitude * np.stack(
            [
                np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
                -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]),
                np.zeros(grid.shape),
            ]
        )
        return EulerState(time=0.0, u=VectorField(grid, u))
    if name == "taylor-green-2d-embedded":
        if grid.dim != 3:
            raise ValueError("taylor-green-2d-embedded requires a 3D grid")
        u = amplitude * np.stack(
            [
                np.cos(x[0]) * np.sin(x[1]),
                -np.sin(x[0]) * np.cos(x[1]),
                np.zeros(grid.shape),
            ]
        )
        return EulerState(time=0.0, u=VectorField(grid, u))
    if name == "taylor-green-2d":
        if grid.dim != 2:
            raise ValueError("taylor-green-2d requires a 2D grid")
        u = amplitude * np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])])
        theta = ScalarField(grid, np.zeros(grid.shape))
        return BoussinesqState(time=0.0, u=VectorField(grid, u), theta=theta)
    if name == "boussinesq-bubble":
        if grid.dim != 2:
            raise ValueError("boussinesq-bubble requires a 2D grid")
        u = VectorField(grid, np.zeros((2,) + grid.shape))
        theta = ScalarField(grid, amplitude * np.sin(x[0]) * np.sin(x[1]))
        return BoussinesqState(time=0.0, u=u, theta=theta)
    if name == "random-band-limited":
        if seed is None:
            raise ValueError("random-band-limited requires a seed")
        rng = np.random.default_rng(seed)
        uh = grid.fftn(rng.standard_normal((grid.dim,) + grid.shape))
        mask = np.ones(grid.shape, dtype=bool)
        low = np.zeros(grid.shape, dtype=bool)
        unit = 2.0 * np.pi / grid.length
        for k in grid.wavenumbers:
            mask &= np.abs(k) <= band * unit * (1 + 1e-12)
            low |= np.abs(k) >= 0.5 * unit
        mask &= low
        uh *= mask
        project_spectral(grid, uh)
        u = grid.ifftn(uh)
        umax = np.max(np.sqrt(np.sum(u**2, axis=0)))
        if umax > 0:
            u *= amplitude / umax
        if grid.dim == 3:
            return EulerState(time=0.0, u=VectorField(grid, u))
        th = grid.fftn(rng.standard_normal(grid.shape)) * mask
        theta = grid.ifftn(th)
        tmax = np.max(np.abs(theta))
        if tmax > 0:
            theta *= amplitude / tmax
        return BoussinesqState(time=0.0, u=VectorField(grid, u), theta=ScalarField(grid, theta))
    raise ValueError(f"unknown initial condition {name!r}; choose from {INITIAL_CONDITIONS}")


def kinetic_energy(u: VectorField) -> float:
    """0.5 integral of |u|^2 over the box."""
    grid = u.grid
    return 0.5 * float(np.sum(u.values**2)) * grid.dx**grid.dim


def scalar_l2_norm(f: ScalarField) -> float:
    grid = f.grid
    return float(np.sqrt(np.sum(f.values**2) * grid.dx**grid.dim))


def spectral_tail_ratio(grid: GridSpec, *spectral_arrays: np.ndarray) -> float:
    """Energy fraction carried by the outer retained wavenumber band.

    Values above ~1e-3 indicate the resolution is being exhausted and runs
    should be flagged as under-resolved.
    """
    total = 0.0
    tail = 0.0
    for arr in spectral_arrays:
        # |u|^2 in one array; the components are summed into its first row
        e = np.abs(arr)
        np.square(e, out=e)
        rows = e.reshape((-1,) + grid.shape)
        for row in rows[1:]:
            rows[0] += row
        e = rows[0]
        total += float(np.sum(e[grid.dealias_mask]))
        tail += float(np.sum(e[grid.outer_band_mask]))
    return tail / total if total > 0 else 0.0


__all__ = [
    "INITIAL_CONDITIONS",
    "SolverError",
    "CflError",
    "NonFiniteStateError",
    "StepperConfig",
    "EulerState",
    "BoussinesqState",
    "step_euler",
    "step_boussinesq",
    "rk4_stages_euler",
    "rk4_stages_boussinesq",
    "initial_condition",
    "kinetic_energy",
    "scalar_l2_norm",
    "spectral_tail_ratio",
]
