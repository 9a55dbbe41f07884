"""Pseudo-spectral time integration of incompressible flow on the torus.

3D: inviscid momentum transport with the nonlinearity in rotational form
(u x curl u), which is a pure gradient away from the divergence-free part
and therefore conserves kinetic energy up to time-integration error.

2D: the same transport plus a vertical buoyancy force from an advected
temperature field. The mean (zero-mode) force is removed, i.e. the solver
works in the frame of the mean flow; on a periodic box a nonzero mean
buoyancy cannot be balanced by a periodic pressure and would only
accelerate the box average.

Both systems share one state type, `FlowState` (a velocity and, in 2D, a
temperature; it keeps no clock), and one RK4 driver, `_step`, which hands
each stage velocity spectrum to a callback, if given, before its rhs call
takes it; the tracers sample the stages there. Time stepping is classical
RK4 with a fixed step. Quadratic terms are dealiased by the 2/3 rule (the
grid's `dealias` fraction): the forward transform of the force computes
only the retained modes and writes zeros at the rest (`GridSpec.fftn`
with truncate=True). The 3D tendency is then zero outside the cutoff, so
its projection visits the retained index blocks only; the 2D tendency
adds the untruncated buoyancy and takes the full projection.

The inverse transforms run in `GridSpec.work_buffer`s (with a spare row
per plane on 3D grids from n = 64, against cache thrashing). Each stage is
built in such a buffer; both rhs take it through `_velocity_and_vorticity`,
which transforms it in place once the curl has read it, and free it before
the forward transform, so no complex copy of a stage is made and no stage
outlives its rhs call. The curl and the 3D cross product run one slab of
about 256 KiB at a time. None of this moves a bit: the step is the same
arithmetic on the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, VectorField, project_spectral
from .grid import TWO_PI, GridSpec

# Each named start and the grid dimensions it is defined on: 3 for the Euler
# system, 2 for the Boussinesq one. `initial_condition` and `RunConfig` check
# a start against this table, so a new start is one entry here and one branch
# in `initial_condition`.
INITIAL_CONDITIONS = {
    "taylor-green-3d": (3,),
    "taylor-green-2d": (2,),
    "taylor-green-2d-embedded": (3,),
    "boussinesq-bubble": (2,),
    "random-band-limited": (2, 3),
}


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
class FlowState:
    """The velocity and, for the 2D Boussinesq system, the temperature."""

    u: VectorField
    theta: ScalarField | None = None


_CROSS_PAIRS = {3: ((1, 2), (2, 0), (0, 1)), 2: ((0, 1),)}


def _slabs(grid: GridSpec) -> list[slice]:
    """Slices of the first grid axis into slabs of about 256 KiB of complex
    values, so that the terms of an elementwise product stay in cache
    between the passes over one slab."""
    step = max(1, (256 << 10) // (16 * grid.n ** (grid.dim - 1)))
    return [slice(i, i + step) for i in range(0, grid.n, step)]


def _vorticity_spectral(grid: GridSpec, uh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spectral curl of uh into `out`: 3 components in 3D, 1 in 2D, one
    slab (`_slabs`) at a time."""
    # complex-typed: numpy casts them so for these products anyway, and
    # casting them once saves it the buffered casts on every call
    k = [ki.astype(np.complex128) for ki in grid.wavenumbers]
    for s in _slabs(grid):
        ks = (k[0][s],) + tuple(k[1:])
        term = np.empty(uh[0, s].shape, dtype=np.complex128)
        for wh, (a, b) in zip(out[:, s], _CROSS_PAIRS[grid.dim]):
            # wh = 1j * (k_a uh_b - k_b uh_a)
            np.multiply(ks[a], uh[b, s], out=wh)
            wh -= np.multiply(ks[b], uh[a, s], out=term)
            np.multiply(1j, wh, out=wh)
    return out


def _finish_tendency(grid: GridSpec, fh: np.ndarray, truncated: bool) -> None:
    """Project the momentum tendency and remove its mean, in place; with
    truncated=True fh is zero outside the dealias cutoff, and the
    projection visits the retained modes only."""
    project_spectral(grid, fh, truncated)
    fh[(slice(None),) + (0,) * grid.dim] = 0.0


def _velocity_and_vorticity(grid: GridSpec, y: tuple | list, u: list | None) -> tuple:
    """The grid velocity and vorticity of y's first spectrum. With `u` given
    (a one-element list holding ifftn(y[0]) bit for bit), y is only read and
    u.pop() is the velocity. Else y is a list holding a spent stage, whose
    velocity spectrum is popped and transformed in place once the curl has
    read it. The curl is transformed in a `GridSpec.work_buffer`."""
    uh = y.pop(0) if u is None else y[0]
    curl = grid.work_buffer((len(_CROSS_PAIRS[grid.dim]),))
    w = grid.ifftn(_vorticity_spectral(grid, uh, curl), overwrite=True)
    return (grid.ifftn(uh, overwrite=True) if u is None else u.pop()), w


def _euler_rhs(grid: GridSpec, y: tuple | list, u: list | None) -> tuple:
    """Projected spectral tendency of y = (uh,) under the 3D momentum
    equation in rotational form u x curl u; y and `u` as in
    `_velocity_and_vorticity`."""
    u, w = _velocity_and_vorticity(grid, y, u)
    force = np.empty(u.shape)
    for s in _slabs(grid):
        term = np.empty(force[0, s].shape)
        for fc, (a, b) in zip(force[:, s], _CROSS_PAIRS[3]):
            # fc = u_a w_b - u_b w_a
            np.multiply(u[a, s], w[b, s], out=fc)
            fc -= np.multiply(u[b, s], w[a, s], out=term)
    del u, w, term
    fh = grid.fftn(force, truncate=True)
    del force
    _finish_tendency(grid, fh, truncated=True)
    return (fh,)


def _boussinesq_rhs(grid: GridSpec, y: tuple | list, u: list | None) -> tuple:
    """Projected tendencies of y = (uh, th) under 2D momentum (with
    buoyancy) and temperature transport; y and `u` as in
    `_velocity_and_vorticity`, which leaves th, the last of y, to be read.
    grad theta is transformed in a `GridSpec.work_buffer`; one forward
    transform gives the force and the advection term."""
    u, (w,) = _velocity_and_vorticity(grid, y, u)
    th = y[-1]
    dth = grid.work_buffer((2,))
    for row, k in zip(dth, grid.wavenumbers):
        np.multiply(1j * k, th, out=row)
    dth0, dth1 = grid.ifftn(dth, overwrite=True)
    # rows: the force w * (u_2, -u_1) and the advection -(u . grad theta)
    src = np.empty((3,) + grid.shape)
    np.multiply(w, u[1], out=src[0])
    np.multiply(np.negative(w, out=src[1]), u[0], out=src[1])
    np.multiply(u[0], dth0, out=src[2])
    src[2] += np.multiply(u[1], dth1, out=dth1)
    np.negative(src[2], out=src[2])
    del u, w, dth, row, dth0, dth1
    out = grid.fftn(src, truncate=True)
    del src
    fh, th_rhs = out[:2], out[2]
    fh[1] += th  # the buoyancy is not truncated, so the projection visits every mode
    _finish_tendency(grid, fh, truncated=False)
    return (fh, th_rhs)


def _check_cfl(grid: GridSpec, config: StepperConfig, u: np.ndarray) -> None:
    """Raise CflError when max|u| dt / dx of the grid velocity u exceeds the guard."""
    cfl = float(np.max(np.sqrt(np.sum(u**2, axis=0)))) * config.dt / grid.dx
    if cfl > config.cfl_guard:
        raise CflError(f"CFL number {cfl:.3f} exceeds guard {config.cfl_guard:.3f}")


def _check_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NonFiniteStateError("non-finite values in evolved state")


def _step(state: FlowState, config: StepperConfig, rhs, on_stage=None) -> FlowState:
    """One classical RK4 step of `state` under `rhs`; returns the new state.

    rhs(grid, y, u) returns the tendencies of the spectral arrays y = (uh,)
    or (uh, theta_h): of the state's, given its velocity u in a one-element
    list, or of a spent stage built in a `GridSpec.work_buffer`, with u None,
    which the rhs transforms in place (`_velocity_and_vorticity`). on_stage,
    when given, is called with each of the four stage velocity spectra, the
    input's first, just before the rhs takes it.

    The stages are y + (dt/2) k1, y + (dt/2) k2 and y + dt k3, and the new
    state is y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4): the textbook
    expressions in their textbook order, computed in place. A tendency is
    released before the next rhs call, so at most one k is alive beside
    the accumulator. The first rhs call gets the input's velocity samples
    if they are exact (else their transform), and so does the CFL guard,
    when set; without a guard no speed is computed.
    """
    grid = state.u.grid
    dt = config.dt
    y = (state.u.spectral,) if state.theta is None else (state.u.spectral, state.theta.spectral)
    # handed over in a list, so that no reference stays here across the rhs call
    u = [state.u.values if state.u._values_exact else np.ascontiguousarray(grid.ifftn(y[0]))]
    if config.cfl_guard is not None:
        _check_cfl(grid, config, u[0])
    if on_stage is not None:
        on_stage(y[0])
    k = rhs(grid, y, u)
    acc = k
    for step, c in enumerate((0.5 * dt, 0.5 * dt, dt)):
        stage = [_shifted(grid, yi, c, ki) for yi, ki in zip(y, k)]
        if step > 0:
            for a, ki in zip(acc, k):
                a += np.multiply(2.0, ki, out=ki)
            del ki
        del k
        if on_stage is not None:
            on_stage(stage[0])
        k = rhs(grid, stage, None)
        del stage
    for a, ki, yi in zip(acc, k, y):
        a += ki
        np.multiply(dt / 6.0, a, out=a)
        np.add(yi, a, out=a)
    _check_finite(*acc)
    theta = None if state.theta is None else ScalarField._from_own_spectral(grid, acc[1])
    return FlowState(VectorField._from_own_spectral(grid, acc[0]), theta)


def _shifted(grid: GridSpec, y: np.ndarray, c: float, k: np.ndarray) -> np.ndarray:
    """y + c k in a new `GridSpec.work_buffer`."""
    out = grid.work_buffer(y.shape[: y.ndim - grid.dim])
    np.multiply(c, k, out=out)
    return np.add(y, out, out=out)


def rk4_stages_euler(state: FlowState, config: StepperConfig, on_stage=None) -> FlowState:
    """One RK4 step of the 3D Euler system (`_step`): the new state; each
    stage velocity spectrum is handed to `on_stage`, if given."""
    return _step(state, config, _euler_rhs, on_stage)


def rk4_stages_boussinesq(state: FlowState, config: StepperConfig, on_stage=None) -> FlowState:
    """One RK4 step of the 2D Boussinesq system, as `rk4_stages_euler`."""
    return _step(state, config, _boussinesq_rhs, on_stage)


def _rescale(values: np.ndarray, amplitude: float, peak: float) -> None:
    """values *= amplitude / peak in place, unless peak is 0; a factor that
    overflows raises ValueError."""
    if peak > 0:
        with np.errstate(over="ignore"):
            factor = amplitude / peak
        if not np.isfinite(factor):
            raise ValueError(f"amplitude {amplitude!r} overflows the start's samples")
        values *= factor


def initial_condition(
    name: str,
    grid: GridSpec,
    seed: int | None = None,
    amplitude: float = 1.0,
    band: int = 3,
):
    """Named divergence-free, band-limited initial states: a FlowState with
    a temperature on a 2D grid, without one on a 3D grid."""
    if name not in INITIAL_CONDITIONS:
        raise ValueError(f"unknown initial condition {name!r}; choose from {tuple(INITIAL_CONDITIONS)}")
    if grid.dim not in INITIAL_CONDITIONS[name]:
        raise ValueError(f"{name} is not defined on a {grid.dim}D grid")
    # one period of 2 pi per box (a factor of exactly 1 at the default
    # length), so that the trig starts are periodic; not cached on the grid
    x = np.meshgrid(*([grid.axis_coords * (TWO_PI / grid.length)] * grid.dim), indexing="ij")
    if name == "taylor-green-3d":
        u = amplitude * np.stack(
            [
                np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
                -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]),
                np.zeros(grid.shape),
            ]
        )
    elif name == "taylor-green-2d-embedded":
        u = amplitude * np.stack(
            [
                np.cos(x[0]) * np.sin(x[1]),
                -np.sin(x[0]) * np.cos(x[1]),
                np.zeros(grid.shape),
            ]
        )
    elif name == "taylor-green-2d":
        u = amplitude * np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])])
        theta = np.zeros(grid.shape)
    elif name == "boussinesq-bubble":
        u = np.zeros((2,) + grid.shape)
        theta = amplitude * np.sin(x[0]) * np.sin(x[1])
    else:  # random-band-limited
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
        _rescale(u, amplitude, np.max(np.sqrt(np.sum(u**2, axis=0))))
        if grid.dim == 2:
            th = grid.fftn(rng.standard_normal(grid.shape)) * mask
            theta = grid.ifftn(th)
            _rescale(theta, amplitude, np.max(np.abs(theta)))
    if grid.dim == 3:
        return FlowState(VectorField(grid, u))
    return FlowState(VectorField(grid, u), ScalarField(grid, theta))


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
    "FlowState",
    "rk4_stages_euler",
    "rk4_stages_boussinesq",
    "initial_condition",
    "kinetic_energy",
    "scalar_l2_norm",
    "spectral_tail_ratio",
]
