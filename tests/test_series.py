"""A known answer for the RK4 solver: the time power series of its own ODE.

The solver steps dy/dt = R(y), where R is `solver._euler_rhs` in 3D and
`solver._boussinesq_rhs` in 2D: the projected, dealiased tendency of the
spectra y. R is quadratic in 3D, and in 2D a quadratic term plus the linear
buoyancy. So the Taylor series y(t) = sum_k a_k t^k of the exact solution
follows from R alone, through the polarization

    L(y) = (R(y) - R(-y)) / 2                      (zero in 3D)
    B(x, y) = (R(x + y) - R(x - y)) / 4 - L(y) / 2
    (k + 1) a_{k+1} = L(a_k) + sum_{j=0..k} B(a_j, a_{k-j}).

The series is built from R only, never from the stepper, so the two share no
code path but the tendency itself. RK4 against it must show fourth order:
the error falls 16x per halving of dt. A fault of the tendency that keeps
energy and every symmetry of the start (a tendency scaled by 1.001) or a
flipped buoyancy is off the series by orders of magnitude more than RK4.
"""

import functools
from typing import NamedTuple

import numpy as np
import pytest

from vortexlab import solver
from vortexlab.grid import GridSpec

# the series' own references to the tendencies, so that a fault planted in
# the module attribute reaches the stepper only
_EULER_RHS = solver._euler_rhs
_BOUSSINESQ_RHS = solver._boussinesq_rhs


class Case(NamedTuple):
    start: str
    dim: int
    n: int
    order: int  # K, the last power of t in the series
    end: float  # T, where RK4 and the series are compared
    rhs: object
    stepper: str  # the solver attribute that steps the start
    linear: bool  # whether the rhs has a linear part


CASES = {
    "taylor-green-3d": Case("taylor-green-3d", 3, 32, 9, 0.125, _EULER_RHS, "rk4_stages_euler", False),
    "bubble": Case("boussinesq-bubble", 2, 32, 16, 0.25, _BOUSSINESQ_RHS, "rk4_stages_boussinesq", True),
}
STEPS = (4, 8, 16)  # dt = T/4, T/8, T/16


def _spectra(state: solver.FlowState) -> tuple:
    return (state.u.spectral,) if state.theta is None else (state.u.spectral, state.theta.spectral)


def _combine(*terms) -> tuple:
    """sum of c * y over the (c, y) pairs, y a tuple of spectra."""
    return tuple(sum(c * y[i] for c, y in terms) for i in range(len(terms[0][1])))


@functools.cache
def _series(case: str) -> tuple:
    """The coefficients a_0..a_K of the case's start under its rhs."""
    c = CASES[case]
    grid = GridSpec(c.dim, c.n)

    def tendency(y):
        # a spent stage of fresh copies, which the rhs may consume
        return c.rhs(grid, [np.array(yi) for yi in y], None)

    def lin(y):
        if not c.linear:  # R(-y) = R(y) bit for bit: negation is exact
            return tuple(np.zeros_like(yi) for yi in y)
        return _combine((0.5, tendency(y)), (-0.5, tendency(_combine((-1.0, y)))))

    coeffs = [_spectra(solver.initial_condition(c.start, grid))]
    lins = [lin(coeffs[0])]
    for k in range(c.order):
        terms = [(1.0, lins[k])]
        # B is symmetric: each pair j < k - j counts twice, the middle once
        for j in range(k // 2 + 1):
            x, y = coeffs[j], coeffs[k - j]
            m = 1.0 if 2 * j == k else 2.0
            plus, minus = tendency(_combine((1.0, x), (1.0, y))), tendency(_combine((1.0, x), (-1.0, y)))
            terms += [(m / 4, plus), (-m / 4, minus), (-m / 2, lins[k - j])]
        coeffs.append(_combine(*((w / (k + 1), t) for w, t in terms)))
        lins.append(lin(coeffs[-1]))
    return grid, coeffs


def _rk4_error(case: str, steps: int) -> float:
    """max |spectrum_RK4 - spectrum_series| / max |spectrum_series| at T,
    of the velocity in 3D and of theta in 2D, after `steps` RK4 steps."""
    c = CASES[case]
    grid, coeffs = _series(case)
    exact = coeffs[-1][-1]
    for a in reversed(coeffs[:-1]):
        exact = a[-1] + c.end * exact
    state = solver.initial_condition(c.start, grid)
    config = solver.StepperConfig(c.end / steps)
    for _ in range(steps):
        state = getattr(solver, c.stepper)(state, config)
    return float(np.max(np.abs(_spectra(state)[-1] - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("case", list(CASES))
def test_rk4_converges_to_the_series_at_fourth_order(case):
    errors = [_rk4_error(case, steps) for steps in STEPS]
    assert errors[0] <= 1e-9, errors
    assert all(coarse >= 14.0 * fine for coarse, fine in zip(errors, errors[1:])), errors


def _scaled_euler_rhs(grid, y, u):
    return tuple(1.001 * k for k in _EULER_RHS(grid, y, u))


def _flipped_buoyancy_rhs(grid, y, u):
    """The 2D tendency with the buoyancy's sign flipped: the projected,
    mean-free (0, theta) taken off twice."""
    th = y[-1]  # read only, by the rhs too
    fh, th_rhs = _BOUSSINESQ_RHS(grid, y, u)
    buoyancy = np.zeros((2,) + grid.shape, dtype=np.complex128)
    buoyancy[1] = th
    solver._finish_tendency(grid, buoyancy, truncated=False)
    return (fh - 2.0 * buoyancy, th_rhs)


@pytest.mark.parametrize(
    "case, attribute, faulty",
    [
        ("taylor-green-3d", "_euler_rhs", _scaled_euler_rhs),
        ("bubble", "_boussinesq_rhs", _flipped_buoyancy_rhs),
    ],
)
def test_a_faulty_tendency_misses_the_series(monkeypatch, case, attribute, faulty):
    monkeypatch.setattr(solver, attribute, faulty)
    assert _rk4_error(case, STEPS[0]) > 1e-9
