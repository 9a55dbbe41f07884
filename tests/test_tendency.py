"""The tendency itself, against answers it does not compute: the quadratic
invariants of the truncated systems, and the closed form of one triad.

The solver steps dy/dt = R(y), where R is `solver._euler_rhs` in 3D and
`solver._boussinesq_rhs` in 2D: the projected tendency of the spectra, whose
quadratic term the dealias rule truncates. On a state whose spectrum lies
inside the cutoff, the truncated system keeps the PDE's invariants at the
level of R (Orszag 1971, J. Atmos. Sci. 28:1074; Kraichnan & Montgomery
1980, Rep. Prog. Phys. 43:547):

* 3D: Re<u, R(u)> = 0 (energy) and Re<w, R(u)> = 0 (helicity), w the
  vorticity: u.(u x w) and w.(u x w) vanish at every grid point, and the
  projection and the mask drop only modes where u and w are zero. This
  holds with aliases too, so also at `dealias = 1.0`, where the Nyquist
  planes are kept;
* 2D: Re<u, R_u> = Re<u_2, theta> (the buoyancy's work) and
  Re<theta, R_theta> = 0: u.grad(theta^2 / 2) sums to zero over the grid
  when the triple product is free of aliases, which the 2/3 rule ensures.

Each inner product is divided by the norms of its two sides. The band of
each start is the widest the cutoff keeps, so the products reach past the
cutoff and the truncation acts.

The invariants miss a fault that keeps the structure, such as a scaled
tendency. The triad catches it: on u = a cos(k.x) + b cos(p.x) with
a.k = b.p = 0, R is the projection of the trigonometric product u x w at
k + p and k - p, each dropped when it lies past the cutoff (the terms at 2k
and 2p are gradients, which the projection removes). The 2D analogue adds
theta = c cos(m.x): its buoyancy enters R_u at m, and its transport gives
R_theta at m +- k and m +- p. The closed forms below are numpy algebra on
a, b, c, k, p and m, and share no code with R.
"""

import numpy as np
import pytest

from vortexlab import solver
from vortexlab.grid import GridSpec
from vortexlab.fields import ScalarField, VectorField

TOL = 1e-14


def _tendency(grid: GridSpec, y: tuple) -> tuple:
    """R(y) as `solver._step` calls it on a stage: a fresh copy of each
    spectrum, which the rhs may consume."""
    rhs = solver._euler_rhs if grid.dim == 3 else solver._boussinesq_rhs
    return rhs(grid, [np.array(yi) for yi in y], None)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _norms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a) * np.linalg.norm(b))


def _band_start(dim: int, n: int, dealias: float, seed: int):
    grid = GridSpec(dim, n, dealias=dealias)
    # the widest band the cutoff keeps, so that the products reach past it
    band = int(grid.dealias * n / 2)
    band = band - 1 if band == n // 2 else band  # the start keeps no Nyquist mode
    assert 2 * band > grid.k_cutoff
    return grid, solver.initial_condition("random-band-limited", grid, seed=seed, band=band)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, dealias", [(16, 2 / 3), (32, 2 / 3), (64, 2 / 3), (16, 1.0), (32, 1.0)])
def test_3d_tendency_keeps_energy_and_helicity(n, dealias, seed):
    grid, state = _band_start(3, n, dealias, seed)
    uh = state.u.spectral
    k = grid.wavenumbers
    wh = 1j * np.stack([k[1] * uh[2] - k[2] * uh[1], k[2] * uh[0] - k[0] * uh[2], k[0] * uh[1] - k[1] * uh[0]])
    (r,) = _tendency(grid, (uh,))
    assert abs(_inner(uh, r)) <= TOL * _norms(uh, r)
    assert abs(_inner(wh, r)) <= TOL * _norms(wh, r)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_2d_tendency_keeps_buoyancy_work_and_theta_squared(n, seed):
    grid, state = _band_start(2, n, 2 / 3, seed)
    uh, th = state.u.spectral, state.theta.spectral
    r_u, r_th = _tendency(grid, (uh, th))
    assert abs(_inner(uh, r_u) - _inner(uh[1], th)) <= TOL * _norms(uh, r_u)
    assert abs(_inner(th, r_th)) <= TOL * _norms(th, r_th)


def _waves(grid: GridSpec, terms) -> np.ndarray:
    """The grid values of the sum of c * fn(q.x) over the (c, q, fn) terms,
    c a number or a vector, each dropped when q lies past the dealias cutoff
    along some axis."""
    x = grid.coords
    cutoff = grid.dealias * grid.n / 2
    out = 0.0
    for c, q, fn in terms:
        if np.all(np.abs(q) <= cutoff):
            out = out + np.multiply.outer(c, fn(np.tensordot(q, x, 1)))
    return out


def _project(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The part of c orthogonal to q: of the amplitude c of a wave at q, the
    part that is free of divergence."""
    return c - q * (q @ c) / (q @ q)


def _assert_matches(got: np.ndarray, want: np.ndarray, scale: float) -> None:
    """got equals want to TOL of `scale`, a bound of the sup of the product
    that R transforms and projects: its roundoff scales with that product,
    not with what the projection and the mask leave of it."""
    assert np.max(np.abs(got - want)) <= TOL * scale


# (n, dealias, k, p): both sums kept; k + p past the 2/3 cutoff (dropped);
# every mode kept at dealias = 1.0, where no product reaches the Nyquist plane
TRIADS_3D = [
    (16, 2 / 3, (1, 2, 0), (0, 1, -2)),
    (16, 2 / 3, (4, 1, 0), (3, -1, 2)),
    (16, 1.0, (1, 2, 0), (0, 1, -2)),
]


@pytest.mark.parametrize("n, dealias, k, p", TRIADS_3D)
def test_3d_triad_matches_its_closed_form(n, dealias, k, p):
    grid = GridSpec(3, n, dealias=dealias)
    k, p = np.array(k, float), np.array(p, float)
    rng = np.random.default_rng(5)
    a, b = _project(k, rng.standard_normal(3)), _project(p, rng.standard_normal(3))
    u = _waves(grid, [(a, k, np.cos), (b, p, np.cos)])
    # u x w with w = -sin(k.x) k x a - sin(p.x) p x b; its cross terms
    apb, bka = np.cross(a, np.cross(p, b)), np.cross(b, np.cross(k, a))
    terms = [(-0.5 * (apb + bka), k + p), (0.5 * (apb - bka), k - p)]
    want = _waves(grid, [(_project(q, c), q, np.sin) for c, q in terms])
    (r,) = _tendency(grid, (VectorField(grid, u).spectral,))
    norm = np.linalg.norm
    _assert_matches(grid.ifftn(r), want, (norm(a) + norm(b)) * (norm(np.cross(k, a)) + norm(np.cross(p, b))))


# (n, k, p, m): every mode kept; k + p and m + k past the cutoff (dropped)
TRIADS_2D = [
    (16, (1, 2), (2, -1), (1, 1)),
    (16, (4, 1), (3, -1), (2, 3)),
]


@pytest.mark.parametrize("n, k, p, m", TRIADS_2D)
def test_2d_triad_with_buoyancy_matches_its_closed_form(n, k, p, m):
    grid = GridSpec(2, n)
    k, p, m = np.array(k, float), np.array(p, float), np.array(m, float)
    rng = np.random.default_rng(6)
    a, b = _project(k, rng.standard_normal(2)), _project(p, rng.standard_normal(2))
    c = 0.7
    u = _waves(grid, [(a, k, np.cos), (b, p, np.cos)])
    theta = _waves(grid, [(c, m, np.cos)])
    # the force w (u_2, -u_1), w = -s_k sin(k.x) - s_p sin(p.x) with
    # s_k = k_1 a_2 - k_2 a_1; its cross terms, and the buoyancy (0, theta)
    s_k, s_p = k[0] * a[1] - k[1] * a[0], p[0] * b[1] - p[1] * b[0]
    ja, jb = np.array([a[1], -a[0]]), np.array([b[1], -b[0]])
    terms = [(-0.5 * (s_k * jb + s_p * ja), k + p, np.sin), (-0.5 * (s_k * jb - s_p * ja), k - p, np.sin)]
    want_u = _waves(grid, [(_project(q, v), q, fn) for v, q, fn in terms])
    # the buoyancy is not truncated
    want_u = want_u + np.multiply.outer(_project(m, np.array([0.0, c])), np.cos(np.tensordot(m, grid.coords, 1)))
    # -(u . grad theta), grad theta = -c m sin(m.x)
    want_th = _waves(
        grid,
        [(0.5 * c * (v @ m), m + s * q, np.sin) for v, q in ((a, k), (b, p)) for s in (1, -1)],
    )
    r_u, r_th = _tendency(grid, (VectorField(grid, u).spectral, ScalarField(grid, theta).spectral))
    speed = np.linalg.norm(a) + np.linalg.norm(b)
    _assert_matches(grid.ifftn(r_u), want_u, speed * (abs(s_k) + abs(s_p)) + c)
    _assert_matches(grid.ifftn(r_th), want_th, speed * c * np.linalg.norm(m))
