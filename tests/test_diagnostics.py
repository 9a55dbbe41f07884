from functools import cached_property

import numpy as np
import pytest

from vortexlab.grid import GridSpec
from vortexlab.fields import (
    ScalarField,
    VectorField,
    gradient,
    hessian,
    hessian_coeffs,
    solve_pressure,
)
from vortexlab.identities import AlgebraicSample
from vortexlab.solver import initial_condition
from vortexlab.tracers import diagnostics_series
from vortexlab.diagnostics import (
    DirectionQuantities,
    diag_field,
    direction_quantities,
    negative_part,
    positive_part,
    strain_rotation_split,
    vorticity_from_rotation,
)


class TestSharpBracket:
    def test_values(self):
        assert positive_part(3.0) == 3.0
        assert positive_part(-2.0) == 0.0
        assert negative_part(-2.0) == 2.0
        assert negative_part(3.0) == 0.0

    def test_difference_recovers_input(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(100)
        assert np.allclose(positive_part(f) - negative_part(f), f)


class TestStrainRotationSplit:
    def test_symmetric_input(self):
        A = np.array([[1.0, 2.0], [2.0, -1.0]])
        sym, skew = strain_rotation_split(A)
        assert np.allclose(sym, A)
        assert np.max(np.abs(skew)) == 0.0

    def test_skew_input(self):
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
        sym, skew = strain_rotation_split(A)
        assert np.max(np.abs(sym)) == 0.0
        assert np.allclose(skew, A)

    def test_random_recomposition(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            sym, skew = strain_rotation_split(A)
            assert np.allclose(sym, sym.T)
            assert np.allclose(skew, -skew.T)
            assert np.array_equal(sym + skew, A) or np.allclose(sym + skew, A, rtol=0, atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            strain_rotation_split(np.full((3, 3), np.inf))


class TestVorticityFromRotation:
    def test_zero(self):
        assert np.allclose(vorticity_from_rotation(np.zeros((3, 3))), 0.0)

    def test_rigid_rotation(self):
        grad_u = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        _, skew = strain_rotation_split(grad_u)
        omega = vorticity_from_rotation(skew)
        assert np.allclose(omega, [0.0, 0.0, 2.0])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            omega = rng.standard_normal(3)
            mat = 0.5 * np.cross(omega, np.eye(3))  # skew part of grad u for this omega
            assert np.allclose(vorticity_from_rotation(mat), omega, rtol=0, atol=1e-15)

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            vorticity_from_rotation(np.eye(3))

    def test_batch_check_reads_the_whole_matrices(self):
        # defect max |W + W^T| and scale max(max |W|, 1) over every entry of the batch
        rng = np.random.default_rng(5)
        w = 10.0 * rng.standard_normal((4, 5, 3, 3))
        mat = w - np.swapaxes(w, -1, -2)
        mat[2, 3, 1, 0] += 1e-9
        mat[1, 1, 2, 2] = 3e-10
        defect = np.max(np.abs(mat + np.swapaxes(mat, -1, -2)))
        scale = max(float(np.max(np.abs(mat))), 1.0)
        with pytest.raises(ValueError, match=f"defect {defect:.3e}"):
            vorticity_from_rotation(mat, skew_tol=0.999 * defect / scale)
        omega = vorticity_from_rotation(mat, skew_tol=1.001 * defect / scale)
        expected = np.stack(
            [mat[..., 1, 2] - mat[..., 2, 1], mat[..., 2, 0] - mat[..., 0, 2], mat[..., 0, 1] - mat[..., 1, 0]],
            axis=-1,
        )
        assert omega.shape == expected.shape and omega.tobytes() == expected.tobytes()


class TestEulerDirections:
    def test_zero_vorticity_convention(self):
        S = np.diag([1.0, 2.0, -3.0])
        P = np.diag([1.0, 1.0, 1.0])
        d = direction_quantities(np.zeros(3), S, P, eps=0.0)
        assert np.all(d.xi == 0.0) and np.all(d.zeta == 0.0)
        assert d.alpha == d.rho == d.align == d.stretch_balance == 0.0

    def test_eigenvector_aligned(self):
        a, b, c = 1.2, -0.5, -0.7
        S = np.diag([a, b, c])
        P = np.diag([0.3, -0.1, 0.4])
        d = direction_quantities(np.array([2.0, 0.0, 0.0]), S, P, 0.0)
        assert np.allclose(d.xi, [1.0, 0.0, 0.0])
        assert d.alpha == pytest.approx(a)
        assert np.allclose(d.zeta, [np.sign(a), 0.0, 0.0])
        assert d.stretch_balance == pytest.approx(-a * a - P[0, 0])

    def test_oblique_vorticity(self):
        S = np.diag([2.0, -1.0, -1.0])
        d = direction_quantities(np.array([1.0, 1.0, 0.0]), S, np.zeros((3, 3)), 0.0)
        assert d.alpha == pytest.approx(0.5)
        # |S xi|^2 = 5/2, so the balance is 5/2 - 2 (1/2)^2 = 2
        assert d.stretch_balance == pytest.approx(2.0)

    def test_eps_band(self):
        S = np.diag([1.0, 0.0, -1.0])
        d = direction_quantities(np.array([1e-15, 0.0, 0.0]), S, np.zeros((3, 3)), eps=1e-12)
        assert np.all(d.xi == 0.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            direction_quantities(np.ones(3), np.zeros((3, 3)), np.zeros((3, 3)), eps=-1.0)

    def test_eps_reset_until_first_dependent_read(self):
        S = np.diag([1.0, 0.0, -1.0])
        d = direction_quantities(np.array([1e-3, 0.0, 0.0]), S, np.zeros((3, 3)), eps=0.0)
        assert d.vec_mag == pytest.approx(1e-3)  # does not depend on eps
        d.eps = 1e-2
        assert np.all(d.xi == 0.0)
        with pytest.raises(ValueError, match="fixed"):
            d.eps = 0.0


class TestBoussinesqDirections:
    def test_zero_carrier(self):
        d = direction_quantities(np.zeros(2), np.eye(2) - np.eye(2), np.eye(2), 0.0)
        assert d.alpha == d.rho == d.align == d.stretch_balance == 0.0

    def test_diagonal_jacobian(self):
        U = np.array([[1.0, 0.0], [0.0, -1.0]])
        d = direction_quantities(np.array([1.0, 0.0]), U, np.zeros((2, 2)), 0.0)
        assert d.alpha == pytest.approx(1.0)
        assert d.stretch_balance == pytest.approx(-1.0)

    def test_skew_jacobian(self):
        U = np.array([[0.0, 1.0], [-1.0, 0.0]])
        P = np.diag([0.25, -0.5])
        d = direction_quantities(np.array([1.0, 0.0]), U, P, 0.0)
        assert d.alpha == pytest.approx(0.0)
        assert np.linalg.norm(d.zeta) == pytest.approx(1.0)
        # |U xi| = 1 so the balance is 1 - rho
        assert d.stretch_balance == pytest.approx(1.0 - 0.25)


class TestDirectionInvariants:
    def test_rate_orthogonal_to_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            A = rng.standard_normal((3, 3))
            S = A + A.T
            S -= np.trace(S) / 3.0 * np.eye(3)
            omega = rng.standard_normal(3)
            d = direction_quantities(omega, S, np.zeros((3, 3)), 0.0)
            rate = S @ d.xi - d.alpha * d.xi
            assert np.allclose(d.rate_xi, rate, rtol=0, atol=1e-14)
            assert abs(np.dot(d.xi, rate)) <= 1e-12 * max(np.linalg.norm(rate), 1.0)

    def test_balance_recomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            A = rng.standard_normal((3, 3))
            S = A + A.T
            S -= np.trace(S) / 3.0 * np.eye(3)
            B = rng.standard_normal((3, 3))
            P = B + B.T
            omega = rng.standard_normal(3)
            d = direction_quantities(omega, S, P, 0.0)
            s_xi = np.linalg.norm(S @ d.xi)
            lhs = d.stretch_balance + 2 * d.alpha**2 + d.rho
            assert abs(lhs - s_xi**2) <= 1e-12 * max(s_xi**2, 1.0)

    def test_alignment_bounded_by_hessian_direction(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            A = rng.standard_normal((2, 2))
            U = A - np.trace(A) / 2.0 * np.eye(2)
            B = rng.standard_normal((2, 2))
            P = B + B.T
            g = rng.standard_normal(2)
            d = direction_quantities(g, U, P, 0.0)
            p_xi = P @ d.xi
            assert d.align**2 <= np.dot(p_xi, p_xi) * (1 + 1e-12)


class TestDiagField:
    def test_zero_velocity_3d(self):
        g = GridSpec(3, 16)
        u = VectorField(g, np.zeros((3,) + g.shape))
        d = diag_field(u, solve_pressure(u))
        assert np.max(np.abs(d.alpha)) == 0.0
        assert np.max(np.abs(d.align)) == 0.0
        assert np.max(d.vec_mag) == 0.0

    def test_taylor_green_passive_theta_2d(self):
        g = GridSpec(2, 32)
        x = g.coords
        u = VectorField(g, np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])]))
        theta = ScalarField(g, np.zeros(g.shape))
        d = diag_field(u, solve_pressure(u, theta), theta)
        assert np.max(d.vec_mag) == 0.0
        assert np.max(np.abs(d.stretch_balance)) == 0.0

    @pytest.mark.parametrize("initial, dim", [("taylor-green-3d", 3), ("boussinesq-bubble", 2)])
    def test_given_gradient_matches_computed(self, initial, dim):
        state = initial_condition(initial, GridSpec(dim, 16))
        theta = getattr(state, "theta", None)
        p = solve_pressure(state.u, theta)
        given = diag_field(state.u, p, theta, grad_u=gradient(state.u).values)
        computed = diag_field(state.u, p, theta)
        assert given.eps == computed.eps
        for name in ("vec", "mat", "hess", "align", "stretch_balance"):
            assert np.array_equal(getattr(given, name), getattr(computed, name)), name

    @pytest.mark.parametrize("initial, dim", [("random-band-limited", 3), ("random-band-limited", 2)])
    def test_given_hessian_stack_matches_built(self, initial, dim):
        state = initial_condition(initial, GridSpec(dim, 16), seed=4)
        theta = getattr(state, "theta", None)
        p = solve_pressure(state.u, theta)
        given = diag_field(state.u, p, theta, hess_coeffs=hessian_coeffs(p, theta))
        built = diag_field(state.u, p, theta)
        for name in ("vec", "mat", "hess"):
            a, b = getattr(given, name), getattr(built, name)
            assert a.strides == b.strides and a.tobytes() == b.tobytes(), name
        with pytest.raises(ValueError, match="Hessian coefficients must have shape"):
            diag_field(state.u, p, theta, hess_coeffs=hessian_coeffs(p)[1:])

    def test_requires_theta_in_2d(self):
        g = GridSpec(2, 16)
        u = VectorField(g, np.zeros((2,) + g.shape))
        with pytest.raises(ValueError, match="temperature"):
            diag_field(u, ScalarField(g, np.zeros(g.shape)))

    def test_grid_mismatch(self):
        g = GridSpec(3, 16)
        other = GridSpec(3, 32)
        u = VectorField(g, np.zeros((3,) + g.shape))
        with pytest.raises(ValueError, match="grid"):
            diag_field(u, ScalarField(other, np.zeros(other.shape)))

    def test_spot_check_against_pointwise_ops_3d(self):
        g = GridSpec(3, 16)
        x = g.coords
        u = VectorField(
            g,
            np.stack(
                [
                    np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
                    -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]),
                    np.zeros(g.shape),
                ]
            ),
        )
        p = solve_pressure(u)
        d = diag_field(u, p)
        grad_u = gradient(u).values
        hess_p = hessian(p).values
        rng = np.random.default_rng(6)
        for _ in range(5):
            idx = tuple(rng.integers(0, g.n, size=3))
            G = grad_u[(slice(None), slice(None)) + idx]
            sym, skew = strain_rotation_split(G)
            omega = vorticity_from_rotation(skew)
            point = direction_quantities(omega, sym, hess_p[(slice(None), slice(None)) + idx], eps=d.eps)
            assert d.alpha[idx] == pytest.approx(point.alpha, abs=1e-13)
            assert d.rho[idx] == pytest.approx(point.rho, abs=1e-13)
            assert d.align[idx] == pytest.approx(point.align, abs=1e-13)
            assert d.stretch_balance[idx] == pytest.approx(point.stretch_balance, abs=1e-13)

    def test_jacobian_orientation_in_2d(self):
        # the carrier transport rate must equal (carrier . grad) u, which fixes
        # the matrix orientation used for the 2D diagnostics
        g = GridSpec(2, 32)
        x = g.coords
        u = VectorField(g, np.stack([np.sin(x[1]), np.zeros(g.shape)]))
        theta = ScalarField(g, np.sin(x[0]))
        d = diag_field(u, solve_pressure(u, theta), theta)
        idx = (3, 7)
        jac = d.mat[idx]
        assert jac[0, 1] == pytest.approx(np.cos(g.axis_coords[7]), abs=1e-12)
        assert jac[1, 0] == pytest.approx(0.0, abs=1e-12)


SHARED_KEYS = (
    "vec_mag", "active", "stretch_active", "xi", "zeta", "alpha", "rho", "align",
    "stretch_balance", "unit_stretch_mag", "stretch_vec_mag", "p_xi_mag",
    "rate_xi_mag", "rate_zeta_mag",
)


@pytest.mark.parametrize("initial, dim", [("taylor-green-3d", 3), ("boussinesq-bubble", 2)])
def test_grid_tracer_and_suite_paths_agree_exactly(initial, dim):
    # one batch through the grid, the tracer and the identity-suite entry points
    g = GridSpec(dim, 16)
    state = initial_condition(initial, g)
    theta = state.theta if dim == 2 else None
    grid_q = diag_field(state.u, solve_pressure(state.u, theta), theta, eps=0.0)
    vec = grid_q.vec.reshape(-1, dim)
    mat = grid_q.mat.reshape(-1, dim, dim)
    hess = grid_q.hess.reshape(-1, dim, dim)
    series = diagnostics_series(vec[None], mat[None], hess[None], eps=0.0)
    suite_q = AlgebraicSample(S=mat, P=hess, v=vec).q
    for key in SHARED_KEYS:
        on_grid = getattr(grid_q, key).reshape(vec.shape[0], -1)
        assert np.array_equal(on_grid, getattr(suite_q, key).reshape(vec.shape[0], -1)), key
        if key in series:
            assert np.array_equal(on_grid, series[key].reshape(vec.shape[0], -1)), key


QUANTITIES = [name for name, v in vars(DirectionQuantities).items() if isinstance(v, cached_property)]


@pytest.mark.parametrize("dim, n, width", [(3, 32, 8), (3, 32, 5), (2, 64, 8), (2, 64, 5)])
def test_slabs_equal_the_whole_grid_bit_for_bit(dim, n, width):
    g = GridSpec(dim, n)
    state = initial_condition("random-band-limited", g, seed=3)
    theta = getattr(state, "theta", None)
    p = solve_pressure(state.u, theta)
    whole = diag_field(state.u, p, theta)
    parts = {name: [] for name in QUANTITIES}
    covered = []
    for s, part in diag_field(state.u, p, theta).slabs(width):
        assert part.eps == whole.eps
        covered.append((s.start, s.stop))
        for name in QUANTITIES:
            parts[name].append(getattr(part, name))
    assert covered == [(a, min(a + width, n)) for a in range(0, n, width)]
    assert len(QUANTITIES) >= 19
    for name in QUANTITIES:
        assert np.concatenate(parts[name]).tobytes() == getattr(whole, name).tobytes(), name
    # a width that covers the batch hands out the batch itself
    assert [part for _, part in whole.slabs(n)] == [whole]
