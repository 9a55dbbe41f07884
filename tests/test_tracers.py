import functools

import numpy as np
import pytest

from vortexlab.criteria import SeriesError
from vortexlab.diagnostics import DirectionQuantities, direction_quantities
from vortexlab.grid import GridSpec
from vortexlab.fields import VectorField
from vortexlab.solver import StepperConfig, initial_condition, rk4_stages_euler
from vortexlab.tracers import (
    BOUND_VARIANTS,
    BoundCheck,
    SpectralSampler,
    advance_positions,
    diagnostics_series,
    dynamical_residuals,
    growth_bound_check,
    residual_summary,
    time_derivative,
)


class TestSpectralSampler:
    def test_band_limited_exactness(self):
        g = GridSpec(2, 32)
        x = g.coords
        f = np.sin(2 * x[0]) * np.cos(3 * x[1]) + 0.5 * np.cos(x[0])
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 2 * np.pi, (40, 2))
        sampler = SpectralSampler(g, pts)
        vals = sampler.sample(g.fftn(f)[None])[0]
        exact = np.sin(2 * pts[:, 0]) * np.cos(3 * pts[:, 1]) + 0.5 * np.cos(pts[:, 0])
        assert np.max(np.abs(vals - exact)) <= 1e-13

    def test_band_limited_exactness_3d_velocity(self):
        g = GridSpec(3, 32)

        def taylor_green(x, y, z):
            return np.stack([
                np.sin(x) * np.cos(y) * np.cos(z),
                -np.cos(x) * np.sin(y) * np.cos(z),
                np.zeros(np.shape(x)),
            ])

        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 2 * np.pi, (100, 3))
        vals = SpectralSampler(g, pts).sample(g.fftn(taylor_green(*g.coords)))
        assert np.max(np.abs(vals - taylor_green(*pts.T))) <= 1e-13

    @pytest.mark.parametrize("dim, n, npts, nfields", [(3, 32, 100, 15), (2, 256, 16, 9)])
    def test_velocity_rows_independent_of_stack(self, dim, n, npts, nfields):
        # tracer velocities are sampled alone, the diagnostics in one stack;
        # a row must not depend on which rows share its call
        g = GridSpec(dim, n)
        rng = np.random.default_rng(4)
        stack = g.fftn(rng.standard_normal((nfields,) + g.shape))
        sampler = SpectralSampler(g, rng.uniform(0, 2 * np.pi, (npts, dim)))
        alone = sampler.sample(stack[:dim])
        assert np.array_equal(sampler.sample(stack)[:dim], alone)

    @pytest.mark.parametrize("dim, n, npts", [(3, 16, 7), (2, 64, 5)])
    def test_rows_of_a_stack_keep_their_bits_in_a_larger_stack(self, dim, n, npts):
        # any window of at least two rows (the d rows of a vector field
        # among them) samples to the bits of the same rows in a 9-row stack
        g = GridSpec(dim, n)
        rng = np.random.default_rng(5)
        stack = g.fftn(rng.standard_normal((9,) + g.shape))
        sampler = SpectralSampler(g, rng.uniform(0, 2 * np.pi, (npts, dim)))
        full = sampler.sample(stack)
        for rows in (dim, 2, 5):
            for start in range(9 - rows + 1):
                got = sampler.sample(stack[start : start + rows])
                assert got.tobytes() == full[start : start + rows].tobytes(), (rows, start)

    def test_matches_grid_values_at_nodes(self):
        g = GridSpec(3, 16)
        rng = np.random.default_rng(1)
        f = g.ifftn(g.fftn(rng.standard_normal(g.shape)) * g.dealias_mask)
        idx = rng.integers(0, g.n, size=(10, 3))
        pts = idx * g.dx
        sampler = SpectralSampler(g, pts)
        vals = sampler.sample(g.fftn(f)[None])[0]
        assert np.allclose(vals, f[idx[:, 0], idx[:, 1], idx[:, 2]], atol=1e-12)

    def test_stacked_leading_axes(self):
        g = GridSpec(2, 16)
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((2, 3) + g.shape)
        sampler = SpectralSampler(g, rng.uniform(0, 2 * np.pi, (5, 2)))
        out = sampler.sample(g.fftn(stack))
        assert out.shape == (2, 3, 5)

    def test_point_dimension_check(self):
        g = GridSpec(2, 16)
        with pytest.raises(ValueError):
            SpectralSampler(g, np.zeros((3, 3)))


def advect_frozen(u, seeds, dt, n_steps):
    """Positions, shape (n_steps + 1, n_tracers, dim), of RK4 steps through
    the frozen field u: all four stages see its coefficients."""

    def frozen_step(on_stage):
        for _ in range(4):
            on_stage(u.spectral)

    history = [np.atleast_2d(np.asarray(seeds, dtype=float))]
    for _ in range(n_steps):
        history.append(advance_positions(u.grid, history[-1], dt, frozen_step)[1])
    return np.stack(history)


class TestAdvection:
    def test_zero_velocity_fixes_points(self):
        g = GridSpec(2, 16)
        u = VectorField(g, np.zeros((2,) + g.shape))
        seeds = np.array([[1.0, 2.0], [3.0, 4.0]])
        hist = advect_frozen(u, seeds, dt=0.1, n_steps=5)
        assert np.array_equal(hist[-1], seeds)

    def test_steady_shear_closed_form(self):
        # u = (-sin x2, 0, 0): x2, x3 frozen so each tracer sees a constant velocity
        g = GridSpec(3, 16)
        x = g.coords
        u = VectorField(g, np.stack([-np.sin(x[1]), np.zeros(g.shape), np.zeros(g.shape)]))
        seeds = np.array([[1.0, 2.0, 3.0], [0.5, 0.1, 4.0]])
        hist = advect_frozen(u, seeds, dt=0.05, n_steps=20)
        exact = np.mod(seeds[:, 0] - 1.0 * np.sin(seeds[:, 1]), 2 * np.pi)
        assert np.max(np.abs(hist[-1][:, 0] - exact)) <= 1e-12
        assert np.max(np.abs(hist[-1][:, 1:] - seeds[:, 1:])) == 0.0

    def test_positions_wrapped_into_box(self):
        g = GridSpec(2, 16)
        u = VectorField(g, np.stack([np.ones(g.shape), np.zeros(g.shape)]))
        seeds = np.array([[6.0, 1.0]])
        hist = advect_frozen(u, seeds, dt=0.5, n_steps=2)
        assert np.all(hist >= 0.0) and np.all(hist < g.length)
        assert hist[-1][0, 0] == pytest.approx((6.0 + 1.0) % g.length)

    def test_point_just_below_zero_stays_at_zero(self):
        # np.mod(-1e-17, 2 pi) is 2 pi itself, which lies outside [0, 2 pi)
        g = GridSpec(2, 16)
        u = VectorField(g, np.zeros((2,) + g.shape))
        hist = advect_frozen(u, [[-1e-17, 1.0]], dt=0.1, n_steps=2)
        assert hist[1:, 0, 0].tolist() == [0.0, 0.0]

    def test_streamline_invariant_on_steady_vortex(self):
        g = GridSpec(2, 64)
        st = initial_condition("taylor-green-2d", g)
        rng = np.random.default_rng(3)
        seeds = rng.uniform(0, 2 * np.pi, (20, 2))
        hist = advect_frozen(st.u, seeds, dt=0.01, n_steps=100)

        def stream(p):
            return -np.cos(p[..., 0]) * np.cos(p[..., 1])

        assert np.max(np.abs(stream(hist[-1]) - stream(hist[0]))) <= 1e-6

    def test_coupled_stage_advection_matches_snapshot_route(self):
        # steady flow: solver stages and snapshot midpoints agree, so both
        # tracer integrators must produce the same trajectory
        g = GridSpec(3, 16)
        st = initial_condition("taylor-green-2d-embedded", g)
        seeds = np.array([[1.0, 2.0, 3.0]])
        cfg = StepperConfig(dt=0.02)
        pos = seeds.copy()
        state = st
        for _ in range(10):
            state, pos = advance_positions(g, pos, cfg.dt, functools.partial(rk4_stages_euler, state, cfg))
        hist = advect_frozen(st.u, seeds, dt=0.02, n_steps=10)
        assert np.max(np.abs(pos - hist[-1])) <= 1e-9


class TestTimeDerivative:
    def test_constant_series(self):
        vals = np.full(9, 2.5)
        assert np.max(np.abs(time_derivative(vals, 0.1, 1))) == 0.0
        assert np.max(np.abs(time_derivative(vals, 0.1, 2))) == 0.0

    def test_quadratic_exact(self):
        times = np.linspace(0.0, 1.0, 11)
        vals = times**2
        d1 = time_derivative(vals, 0.1, 1)
        d2 = time_derivative(vals, 0.1, 2)
        assert np.max(np.abs(d1 - 2 * times)) <= 1e-12
        assert np.max(np.abs(d2 - 2.0)) <= 1e-10

    def test_fourth_order_interior(self):
        dts = [0.02, 0.01]
        errs = []
        for dt in dts:
            times = np.arange(0.0, 1.0 + dt / 2, dt)
            d1 = time_derivative(np.sin(times), dt, 1, accuracy=4)
            errs.append(np.max(np.abs(d1[3:-3] - np.cos(times)[3:-3])))
        assert errs[0] / errs[1] >= 12.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 5"):
            time_derivative(np.zeros(4), 0.1, 1)
        with pytest.raises(ValueError, match="at least 7"):
            time_derivative(np.zeros(6), 0.1, 1, accuracy=4)


def constant_field_series(kind, n_samples=11, vec=None):
    """(times, q) of one tracer in a frozen field: the carrier `vec`, zero
    matrix and Hessian; q is the kernel batch of shape (samples, 1)."""
    dim = 3 if kind == "euler" else 2
    vec = np.zeros(dim) if vec is None else np.asarray(vec)
    times = np.linspace(0.0, 1.0, n_samples)
    vecs = np.tile(vec, (n_samples, 1, 1))
    mats = np.zeros((n_samples, 1, dim, dim))
    hesses = np.zeros((n_samples, 1, dim, dim))
    return times, diagnostics_series(vecs, mats, hesses, eps=1e-12)


class TestDiagnosticsSeries:
    @pytest.mark.parametrize("delta", [1e-9, 1e-7])
    def test_near_eigenvector_rates(self, delta):
        # S = diag(2,-1,-1), P = diag(1,2,-3), v = (1, delta, 0): the exact rate
        # magnitudes are 3 delta / (1 + delta^2) and 5 delta / (4 + delta^2),
        # which a difference of squares such as sqrt(|S xi|^2 - alpha^2) loses
        # to cancellation
        vec = np.array([[[1.0, delta, 0.0]]])
        mat = np.diag([2.0, -1.0, -1.0])[None, None]
        hess = np.diag([1.0, 2.0, -3.0])[None, None]
        q = diagnostics_series(vec, mat, hess, eps=0.0)
        assert q.rate_xi_mag[0, 0] == pytest.approx(3 * delta / (1 + delta**2), rel=1e-12)
        assert q.rate_zeta_mag[0, 0] == pytest.approx(5 * delta / (4 + delta**2), rel=1e-12)

    def test_is_the_kernel_batch(self):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal((4, 3, 3))
        mat, hess = rng.standard_normal((2, 4, 3, 3, 3))
        q = diagnostics_series(vec, mat, hess, eps=1e-12)
        assert isinstance(q, DirectionQuantities)
        assert q.eps == 1e-12 and q.vec is vec and q.mat is mat and q.hess is hess


class TestDynamicalResiduals:
    def test_frozen_flow_residuals_vanish(self):
        times, q = constant_field_series("euler", vec=[0.7, -0.2, 0.1])
        res = dynamical_residuals(times, q)
        for name, series in res.items():
            assert series.shape == (times.size, 1), name
            finite = series[np.isfinite(series)]
            if name == "stretch_mag_rate":
                assert finite.size == 0  # zero matrix: stretching direction undefined
                continue
            assert finite.size > 0
            assert np.max(np.abs(finite)) <= 1e-12, name

    def test_degenerate_carrier_masked(self):
        times, q = constant_field_series("euler", vec=[0.0, 0.0, 0.0])
        res = dynamical_residuals(times, q)
        assert np.all(np.isnan(res["log_curvature"]))

    def test_residuals_need_uniform_times(self):
        times, q = constant_field_series("boussinesq", n_samples=7, vec=[1.0, 0.0])
        times = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6])
        with pytest.raises(SeriesError, match="uniform"):
            dynamical_residuals(times, q)

    def test_summary_skips_end_stencils(self):
        times, q = constant_field_series("boussinesq", vec=[1.0, 0.0])
        res = dynamical_residuals(times, q)
        summary = residual_summary(res)
        assert set(summary) == set(res)
        assert all(v <= 1e-12 for v in summary.values())


class TestGrowthBounds:
    def test_frozen_flow_saturates_with_equality(self):
        times, q = constant_field_series("euler", vec=[0.5, 0.5, 0.0])
        for variant in ("lemma", "double-exp", "damped"):
            check = growth_bound_check(times, q, variant, tolerance=1e-12)
            assert check.margins.shape == (times.size, 1)
            assert check.violations == 0
            assert np.max(np.abs(check.margins)) <= 1e-12, variant

    def test_non_finite_margin_is_a_violation(self):
        times, q = constant_field_series("euler", vec=[0.5, 0.5, 0.0])
        # an instance attribute shadows the kernel's cached property
        q.p_xi_mag = np.ones((times.size, 1))
        q.rate_zeta_mag = np.full((times.size, 1), 1e5)
        with np.errstate(over="ignore", invalid="ignore"):
            check = growth_bound_check(times, q, "damped", tolerance=1e-6)
        assert not np.all(np.isfinite(check.margins))
        assert check.violations > 0

    def test_min_margin_is_over_finite_margins(self):
        margins = np.array([0.0, -1.0, np.nan, np.inf, 2.0])
        check = BoundCheck(margins, 1e-6)
        assert check.min_margin == -1.0
        assert check.violations == 3  # -1.0 and the two non-finite margins
        empty = BoundCheck(np.full(2, np.nan), 1e-6)
        assert empty.min_margin == np.inf
        assert empty.violations == 2

    def test_damped_variant_is_3d_only(self):
        times, q = constant_field_series("boussinesq", vec=[1.0, 0.0])
        with pytest.raises(ValueError, match="3D"):
            growth_bound_check(times, q, "damped", tolerance=1e-6)

    def test_unknown_variant(self):
        times, q = constant_field_series("euler", vec=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unknown bound variant"):
            growth_bound_check(times, q, "best", tolerance=1e-6)

    def test_steady_vortex_margins_nonnegative(self):
        from vortexlab import pipeline as P

        cfg = P.RunConfig(
            system="euler3d",
            n=16,
            dt=0.02,
            t_end=0.2,
            initial="taylor-green-2d-embedded",
            seed=5,
            tracer_count=6,
        )
        result = P.run(cfg)
        for agg in result.report["bound_checks"].values():
            assert agg["violations"] == 0
            assert agg["min_margin"] >= -agg["tolerance"]


class TestBatch:
    def test_batch_matches_per_tracer_calls_bit_for_bit(self):
        """`_tracer_analysis` makes one call on the whole batch where the
        tracers used to make one each; every tracer's column of the CSV
        columns, residual summary and bound aggregate keeps the bits of
        per-tracer calls on that tracer's columns, folded as one tracer at
        a time: each tracer's kernel is rebuilt from its own slices."""
        from vortexlab.pipeline import _tracer_analysis

        rng = np.random.default_rng(9)
        k = 9
        times = np.linspace(0.0, 0.4, k)
        t = times[:, None]
        sym = lambda a: a + np.swapaxes(a, -1, -2)
        # tracer 0: smooth generic series
        vec0 = rng.uniform(0.5, 1.0, 3) + rng.uniform(-1.0, 1.0, 3) * t + 0.3 * np.sin(t)
        mat0 = sym(rng.standard_normal((3, 3))) + sym(rng.standard_normal((3, 3))) * t[..., None]
        hess0 = sym(rng.standard_normal((3, 3))) * np.cos(t)[..., None]
        # tracer 1: a zero carrier, so every residual window is NaN
        vec1 = np.zeros((k, 3))
        # tracer 2: |S xi| = 1e-6 with P xi across zeta, so the direction
        # rate of zeta is 1e6 and the damped bound overflows
        vec2 = np.tile([1.0, 0.0, 0.0], (k, 1))
        mat2 = np.tile(np.diag([1e-6, 1.0, -1.0]), (k, 1, 1))
        hess2 = np.tile([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], (k, 1, 1))
        vec = np.stack([vec0, vec1, vec2], axis=1)
        mat = np.stack([mat0, mat0, mat2], axis=1)
        hess = np.stack([hess0, hess0, hess2], axis=1)
        positions = rng.uniform(0.0, 2 * np.pi, (k, 3, 3))

        with np.errstate(over="ignore", invalid="ignore"):
            columns, summaries, bound_checks = _tracer_analysis(times, vec, mat, hess, 1e-12, positions)
            q = diagnostics_series(vec, mat, hess, 1e-12)
            tol = 1e-6 * max(float(np.max(q.vec_mag)), 1e-300)
            expected_summaries = {}
            expected_checks = {v: {"min_margin": np.inf, "violations": 0, "tolerance": tol} for v in BOUND_VARIANTS}
            for p in range(positions.shape[1]):
                tracer = direction_quantities(vec[:, p : p + 1], mat[:, p : p + 1], hess[:, p : p + 1], 1e-12)
                residuals = dynamical_residuals(times, tracer)
                for name, values in residuals.items():
                    assert np.array_equal(columns[f"residual_{name}"][:, p], values[:, 0], equal_nan=True), (p, name)
                for name, value in residual_summary(residuals).items():
                    expected_summaries[name] = max(expected_summaries.get(name, 0.0), value)
                for variant in BOUND_VARIANTS:
                    check = growth_bound_check(times, tracer, variant, tol)
                    margins = columns[f"margin_{variant.replace('-', '_')}"][:, p]
                    assert np.array_equal(margins, check.margins[:, 0], equal_nan=True), (p, variant)
                    agg = expected_checks[variant]
                    agg["min_margin"] = float(min(agg["min_margin"], check.min_margin))
                    agg["violations"] += check.violations
        assert np.array_equal(columns["time"], np.broadcast_to(times[:, None], (k, 3)))
        for axis in range(3):
            assert np.array_equal(columns[f"x{axis + 1}"], positions[..., axis])
        assert np.array_equal(columns["carrier_mag"], q.vec_mag)
        assert np.all(np.isnan(columns["residual_log_curvature"][:, 1]))
        assert not np.all(np.isfinite(columns["margin_damped"][:, 2]))
        assert bound_checks["damped"]["violations"] > 0
        assert summaries == expected_summaries
        assert bound_checks == expected_checks
