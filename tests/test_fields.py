import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexlab.diagnostics import direction_quantities
from vortexlab.grid import GridSpec
from vortexlab.fields import (
    DivergenceError,
    EmptyRegionError,
    FieldError,
    ScalarField,
    VectorField,
    ball_mask,
    divergence,
    gradient,
    hessian,
    max_divergence,
    perp_gradient,
    project_spectral,
    solve_pressure,
)
from vortexlab.pipeline import _sup_norms


def grid3(n=16):
    return GridSpec(3, n)


def grid2(n=32):
    return GridSpec(2, n)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(4, 16)
        with pytest.raises(ValueError):
            GridSpec(3, 4)
        with pytest.raises(ValueError):
            GridSpec(3, 17)
        with pytest.raises(ValueError):
            GridSpec(2, 16, dealias=0.0)

    def test_wavenumber_layout(self):
        g = grid2()
        assert g.k_square.shape == g.shape
        assert g.k_square[0, 0] == 0.0
        assert g.inv_k_square[0, 0] == 0.0
        # |k|^2 is built on each read, not held beside its cached inverse
        assert "k_square" not in vars(g) and "inv_k_square" in vars(g)
        assert np.array_equal(g.inv_k_square[1:], 1.0 / g.k_square[1:])

    def test_dealias_mask_keeps_low_modes(self):
        g = grid2()
        assert g.dealias_mask[0, 0]
        assert g.dealias_mask[1, 2]
        assert not g.dealias_mask[g.n // 2, 0]

    def test_only_grid_imports_scipy_fft(self):
        # GridSpec.fftn / ifftn are the only transforms, so that counting
        # them counts every FFT the package makes
        package = Path(__file__).resolve().parent.parent / "src" / "vortexlab"
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name == "grid.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(name == "scipy.fft" or name.startswith("scipy.fft.") for name in names):
                    offenders.append(path.name)
        assert offenders == []

    def test_only_grid_uses_numpy_fft(self):
        # the transforms are GridSpec.fftn / ifftn, built on numpy.fft
        package = Path(__file__).resolve().parent.parent / "src" / "vortexlab"
        offenders = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "fft":
                    used = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                elif isinstance(node, ast.Import):
                    used = any(a.name.startswith("numpy.fft") for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    used = node.module.startswith("numpy.fft") or (
                        node.module == "numpy" and any(a.name == "fft" for a in node.names)
                    )
                else:
                    continue
                if used:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders and all(o.startswith("grid.py:") for o in offenders), offenders

    def test_importing_the_package_does_not_import_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "import vortexlab, vortexlab.cli, vortexlab.pipeline;"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_only_fields_builds_derivative_coefficients(self):
        # the grid diagnostics and the tracer sampling read the spectra that
        # fields.py builds, so a sign or an orientation lives in one place
        package = Path(__file__).resolve().parent.parent / "src" / "vortexlab"
        offenders = []
        for name in ("pipeline.py", "diagnostics.py"):
            for node in ast.walk(ast.parse((package / name).read_text())):
                if isinstance(node, ast.Attribute) and node.attr in ("wavenumbers", "axis_wavenumbers"):
                    offenders.append(f"{name}:{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_in_place_inverse_matches_out_of_place(self, dim):
        g = GridSpec(dim, 16)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal((2,) + g.shape) + 1j * rng.standard_normal((2,) + g.shape)
        expected = g.ifftn(coeffs)
        buffer = coeffs.copy()
        got = g.ifftn(buffer, overwrite=True)
        assert np.shares_memory(got, buffer)
        assert got.tobytes() == expected.tobytes()


class TestFieldConstruction:
    def test_shape_mismatch(self):
        g = grid2()
        with pytest.raises(FieldError):
            ScalarField(g, np.zeros((g.n, g.n + 1)))
        with pytest.raises(FieldError):
            VectorField(g, np.zeros(g.shape))

    def test_non_finite_rejected(self):
        g = grid2()
        bad = np.zeros(g.shape)
        bad[3, 4] = np.nan
        with pytest.raises(FieldError, match="non-finite"):
            ScalarField(g, bad)

    def test_values_immutable(self):
        g = grid2()
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_spectral_round_trip(self):
        g = grid3()
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.shape))
        back = ScalarField.from_spectral(g, f.spectral)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale


class TestGradient:
    def test_constant_is_flat(self):
        g = grid3()
        out = gradient(ScalarField(g, np.full(g.shape, 3.7)))
        assert np.max(np.abs(out)) <= 1e-13

    def test_scalar_analytic(self):
        g = grid3()
        x = g.coords
        out = gradient(ScalarField(g, np.sin(x[0])))
        assert np.max(np.abs(out[0] - np.cos(x[0]))) <= 1e-12
        assert np.max(np.abs(out[1])) <= 1e-12
        assert np.max(np.abs(out[2])) <= 1e-12

    def test_vector_analytic_layout(self):
        # u = (-sin x2, sin x1, 0): entry [i, j] holds d_i u_j
        g = grid3()
        x = g.coords
        u = VectorField(g, np.stack([-np.sin(x[1]), np.sin(x[0]), np.zeros(g.shape)]))
        G = gradient(u)
        assert np.max(np.abs(G[1, 0] + np.cos(x[1]))) <= 1e-12
        assert np.max(np.abs(G[0, 1] - np.cos(x[0]))) <= 1e-12
        assert np.max(np.abs(G[0, 0])) <= 1e-12

    def test_divergence_free_gradient_trace(self):
        g = grid2(64)
        x = g.coords
        u = VectorField(g, np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])]))
        G = gradient(u)
        trace = G[0, 0] + G[1, 1]
        assert np.max(np.abs(trace)) <= 1e-10


class TestPerpGradient:
    def test_constant(self):
        g = grid2()
        out = perp_gradient(ScalarField(g, np.full(g.shape, 1.2)))
        assert np.max(np.abs(out)) <= 1e-13

    def test_analytic(self):
        g = grid2()
        x = g.coords
        out = perp_gradient(ScalarField(g, np.sin(x[0])))
        assert np.max(np.abs(out[0])) <= 1e-12
        assert np.max(np.abs(out[1] - np.cos(x[0]))) <= 1e-12
        out = perp_gradient(ScalarField(g, np.sin(x[1])))
        assert np.max(np.abs(out[0] + np.cos(x[1]))) <= 1e-12
        assert np.max(np.abs(out[1])) <= 1e-12

    def test_rejects_3d(self):
        g = grid3()
        with pytest.raises(FieldError, match="2D"):
            perp_gradient(ScalarField(g, np.zeros(g.shape)))


class TestHessian:
    def test_zero(self):
        g = grid2()
        out = hessian(ScalarField(g, np.zeros(g.shape)))
        assert np.max(np.abs(out)) == 0.0

    def test_analytic(self):
        g = grid3()
        x = g.coords
        H = hessian(ScalarField(g, np.cos(x[0])))
        assert np.max(np.abs(H[0, 0] + np.cos(x[0]))) <= 1e-12
        for i in range(3):
            for j in range(3):
                if (i, j) != (0, 0):
                    assert np.max(np.abs(H[i, j])) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_transform_matches_per_entry(self, dim):
        g = GridSpec(dim, 16)
        p = ScalarField(g, np.random.default_rng(7).standard_normal(g.shape))
        H = hessian(p)
        k = g.wavenumbers
        for i in range(dim):
            for j in range(dim):
                assert np.array_equal(H[i, j], g.ifftn(-(k[i] * k[j]) * p.spectral)), (i, j)

    def test_exact_symmetry(self):
        g = grid2()
        rng = np.random.default_rng(3)
        H = hessian(ScalarField(g, rng.standard_normal(g.shape)))
        assert np.array_equal(H[0, 1], H[1, 0])


class TestDerivativeExactness:
    """Each builder's grid values equal the inverse transform of its
    per-entry coefficients bit for bit. The stacks that each builder hands
    to its `on_stack` callback, which the tracers sample, hold those
    coefficients bit for bit."""

    @staticmethod
    def _same(values, grid, coeffs):
        assert values.tobytes() == grid.ifftn(coeffs).tobytes()

    @staticmethod
    def _same_stacks(build, field, name, coeffs):
        """The stacks that build(field, on_stack) hands over, in order, hold
        the rows of coeffs; the callback changes nothing of the result.
        Returns the handed stacks."""
        handed, copies = [], []

        def on_stack(got, stack):
            assert got == name
            handed.append(stack)
            copies.append(stack.copy())  # the stack is transformed once the callback returns

        values = build(field, on_stack)
        assert b"".join(stack.tobytes() for stack in copies) == np.stack(coeffs).tobytes()
        assert values.tobytes() == build(field).tobytes()
        return handed

    @classmethod
    def _same_rows(cls, field, coeffs):
        handed = cls._same_stacks(gradient, field, "grad_u", coeffs)
        # one buffer holds each row in turn
        assert len(handed) == len(coeffs) and all(row is handed[0] for row in handed)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scalar_gradient(self, dim):
        g = GridSpec(dim, 16)
        f = ScalarField(g, np.random.default_rng(1).standard_normal(g.shape))
        k = g.wavenumbers
        coeffs = np.stack([1j * k[i] * f.spectral for i in range(dim)])
        self._same(gradient(f), g, coeffs)
        self._same_rows(f, coeffs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_vector_gradient(self, dim):
        g = GridSpec(dim, 16)
        u = VectorField(g, np.random.default_rng(2).standard_normal((dim,) + g.shape))
        k = g.wavenumbers
        coeffs = np.stack(
            [np.stack([1j * k[i] * u.spectral[j] for j in range(dim)]) for i in range(dim)]
        )
        self._same(gradient(u), g, coeffs)
        self._same_rows(u, coeffs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hessian(self, dim):
        g = GridSpec(dim, 16)
        p = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
        k = g.wavenumbers
        coeffs = np.stack(
            [np.stack([-(k[i] * k[j]) * p.spectral for j in range(dim)]) for i in range(dim)]
        )
        self._same(hessian(p), g, coeffs)
        # one stack of the distinct entries, upper triangle row by row
        upper = [coeffs[i, j] for i, j in zip(*np.triu_indices(dim))]
        (stack,) = self._same_stacks(hessian, p, "hessian", upper)
        assert stack.shape == (dim * (dim + 1) // 2,) + g.shape

    def test_perp_gradient(self):
        g = GridSpec(2, 16)
        th = ScalarField(g, np.random.default_rng(4).standard_normal(g.shape))
        k = g.wavenumbers
        coeffs = np.stack([-(1j * k[1] * th.spectral), 1j * k[0] * th.spectral])
        self._same(perp_gradient(th), g, coeffs)
        # the carrier has its own stack, apart from the pressure Hessian's
        (stack,) = self._same_stacks(perp_gradient, th, "carrier", coeffs)
        assert stack.shape == (2,) + g.shape


def _builder_cases():
    """(id, builder, its field, the shape of its grid values) of each builder."""
    cases = []
    for dim in (2, 3):
        g = GridSpec(dim, 8)
        rng = np.random.default_rng(dim)
        f = ScalarField(g, rng.standard_normal(g.shape))
        u = VectorField(g, rng.standard_normal((dim,) + g.shape))
        cases += [
            (f"gradient-scalar-{dim}d", gradient, f, (dim,) + g.shape),
            (f"gradient-vector-{dim}d", gradient, u, (dim, dim) + g.shape),
            (f"hessian-{dim}d", hessian, f, (dim, dim) + g.shape),
        ]
        if dim == 2:
            cases.append(("perp_gradient-2d", perp_gradient, f, (2,) + g.shape))
    return cases


class TestBuilderContract:
    """The derivative builders return their grid values as plain C-ordered
    float64 arrays that keep no spectrum, with a callback or without."""

    @pytest.mark.parametrize("sampled", [False, True], ids=["plain", "on_stack"])
    @pytest.mark.parametrize("case", _builder_cases(), ids=lambda case: case[0])
    def test_returns_a_c_ordered_float64_array(self, case, sampled):
        _, build, field, shape = case
        values = build(field, (lambda name, stack: None) if sampled else None)
        assert type(values) is np.ndarray
        assert values.dtype == np.float64
        assert values.flags.c_contiguous
        assert values.shape == shape


class TestSolvePressure:
    def test_zero_velocity(self):
        g = grid3()
        p = solve_pressure(VectorField(g, np.zeros((3,) + g.shape)))
        assert np.max(np.abs(p.values)) == 0.0

    def test_shear_flow_zero_pressure(self):
        g = grid3()
        x = g.coords
        u = VectorField(g, np.stack([np.sin(x[1]), np.zeros(g.shape), np.zeros(g.shape)]))
        p = solve_pressure(u)
        assert np.max(np.abs(p.values)) <= 1e-12

    def test_taylor_green_2d(self):
        g = grid2(64)
        x = g.coords
        u = VectorField(g, np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])]))
        p = solve_pressure(u)
        exact = -(np.cos(2 * x[0]) + np.cos(2 * x[1])) / 4.0
        assert np.max(np.abs(p.values - exact)) <= 1e-10
        assert abs(np.mean(p.values)) <= 1e-14

    def test_trace_identity(self):
        # tr(Hessian p) reproduces the dealiased source, velocity and buoyancy parts
        g = grid2(64)
        x = g.coords
        u = VectorField(g, np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])]))
        theta = ScalarField(g, np.sin(x[0]) * np.sin(x[1]))
        p = solve_pressure(u, theta)
        H = hessian(p)
        G = gradient(u)
        source = -np.einsum("ij...,ji...->...", G, G)
        source = g.ifftn(g.fftn(source) * g.dealias_mask) + gradient(theta)[1]
        assert np.max(np.abs(H[0, 0] + H[1, 1] - source)) <= 1e-10

    def test_given_gradient_matches_computed(self):
        g = grid2(32)
        x = g.coords
        u = VectorField(g, np.stack([np.cos(x[0]) * np.sin(x[1]), -np.sin(x[0]) * np.cos(x[1])]))
        theta = ScalarField(g, np.sin(x[0]) * np.sin(x[1]))
        p = solve_pressure(u, theta, grad_u=gradient(u))
        assert np.array_equal(p.values, solve_pressure(u, theta).values)
        with pytest.raises(FieldError, match="grad_u"):
            solve_pressure(u, grad_u=np.zeros((3, 3) + g.shape))

    def test_divergent_input_rejected_with_location(self):
        g = grid3()
        x = g.coords
        u = VectorField(g, np.stack([np.sin(x[0]), np.zeros(g.shape), np.zeros(g.shape)]))
        with pytest.raises(DivergenceError, match="grid index"):
            solve_pressure(u)

    def test_divergence_check_from_grad_u(self):
        # with s = x - x_peak, div u = (cos s0 + cos 2 s0)(1 + cos(s1)/2)(1 + cos(s2)/4),
        # whose |.| has its unique maximum, 2 * 1.5 * 1.25, at the grid point `peak`
        g = grid3()
        peak = (3, 5, 2)
        shifted = [g.coords[a] - g.axis_coords[peak[a]] for a in range(3)]
        factors = [1.0 + 0.5 * np.cos(shifted[1]), 1.0 + 0.25 * np.cos(shifted[2])]
        u0 = (np.sin(shifted[0]) + 0.5 * np.sin(2 * shifted[0])) * factors[0] * factors[1]
        u = VectorField(g, np.stack([u0, np.zeros(g.shape), np.zeros(g.shape)]))
        grad_u = gradient(u)
        worst, idx = max_divergence(u)
        assert max_divergence(u, grad_u) == (pytest.approx(worst, rel=1e-14), idx)
        assert idx == peak and worst == pytest.approx(2.0 * 1.5 * 1.25, rel=1e-13)
        messages = []
        for given in (None, grad_u):
            with pytest.raises(DivergenceError, match="grid index") as err:
                solve_pressure(u, grad_u=given)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"at grid index {peak}" in messages[0]

    @pytest.mark.parametrize("amplitude", [1.0, 1e8, 1e12])
    def test_divergence_check_scales_with_the_flow(self, amplitude):
        # roundoff puts about 1e-16 max |grad u| into div u of a solenoidal
        # field, which an absolute bound of 1e-8 rejects from about 1e8 on
        g = grid3()
        x = g.coords
        zero = np.zeros(g.shape)
        solenoidal = np.stack([np.sin(x[0]) * np.cos(x[1]), -np.cos(x[0]) * np.sin(x[1]), zero])
        p = solve_pressure(VectorField(g, amplitude * solenoidal))
        assert np.max(np.abs(p.values)) > 0
        divergent = VectorField(g, amplitude * np.stack([np.sin(x[0]), zero, zero]))
        with pytest.raises(DivergenceError, match="grid index"):
            solve_pressure(divergent)

    def test_buoyancy_needs_2d(self):
        g = grid3()
        u = VectorField(g, np.zeros((3,) + g.shape))
        theta = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(FieldError):
            solve_pressure(u, theta)

    def test_buoyancy_on_3d_is_rejected_before_the_divergence_check(self):
        # a divergent velocity too: the temperature is the first error, and
        # is reported before any gradient is computed
        g = grid3()
        zero = np.zeros(g.shape)
        u = VectorField(g, np.stack([np.sin(g.coords[0]), zero, zero]))
        theta = ScalarField(g, zero)
        with pytest.raises(FieldError, match="buoyancy source is supported on 2D grids only") as err:
            solve_pressure(u, theta)
        assert type(err.value) is FieldError


class TestProjection:
    def test_projection_removes_divergence(self):
        g = grid3()
        rng = np.random.default_rng(5)
        u = VectorField(g, rng.standard_normal((3,) + g.shape))
        proj = VectorField.from_spectral(g, project_spectral(g, u.spectral.copy()))
        worst, _ = max_divergence(proj)
        assert worst <= 1e-10

    def test_projection_idempotent(self):
        g = grid2()
        rng = np.random.default_rng(6)
        raw = VectorField(g, rng.standard_normal((2,) + g.shape))
        u = VectorField.from_spectral(g, project_spectral(g, raw.spectral.copy()))
        again = VectorField.from_spectral(g, project_spectral(g, u.spectral.copy()))
        assert np.max(np.abs(again.values - u.values)) <= 1e-12


def brute_force_ball_sup(grid, mag, center, radius):
    best = -np.inf
    coords = grid.axis_coords
    for idx in np.ndindex(*grid.shape):
        d2 = 0.0
        for axis, i in enumerate(idx):
            delta = abs(coords[i] - center[axis] % grid.length)
            delta = min(delta, grid.length - delta)
            d2 += delta * delta
        if d2 <= radius * radius:
            best = max(best, mag[idx])
    return best


def region_sup(field, center, radius):
    """Max |field| over the periodic ball B(center, radius) as a run takes
    it: `pipeline._sup_norms` of the field's samples, as its velocity, over
    the `ball_mask`, in slabs of 3 grid planes."""
    grid = field.grid
    masks = {"ball": ball_mask(grid, center, radius)}
    vec, mat = np.zeros(grid.shape + (grid.dim,)), np.zeros(grid.shape + (grid.dim, grid.dim))
    diag = direction_quantities(vec, mat, mat, 0.0)
    values = field.values.reshape((-1,) + grid.shape)
    return _sup_norms(diag, values, masks, 3)["velocity_sup"]["ball"]


class TestRegionSupNorm:
    def test_zero_field(self):
        g = grid2(16)
        f = ScalarField(g, np.zeros(g.shape))
        assert region_sup(f, (0.0, 0.0), 1.0) == 0.0

    def test_global_attained(self):
        g = grid2(16)
        f = ScalarField(g, np.cos(g.coords[0]))
        assert region_sup(f, (0.0, 0.0), 100.0) == 1.0

    def test_ball_matches_brute_force(self):
        g = grid2(16)
        f = ScalarField(g, np.cos(g.coords[0]))
        for center, radius in [((np.pi, np.pi), 0.5), ((1.0, 5.0), 1.3), ((np.pi / 2, 0.3), 0.8)]:
            expected = brute_force_ball_sup(g, np.abs(f.values), center, radius)
            assert region_sup(f, center, radius) == pytest.approx(expected, abs=0)

    def test_half_period_radius_is_a_ball_corner_radius_is_global(self):
        # the periodic ball of radius L/2 leaves out the points near the box
        # corners; only radius sqrt(dim) L/2 reaches all of them
        g = grid2(16)
        x = g.coords
        peaked = ScalarField(g, (1.0 - np.cos(x[0])) * (1.0 - np.cos(x[1])))  # max at (pi, pi)
        rng = np.random.default_rng(1)
        noise = ScalarField(g, rng.standard_normal(g.shape))
        half, corner = g.length / 2.0, np.sqrt(g.dim) * g.length / 2.0
        for f, center in [(peaked, (0.0, 0.0)), (noise, (2.0, 2.0)), (noise, (0.0, 0.0))]:
            expected = brute_force_ball_sup(g, np.abs(f.values), center, half)
            assert region_sup(f, center, half) == pytest.approx(expected, abs=0)
            assert region_sup(f, center, corner) == np.max(np.abs(f.values))
        assert region_sup(peaked, (0.0, 0.0), half) < np.max(peaked.values)

    def test_monotone_in_radius(self):
        g = grid2(16)
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.standard_normal(g.shape))
        sups = [region_sup(f, (1.0, 1.0), r) for r in (0.5, 1.0, 2.0, 3.2)]
        assert all(a <= b for a, b in zip(sups, sups[1:]))

    def test_vector_uses_euclidean_magnitude(self):
        g = grid2(16)
        u = VectorField(g, np.stack([np.full(g.shape, 3.0), np.full(g.shape, 4.0)]))
        assert region_sup(u, (0.0, 0.0), 1.0) == pytest.approx(5.0)

    def test_empty_ball_rejected(self):
        g = grid2(16)
        with pytest.raises(EmptyRegionError):
            ball_mask(g, (g.dx / 2, g.dx / 2), g.dx / 8)

    def test_nonpositive_radius_rejected(self):
        g = grid2(16)
        with pytest.raises(FieldError):
            ball_mask(g, (0.0, 0.0), 0.0)

    @pytest.mark.parametrize(
        "center, radius, message",
        [
            ((0.0, 0.0), np.nan, "radius must be positive"),
            ((np.nan, 0.0), 1.0, "center must be finite"),
            ((np.inf, 0.0), 1.0, "center must be finite"),
        ],
    )
    def test_non_finite_ball_rejected(self, center, radius, message):
        # these used to pass as a ball holding no grid point
        g = grid2(16)
        with pytest.raises(FieldError, match=message):
            ball_mask(g, center, radius)


def test_divergence_of_curl_like_field():
    g = grid2(32)
    x = g.coords
    u = VectorField(g, np.stack([np.sin(x[1]), np.sin(x[0])]))
    div = divergence(u)
    assert np.max(np.abs(div.values)) <= 1e-12
