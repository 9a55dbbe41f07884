import numpy as np
import pytest

from vortexlab.grid import GridSpec
from vortexlab.fields import ScalarField, VectorField, max_divergence, project_spectral
from vortexlab.solver import (
    BoussinesqState,
    CflError,
    NonFiniteStateError,
    StepperConfig,
    initial_condition,
    kinetic_energy,
    rk4_stages_boussinesq,
    rk4_stages_euler,
    scalar_l2_norm,
    spectral_tail_ratio,
    step_boussinesq,
    step_euler,
)


class TestInitialConditions:
    def test_taylor_green_2d_divergence(self):
        st = initial_condition("taylor-green-2d", GridSpec(2, 32))
        worst, _ = max_divergence(st.u)
        assert worst <= 1e-12

    def test_taylor_green_3d_energy_closed_form(self):
        st = initial_condition("taylor-green-3d", GridSpec(3, 16))
        assert kinetic_energy(st.u) == pytest.approx((2 * np.pi) ** 3 / 8.0, rel=1e-12)

    def test_random_band_limited_reproducible(self):
        g = GridSpec(3, 16)
        a = initial_condition("random-band-limited", g, seed=42)
        b = initial_condition("random-band-limited", g, seed=42)
        assert np.array_equal(a.u.values, b.u.values)
        worst, _ = max_divergence(a.u)
        assert worst <= 1e-12

    def test_random_band_limited_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            initial_condition("random-band-limited", GridSpec(2, 16))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown initial condition"):
            initial_condition("vortex-soup", GridSpec(2, 16))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            initial_condition("taylor-green-3d", GridSpec(2, 16))
        with pytest.raises(ValueError):
            initial_condition("boussinesq-bubble", GridSpec(3, 16))


class TestEulerStepping:
    def test_rest_state_unchanged(self):
        g = GridSpec(3, 16)
        st = initial_condition("random-band-limited", g, seed=1, amplitude=0.0)
        new = step_euler(st, StepperConfig(dt=0.01))
        assert np.array_equal(new.u.values, st.u.values)

    def test_embedded_2d_flow_stays_planar(self):
        st = initial_condition("taylor-green-2d-embedded", GridSpec(3, 16))
        cfg = StepperConfig(dt=0.01)
        for _ in range(10):
            st = step_euler(st, cfg)
        z_variation = np.max(np.abs(st.u.values - st.u.values[:, :, :, :1]))
        assert z_variation <= 1e-13
        assert np.max(np.abs(st.u.values[2])) <= 1e-13

    def test_divergence_free_after_steps(self):
        st = initial_condition("taylor-green-3d", GridSpec(3, 16))
        cfg = StepperConfig(dt=0.01)
        for _ in range(5):
            st = step_euler(st, cfg)
        worst, _ = max_divergence(st.u)
        assert worst <= 1e-10

    def test_energy_conservation_smoke(self):
        st = initial_condition("taylor-green-3d", GridSpec(3, 16))
        e0 = kinetic_energy(st.u)
        cfg = StepperConfig(dt=0.01)
        for _ in range(20):
            st = step_euler(st, cfg)
        assert abs(kinetic_energy(st.u) - e0) / e0 <= 1e-8

    def test_cfl_guard_trips(self):
        st = initial_condition("taylor-green-3d", GridSpec(3, 16), amplitude=5.0)
        with pytest.raises(CflError, match="exceeds"):
            step_euler(st, StepperConfig(dt=0.5, cfl_guard=0.5))

    def test_blowup_detected(self):
        st = initial_condition("taylor-green-3d", GridSpec(3, 16))
        cfg = StepperConfig(dt=1e3)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
            for _ in range(5):
                st = step_euler(st, cfg)

    def test_temporal_self_convergence(self):
        g = GridSpec(3, 16)

        def advance(dt, t_end=0.08):
            st = initial_condition("taylor-green-3d", g)
            cfg = StepperConfig(dt=dt)
            for _ in range(round(t_end / dt)):
                st = step_euler(st, cfg)
            return st.u.values

        ref = advance(0.0025)
        err_coarse = np.max(np.abs(advance(0.02) - ref))
        err_fine = np.max(np.abs(advance(0.01) - ref))
        assert err_coarse / err_fine >= 12.0  # fourth-order scheme, ~16 expected


class TestBoussinesqStepping:
    def test_taylor_green_with_passive_theta_is_steady(self):
        st = initial_condition("taylor-green-2d", GridSpec(2, 32))
        u0 = st.u.values.copy()
        cfg = StepperConfig(dt=0.01)
        for _ in range(50):
            st = step_boussinesq(st, cfg)
        assert np.max(np.abs(st.u.values - u0)) <= 1e-12

    def test_uniform_buoyancy_cannot_accelerate(self):
        g = GridSpec(2, 16)
        st = BoussinesqState(
            time=0.0,
            u=VectorField(g, np.zeros((2,) + g.shape)),
            theta=ScalarField(g, np.full(g.shape, 0.7)),
        )
        cfg = StepperConfig(dt=0.01)
        for _ in range(5):
            st = step_boussinesq(st, cfg)
        assert np.max(np.abs(st.u.values)) == 0.0
        assert np.max(np.abs(st.theta.values - 0.7)) == 0.0

    def test_gradient_buoyancy_keeps_rest_state(self):
        # theta depending on the vertical coordinate only is a pure gradient force
        g = GridSpec(2, 32)
        x = g.coords
        st = BoussinesqState(
            time=0.0,
            u=VectorField(g, np.zeros((2,) + g.shape)),
            theta=ScalarField(g, np.sin(x[1])),
        )
        cfg = StepperConfig(dt=0.01)
        for _ in range(10):
            st = step_boussinesq(st, cfg)
        assert np.max(np.abs(st.u.values)) <= 1e-14

    def test_bubble_theta_norms_conserved(self):
        st = initial_condition("boussinesq-bubble", GridSpec(2, 32))
        l2_0 = scalar_l2_norm(st.theta)
        lo, hi = st.theta.values.min(), st.theta.values.max()
        cfg = StepperConfig(dt=0.005)
        for _ in range(60):
            st = step_boussinesq(st, cfg)
        assert abs(scalar_l2_norm(st.theta) - l2_0) / l2_0 <= 1e-9
        assert st.theta.values.max() <= hi + 1e-6
        assert st.theta.values.min() >= lo - 1e-6

    def test_theta_transport_spins_up_flow(self):
        st = initial_condition("boussinesq-bubble", GridSpec(2, 32))
        cfg = StepperConfig(dt=0.01)
        for _ in range(20):
            st = step_boussinesq(st, cfg)
        assert kinetic_energy(st.u) > 1e-4


class TestSpectralTail:
    def test_low_mode_field_has_tiny_tail(self):
        g = GridSpec(2, 32)
        st = initial_condition("taylor-green-2d", g)
        assert spectral_tail_ratio(g, st.u.spectral) <= 1e-20

    def test_energy_in_outer_band_flags(self):
        g = GridSpec(2, 32)
        coeffs = np.zeros(g.shape, dtype=complex)
        k_idx = int(0.9 * g.k_cutoff)  # inside the retained band, outer part
        coeffs[k_idx, 0] = 1.0
        assert spectral_tail_ratio(g, coeffs[None]) == pytest.approx(1.0)

    def test_mixed_spectrum_ratio(self):
        g = GridSpec(2, 32)
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[1, 0] = 10.0
        coeffs[int(0.9 * g.k_cutoff), 0] = 1.0
        ratio = spectral_tail_ratio(g, coeffs[None])
        assert ratio == pytest.approx(1.0 / 101.0, rel=1e-12)

    @pytest.mark.parametrize("dim, n", [(3, 16), (2, 64)])
    def test_same_bits_as_the_per_call_mask(self, dim, n):
        # the outer band is a cached GridSpec mask and |u|^2 is built in one
        # array; the sums, and so the ratio, keep their bits
        def reference(grid, *arrays):
            outer = np.zeros(grid.shape, dtype=bool)
            for k in grid.wavenumbers:
                outer |= np.abs(k) >= 0.75 * grid.k_cutoff
            outer &= grid.dealias_mask
            total = tail = 0.0
            for arr in arrays:
                e = np.abs(arr) ** 2
                if e.ndim > grid.dim:
                    e = np.sum(e, axis=tuple(range(e.ndim - grid.dim)))
                total += float(np.sum(e[grid.dealias_mask]))
                tail += float(np.sum(e[outer]))
            return tail / total

        g = GridSpec(dim, n)
        rng = np.random.default_rng(7)
        u = g.fftn(rng.standard_normal((dim,) + g.shape))
        theta = g.fftn(rng.standard_normal(g.shape))
        assert spectral_tail_ratio(g, u, theta) == reference(g, u, theta)
        assert spectral_tail_ratio(g, u) == reference(g, u)
        assert g.outer_band_mask is g.outer_band_mask


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, cfl_guard=-1.0)


# A plain textbook RK4 with the expressions of the original solver: fresh
# arrays everywhere, every velocity transformed from its spectrum. The
# stepper must reproduce it byte for byte.


def _textbook_vorticity(grid, uh):
    k = grid.wavenumbers
    if grid.dim == 3:
        wh = np.empty_like(uh)
        wh[0] = 1j * (k[1] * uh[2] - k[2] * uh[1])
        wh[1] = 1j * (k[2] * uh[0] - k[0] * uh[2])
        wh[2] = 1j * (k[0] * uh[1] - k[1] * uh[0])
        return wh
    return 1j * (k[0] * uh[1] - k[1] * uh[0])


def _textbook_euler_rhs(grid, uh):
    u = grid.ifftn(uh)
    w = grid.ifftn(_textbook_vorticity(grid, uh))
    force = np.empty_like(u)
    force[0] = u[1] * w[2] - u[2] * w[1]
    force[1] = u[2] * w[0] - u[0] * w[2]
    force[2] = u[0] * w[1] - u[1] * w[0]
    fh = grid.truncate(grid.fftn(force))
    project_spectral(grid, fh)
    fh[(slice(None),) + (0,) * grid.dim] = 0.0
    return (fh,)


def _textbook_boussinesq_rhs(grid, uh, th):
    u = grid.ifftn(uh)
    w = grid.ifftn(_textbook_vorticity(grid, uh))
    force = np.empty_like(u)
    force[0] = w * u[1]
    force[1] = -w * u[0]
    fh = grid.truncate(grid.fftn(force))
    fh[1] += th
    project_spectral(grid, fh)
    fh[(slice(None),) + (0,) * grid.dim] = 0.0
    k = grid.wavenumbers
    grad_th = np.empty_like(u)
    grad_th[0] = grid.ifftn(1j * k[0] * th)
    grad_th[1] = grid.ifftn(1j * k[1] * th)
    adv = -(u[0] * grad_th[0] + u[1] * grad_th[1])
    return fh, grid.truncate(grid.fftn(adv))


def _textbook_rk4(rhs, y, dt):
    """Returns the new arrays and the stage tuples at t + dt/2, t + dt/2, t + dt."""
    k1 = rhs(*y)
    s2 = tuple(a + 0.5 * dt * b for a, b in zip(y, k1))
    k2 = rhs(*s2)
    s3 = tuple(a + 0.5 * dt * b for a, b in zip(y, k2))
    k3 = rhs(*s3)
    s4 = tuple(a + dt * b for a, b in zip(y, k3))
    k4 = rhs(*s4)
    new = tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )
    return new, [s2, s3, s4]


def _fields(state):
    return [state.u] + ([state.theta] if hasattr(state, "theta") else [])


@pytest.mark.parametrize(
    "name, dim, stepper, rhs",
    [
        ("taylor-green-3d", 3, rk4_stages_euler, _textbook_euler_rhs),
        ("random-band-limited", 3, rk4_stages_euler, _textbook_euler_rhs),
        ("boussinesq-bubble", 2, rk4_stages_boussinesq, _textbook_boussinesq_rhs),
        ("random-band-limited", 2, rk4_stages_boussinesq, _textbook_boussinesq_rhs),
    ],
)
class TestRk4Exactness:
    """The initial conditions here are built from grid values, whose
    transform is not their samples bit for bit, so the first step covers
    the stepper's transform of the state and the later ones its reuse."""

    def test_matches_textbook_rk4_bytewise(self, name, dim, stepper, rhs):
        g = GridSpec(dim, 16)
        state = initial_condition(name, g, seed=5)
        cfg = StepperConfig(dt=0.02)
        y = tuple(f.spectral for f in _fields(state))
        for _ in range(3):
            expected, expected_stages = _textbook_rk4(lambda *a: rhs(g, *a), y, cfg.dt)
            state, stages = stepper(state, cfg)
            for want, field in zip(expected, _fields(state)):
                assert field.spectral.tobytes() == want.tobytes()
                assert field.values.tobytes() == g.ifftn(want).tobytes()
            t0 = state.time - cfg.dt
            assert [t for t, _ in stages] == pytest.approx([t0, t0 + 0.5 * cfg.dt, t0 + 0.5 * cfg.dt, t0 + cfg.dt])
            assert stages[0][1].tobytes() == y[0].tobytes()
            for (_, got), want in zip(stages[1:], expected_stages):
                assert got.tobytes() == want[0].tobytes()
            y = expected

    def test_without_stages_same_bits(self, name, dim, stepper, rhs):
        g = GridSpec(dim, 16)
        cfg = StepperConfig(dt=0.02)
        kept = lean = initial_condition(name, g, seed=5)
        for _ in range(3):
            kept, stages = stepper(kept, cfg)
            lean, none = stepper(lean, cfg, keep_stages=False)
            assert none is None and len(stages) == 4
            for a, b in zip(_fields(kept), _fields(lean)):
                assert a.spectral.tobytes() == b.spectral.tobytes()
                assert a.values.tobytes() == b.values.tobytes()

    def test_results_are_read_only_and_never_rewritten(self, name, dim, stepper, rhs):
        g = GridSpec(dim, 16)
        cfg = StepperConfig(dt=0.02)
        state = stepper(initial_condition(name, g, seed=5), cfg)[0]
        frozen = [(f.values.tobytes(), f.spectral.tobytes()) for f in _fields(state)]
        later, stages = stepper(state, cfg)
        for _ in range(2):
            later, stages = stepper(later, cfg)
        for field, (values, spectral) in zip(_fields(state), frozen):
            assert field.values.tobytes() == values
            assert field.spectral.tobytes() == spectral
        for field in _fields(state) + _fields(later):
            assert not field.values.flags.writeable
            assert not field.spectral.flags.writeable
        for _, coeffs in stages:
            assert not coeffs.flags.writeable
