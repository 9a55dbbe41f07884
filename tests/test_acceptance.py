"""Acceptance suite: every exit criterion, one test each, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines with the measured numbers.
"""

import time

import numpy as np
from scipy.special import erfi

from vortexlab import pipeline
from vortexlab.criteria import (
    GronwallProblem,
    VERDICT_NOT_VERIFIED,
    VERDICT_SATISFIED,
    bkm_integral,
    criterion_functional,
    gronwall_bound,
    gronwall_oracle,
    random_gronwall_problem,
    type_one_monitor,
    verify_gronwall,
)
from vortexlab.diagnostics import diag_field
from vortexlab.fields import ScalarField, VectorField, gradient, hessian, solve_pressure
from vortexlab.grid import GridSpec
from vortexlab.identities import check_inequalities, make_samples, run_identity_suite
from vortexlab.pipeline import RunConfig
from vortexlab.solver import (
    StepperConfig,
    initial_condition,
    kinetic_energy,
    rk4_stages_boussinesq,
    rk4_stages_euler,
    scalar_l2_norm,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def filtered_seeds(state, theta, count, rng_seed, vmin=0.5, smin=0.3):
    """Tracer seeds away from carrier zeros and stretching degeneracies."""
    grid = state.u.grid
    d0 = diag_field(state.u, solve_pressure(state.u, theta), theta)
    rng = np.random.default_rng(rng_seed)
    cand = rng.uniform(0.0, grid.length, (1200, grid.dim))
    idx = np.round(cand / grid.dx).astype(int) % grid.n
    vm = d0.vec_mag[tuple(idx.T)]
    sm = d0.stretch_vec_mag[tuple(idx.T)]
    keep = (vm > vmin * vm.max()) & (sm > smin * sm.max())
    seeds = cand[keep][:count]
    assert seeds.shape[0] == count
    return seeds


def test_criterion_01_algebraic_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (3, 2):
        rep = run_identity_suite(100_000, dim, seed=42)
        assert rep.passed
        worst = max(worst, max(rep.residual_max.values()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 30.0
    report(
        "criterion 1 (algebraic identities, 1e5 samples x {2,3}D)",
        ok,
        f"max residual {worst:.3e} <= 1e-10, runtime {elapsed:.1f}s <= 30s",
    )


def test_criterion_02_inequality_suite():
    worst_slack = np.inf
    for dim, seed in ((3, 42), (2, 42)):
        samples = make_samples(100_000, dim, seed=seed)
        for data in check_inequalities(samples).values():
            worst_slack = min(worst_slack, float(np.nanmin(data["slack"])))
    ok = worst_slack >= -1e-12
    report(
        "criterion 2 (sqrt2/sqrt2/sqrt3 inequalities, 1e5 samples)",
        ok,
        f"min normalized slack {worst_slack:.3e} >= -1e-12 (zero violations)",
    )


def test_criterion_03_spectral_engine():
    g3 = GridSpec(3, 32)
    x3 = g3.coords
    grad = gradient(ScalarField(g3, np.sin(x3[0])))
    deriv_err = max(
        float(np.max(np.abs(grad[0] - np.cos(x3[0])))),
        float(np.max(np.abs(grad[1]))),
        float(np.max(np.abs(grad[2]))),
    )

    g2 = GridSpec(2, 64)
    x2 = g2.coords
    u = VectorField(g2, np.stack([np.cos(x2[0]) * np.sin(x2[1]), -np.sin(x2[0]) * np.cos(x2[1])]))
    p = solve_pressure(u)
    pressure_err = float(np.max(np.abs(p.values + (np.cos(2 * x2[0]) + np.cos(2 * x2[1])) / 4.0)))

    H = hessian(p)
    G = gradient(u)
    source = g2.ifftn(g2.fftn(-np.einsum("ij...,ji...->...", G, G)) * g2.dealias_mask)
    trace_err = float(np.max(np.abs(H[0, 0] + H[1, 1] - source)))

    ok = deriv_err <= 1e-12 and pressure_err <= 1e-10 and trace_err <= 1e-10
    report(
        "criterion 3 (spectral engine)",
        ok,
        f"derivative {deriv_err:.2e} <= 1e-12, vortex pressure {pressure_err:.2e} <= 1e-10, "
        f"trace residual {trace_err:.2e} <= 1e-10",
    )


def test_criterion_04_solver_conservation():
    t0 = time.perf_counter()

    st = initial_condition("taylor-green-3d", GridSpec(3, 32))
    e0 = kinetic_energy(st.u)
    cfg = StepperConfig(dt=0.005)
    for _ in range(100):  # t = 0.5
        st = rk4_stages_euler(st, cfg)
    energy_drift = abs(kinetic_energy(st.u) - e0) / e0

    st2 = initial_condition("boussinesq-bubble", GridSpec(2, 64))
    l0 = scalar_l2_norm(st2.theta)
    cfg2 = StepperConfig(dt=0.005)
    for _ in range(100):  # t = 0.5
        st2 = rk4_stages_boussinesq(st2, cfg2)
    theta_drift = abs(scalar_l2_norm(st2.theta) - l0) / l0

    st3 = initial_condition("taylor-green-2d", GridSpec(2, 64))
    u0 = st3.u.values.copy()
    cfg3 = StepperConfig(dt=0.01)
    for _ in range(100):  # t = 1
        st3 = rk4_stages_boussinesq(st3, cfg3)
    steady_dev = float(np.max(np.abs(st3.u.values - u0)))

    elapsed = time.perf_counter() - t0
    ok = energy_drift <= 1e-6 and theta_drift <= 1e-6 and steady_dev <= 1e-6 and elapsed <= 300.0
    report(
        "criterion 4 (solver conservation)",
        ok,
        f"energy drift {energy_drift:.2e} <= 1e-6, theta L2 drift {theta_drift:.2e} <= 1e-6, "
        f"steady-vortex deviation {steady_dev:.2e} <= 1e-6, runtime {elapsed:.0f}s <= 300s",
    )


RESIDUAL_KEYS = ("vec_transport", "vec_mag_rate", "stretch_mag_rate", "log_curvature", "second_accel")


def _residual_maxima(system, name, n, dt, t_end, seeds, stride):
    cfg = RunConfig(system=system, n=n, dt=dt, t_end=t_end, initial=name, seed=3, tracer_points=seeds)
    result = pipeline.run(cfg)
    maxima = {}
    for key in RESIDUAL_KEYS:
        # the run's residual columns, (samples, tracers); tests/test_tracers.py
        # shows they equal dynamical_residuals of each tracer's series bit for bit
        window = result.tracer_columns[f"residual_{key}"][::stride][3:-3]
        window = window[np.isfinite(window)]
        maxima[key] = float(np.max(np.abs(window)))
    return maxima


def test_criterion_05_dynamical_identity_convergence():
    st3 = initial_condition("taylor-green-3d", GridSpec(3, 48))
    seeds3 = filtered_seeds(st3, None, 10, rng_seed=12)
    coarse = _residual_maxima("euler3d", "taylor-green-3d", 48, 0.04, 0.4, seeds3, 1)
    fine = _residual_maxima("euler3d", "taylor-green-3d", 48, 0.02, 0.4, seeds3, 2)
    ratios_3d = {k: coarse[k] / fine[k] for k in RESIDUAL_KEYS}

    st2 = initial_condition("boussinesq-bubble", GridSpec(2, 64))
    cfg = StepperConfig(dt=0.01)
    for _ in range(10):  # move off the from-rest degeneracy before seeding
        st2 = rk4_stages_boussinesq(st2, cfg)
    seeds2 = filtered_seeds(st2, st2.theta, 10, rng_seed=5)
    coarse = _residual_maxima("boussinesq2d", "boussinesq-bubble", 64, 0.02, 0.4, seeds2, 1)
    fine = _residual_maxima("boussinesq2d", "boussinesq-bubble", 64, 0.01, 0.4, seeds2, 2)
    ratios_2d = {k: coarse[k] / fine[k] for k in RESIDUAL_KEYS}

    ok = all(r >= 4.0 for r in ratios_3d.values()) and all(r >= 4.0 for r in ratios_2d.values())
    fmt = lambda d: ", ".join(f"{k}={v:.1f}" for k, v in d.items())
    report(
        "criterion 5 (transport-identity residual convergence, dt halved)",
        ok,
        f"3D ratios [{fmt(ratios_3d)}], 2D ratios [{fmt(ratios_2d)}], all >= 4",
    )


def test_criterion_06_growth_bounds_along_tracers():
    cfg3 = RunConfig(
        system="euler3d", n=32, dt=0.005, t_end=0.25, initial="taylor-green-3d",
        seed=11, tracer_count=100,
    )
    res3 = pipeline.run(cfg3)
    cfg2 = RunConfig(
        system="boussinesq2d", n=64, dt=0.005, t_end=0.5, initial="boussinesq-bubble",
        seed=11, tracer_count=100,
    )
    res2 = pipeline.run(cfg2)

    violations = 0
    details = []
    for label, result, expected in (("3D", res3, 3), ("2D", res2, 2)):
        assert len(result.report["bound_checks"]) == expected
        for variant, agg in result.report["bound_checks"].items():
            violations += agg["violations"]
            details.append(f"{label}/{variant} margin {agg['min_margin']:.1e} tol {agg['tolerance']:.1e}")
    ok = violations == 0
    report(
        "criterion 6 (growth bounds, 100 tracers per run)",
        ok,
        f"zero violations at 1e-6 * field max ({'; '.join(details)})",
    )


def test_criterion_07_gronwall_toolkit():
    gaps = []
    for n in (33, 65, 129):
        times = np.linspace(0.0, 1.0, n)
        prob = GronwallProblem(times=times, alpha=np.ones(n), beta=np.full(n, 1.5))
        gaps.append(float(np.max(np.abs(gronwall_oracle(prob) - gronwall_bound(prob)))))
    slopes = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))

    dominated = 0
    worst_excess = -np.inf
    for variant in ("single", "double"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            rep = verify_gronwall(random_gronwall_problem(rng, variant), rtol=1e-6)
            dominated += int(rep.domination_satisfied)
            worst_excess = max(worst_excess, rep.max_relative_excess)

    ok = bool(np.all(slopes >= 2.0)) and dominated == 2000
    report(
        "criterion 7 (comparison-lemma saturation and domination)",
        ok,
        f"saturation slopes {slopes.round(3).tolist()} >= 2, "
        f"dominated {dominated}/2000 within 1e-6 (worst excess {worst_excess:.2e})",
    )


def test_criterion_08_criterion_functionals_closed_forms():
    errors = []

    times = np.linspace(0.0, 1.0, 20001)
    flat = criterion_functional(times, np.zeros_like(times))
    errors.append(abs(flat.value - 1.0))

    c = 1.3
    const = criterion_functional(times, np.full_like(times, c))
    exact = np.sqrt(np.pi / (2.0 * c)) * erfi(np.sqrt(c / 2.0))
    errors.append(abs(const.value - exact))

    weighted = criterion_functional(times, np.zeros_like(times), weight="linear", horizon=1.0)
    errors.append(abs(weighted.value - 0.5))

    errors.append(abs(bkm_integral(times, np.full_like(times, 2.0)) - 2.0))
    errors.append(abs(bkm_integral(times, np.ones_like(times), weight="linear", horizon=1.0) - 0.5))

    T = 1.0
    mon_times = np.linspace(0.0, 0.9, 91)
    critical = type_one_monitor(mon_times, 1.0 / (T - mon_times) ** 2, horizon=T, threshold=1.0)
    relaxed = type_one_monitor(mon_times, 1.5 / (T - mon_times) ** 2, horizon=T, threshold=2.0)
    errors.append(abs(critical.window_max - 1.0))
    errors.append(abs(relaxed.window_max - 1.5))
    verdicts_ok = (
        critical.verdict == VERDICT_NOT_VERIFIED and relaxed.verdict == VERDICT_SATISFIED
    )

    worst = max(errors)
    ok = worst <= 1e-8 and verdicts_ok
    report(
        "criterion 8 (closed-form functionals and threshold verdicts)",
        ok,
        f"max closed-form error {worst:.2e} <= 1e-8, strict threshold-1 vs threshold-2 verdicts correct",
    )


def test_criterion_09_deterministic_artifacts(tmp_path):
    cfg = RunConfig(
        system="boussinesq2d", n=32, dt=0.01, t_end=0.1, initial="boussinesq-bubble",
        seed=9, tracer_count=5, snapshot_every=5, candidate_time=0.2,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    pipeline.run(cfg, output_dir=out1)
    pipeline.run(cfg, output_dir=out2)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (out1 / rel).read_bytes() == (out2 / rel).read_bytes() for rel in files1
    )
    report(
        "criterion 9 (determinism)",
        identical,
        f"{len(files1)} artifacts byte-identical across reruns with one seed",
    )
