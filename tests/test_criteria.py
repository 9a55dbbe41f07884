import numpy as np
import pytest
from scipy.special import erfi

from vortexlab.criteria import (
    GronwallProblem,
    HypothesisError,
    SeriesError,
    VERDICT_NOT_VERIFIED,
    VERDICT_SATISFIED,
    bkm_integral,
    criterion_functional,
    cumulative_trapezoid,
    gronwall_bound,
    gronwall_oracle,
    hypothesis_residual,
    random_gronwall_problem,
    type_one_monitor,
    verify_gronwall,
)


class TestCriterionFunctional:
    def test_zero_input_unweighted(self):
        times = np.linspace(0.0, 2.5, 51)
        out = criterion_functional(times, np.zeros_like(times))
        assert out.value == pytest.approx(2.5, abs=1e-14)
        assert np.all(out.integrand == 1.0)
        assert out.weight == "none"

    def test_unweighted_has_one_spelling(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SeriesError, match="unknown weight None"):
            criterion_functional(times, np.zeros_like(times), weight=None)
        with pytest.raises(SeriesError, match="unknown weight None"):
            bkm_integral(times, np.zeros_like(times), weight=None)

    def test_constant_input_closed_form(self):
        c = 1.3
        times = np.linspace(0.0, 1.0, 20001)
        out = criterion_functional(times, np.full_like(times, c))
        # the running double integral is exact for constant input
        assert np.allclose(out.double, c * times**2 / 2.0, rtol=0, atol=1e-13)
        exact = np.sqrt(np.pi / (2.0 * c)) * erfi(np.sqrt(c / 2.0))
        assert out.value == pytest.approx(exact, abs=1e-8)

    def test_zero_input_linear_weight(self):
        times = np.linspace(0.0, 2.0, 41)
        out = criterion_functional(times, np.zeros_like(times), weight="linear", horizon=2.0)
        assert out.value == pytest.approx(2.0, abs=1e-14)  # (b-a)^2/2

    def test_monotone_running_integrals(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 1.0, 65)
        m = np.abs(rng.standard_normal(times.size))
        out = criterion_functional(times, m)
        assert np.all(np.diff(out.inner) >= 0)
        assert np.all(np.diff(out.double) >= 0)
        assert np.all(out.integrand > 0)

    def test_negative_input_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SeriesError, match="nonnegative"):
            criterion_functional(times, np.full_like(times, -1.0))

    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(SeriesError, match="uniform"):
            criterion_functional(times, np.zeros_like(times))


class TestTypeOneMonitor:
    def test_zero_series(self):
        times = np.linspace(0.0, 0.9, 10)
        mon = type_one_monitor(times, np.zeros_like(times), horizon=1.0, threshold=1.0)
        assert mon.window_max == 0.0
        assert mon.verdict == VERDICT_SATISFIED

    def test_critical_rate_is_not_verified(self):
        T = 1.0
        times = np.linspace(0.0, 0.95, 96)
        m = 1.0 / (T - times) ** 2
        mon = type_one_monitor(times, m, horizon=T, threshold=1.0)
        assert mon.window_max == pytest.approx(1.0, abs=1e-12)
        assert mon.verdict == VERDICT_NOT_VERIFIED  # strict inequality

    def test_relaxed_threshold_two(self):
        T = 1.0
        times = np.linspace(0.0, 0.95, 96)
        m = 1.5 / (T - times) ** 2
        assert type_one_monitor(times, m, horizon=T, threshold=2.0).verdict == VERDICT_SATISFIED
        assert type_one_monitor(times, m, horizon=T, threshold=1.0).verdict == VERDICT_NOT_VERIFIED

    def test_samples_past_horizon_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(SeriesError, match="strictly before"):
            type_one_monitor(times, np.zeros_like(times), horizon=1.0, threshold=1.0)

    def test_window_restricts_the_max(self):
        times = np.linspace(0.0, 0.5, 51)
        m = np.zeros_like(times)
        m[0] = 100.0  # early spike outside the trailing window
        mon = type_one_monitor(times, m, horizon=1.0, threshold=1.0, window_fraction=0.25)
        assert mon.window_max == 0.0
        full = type_one_monitor(times, m, horizon=1.0, threshold=1.0, window_fraction=1.0)
        assert full.window_max == pytest.approx(100.0)


class TestBkmIntegral:
    def test_zero(self):
        times = np.linspace(0.0, 1.0, 11)
        assert bkm_integral(times, np.zeros_like(times)) == 0.0

    def test_constant(self):
        times = np.linspace(0.0, 1.0, 11)
        assert bkm_integral(times, np.full_like(times, 2.0)) == pytest.approx(2.0, abs=1e-14)

    def test_weighted_constant(self):
        T = 1.7
        times = np.linspace(0.0, T, 171)
        val = bkm_integral(times, np.ones_like(times), weight="linear", horizon=T)
        assert val == pytest.approx(T**2 / 2.0, abs=1e-12)


class TestGronwallBound:
    def test_zero_beta_returns_alpha(self):
        times = np.linspace(0.0, 1.0, 33)
        alpha = 1.0 + times**2
        prob = GronwallProblem(times=times, alpha=alpha, beta=np.zeros_like(times))
        assert np.array_equal(gronwall_bound(prob), alpha)

    def test_single_variant_exponential(self):
        c = 2.0
        times = np.linspace(0.0, 1.0, 65)
        prob = GronwallProblem(times=times, alpha=np.ones_like(times), beta=np.full_like(times, c))
        assert np.allclose(gronwall_bound(prob), np.exp(c * times), rtol=1e-14)

    def test_double_variant_gaussian_exponent(self):
        times = np.linspace(0.0, 1.0, 65)
        prob = GronwallProblem(
            times=times, alpha=np.ones_like(times), beta=np.ones_like(times), variant="double"
        )
        assert np.allclose(gronwall_bound(prob), np.exp(times**2 / 2.0), rtol=1e-14)

    def test_hypothesis_validation(self):
        times = np.linspace(0.0, 1.0, 17)
        with pytest.raises(HypothesisError, match="non-decreasing"):
            GronwallProblem(times=times, alpha=1.0 - times, beta=np.zeros_like(times))
        with pytest.raises(HypothesisError, match="nonnegative"):
            GronwallProblem(times=times, alpha=np.ones_like(times), beta=-np.ones_like(times))
        with pytest.raises(HypothesisError, match="y >= 0"):
            GronwallProblem(
                times=times,
                alpha=np.ones_like(times),
                beta=np.ones_like(times),
                y=-np.ones_like(times),
                variant="double",
            )


class TestGronwallOracle:
    def test_zero_beta(self):
        times = np.linspace(0.0, 1.0, 33)
        alpha = 2.0 + times
        prob = GronwallProblem(times=times, alpha=alpha, beta=np.zeros_like(times))
        assert np.allclose(gronwall_oracle(prob), alpha, rtol=1e-13)

    def test_exponential_equality_case(self):
        times = np.linspace(0.0, 1.0, 2049)
        prob = GronwallProblem(times=times, alpha=np.ones_like(times), beta=np.ones_like(times))
        y = gronwall_oracle(prob)
        assert np.max(np.abs(y - np.exp(times))) <= 5e-7

    def test_double_variant_cosh(self):
        times = np.linspace(0.0, 1.0, 2049)
        prob = GronwallProblem(
            times=times, alpha=np.ones_like(times), beta=np.ones_like(times), variant="double"
        )
        y = gronwall_oracle(prob)
        assert np.max(np.abs(y - np.cosh(times))) <= 5e-7

    def test_saturation_when_alpha_constant(self):
        times = np.linspace(0.0, 1.0, 257)
        prob = GronwallProblem(times=times, alpha=np.ones_like(times), beta=np.full_like(times, 1.5))
        gap = np.max(np.abs(gronwall_oracle(prob) - gronwall_bound(prob)))
        assert gap <= 2e-5

    def test_saturation_gap_refines_at_second_order(self):
        gaps = []
        for n in (33, 65, 129):
            times = np.linspace(0.0, 1.0, n)
            prob = GronwallProblem(
                times=times, alpha=np.ones_like(times), beta=np.full_like(times, 1.5)
            )
            gaps.append(np.max(np.abs(gronwall_oracle(prob) - gronwall_bound(prob))))
        slopes = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(slopes >= 2.0)


class TestVerifyGronwall:
    def test_supplied_saturating_y(self):
        c = 1.5
        times = np.linspace(0.0, 1.0, 129)
        y = np.exp(c * times)
        prob = GronwallProblem(times=times, alpha=np.ones_like(times), beta=np.full_like(times, c), y=y)
        rep = verify_gronwall(prob)
        assert rep.hypothesis_satisfied
        assert rep.domination_satisfied
        assert rep.max_relative_excess <= 1e-6

    def test_hypothesis_failure_reported(self):
        times = np.linspace(0.0, 1.0, 65)
        y = 10.0 + times * 0.0
        prob = GronwallProblem(times=times, alpha=np.ones_like(times), beta=np.zeros_like(times), y=y)
        rep = verify_gronwall(prob)
        assert rep.hypothesis_satisfied is False
        assert rep.domination_satisfied is None

    def test_hypothesis_residual_sign(self):
        times = np.linspace(0.0, 1.0, 65)
        y = 0.5 * np.ones_like(times)
        prob = GronwallProblem(times=times, alpha=np.ones_like(times), beta=np.ones_like(times), y=y)
        assert np.all(hypothesis_residual(prob) >= 0)

    def test_random_instances_dominate(self):
        rng = np.random.default_rng(77)
        for variant in ("single", "double"):
            for _ in range(100):
                rep = verify_gronwall(random_gronwall_problem(rng, variant))
                assert rep.domination_satisfied, rep.max_relative_excess


def test_cumulative_trapezoid_matches_analytic():
    times = np.linspace(0.0, 2.0, 81)
    out = cumulative_trapezoid(times, times)  # integral of t is t^2/2, exact for linear
    assert np.allclose(out, times**2 / 2.0, rtol=0, atol=1e-14)
