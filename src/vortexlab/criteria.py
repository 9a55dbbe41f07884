"""Blow-up criterion functionals, type-I monitors, and the Gronwall toolkit.

All quadrature is trapezoidal on the (uniform) sample grid, matching the
solver's fixed step, so that error accounting stays uniform across the
pipeline. The "limsup" of a monitored quantity is realized as the maximum
over a trailing window of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .storage import fields_to_json

VERDICT_SATISFIED = "condition satisfied (< threshold)"
VERDICT_NOT_VERIFIED = "condition not verified"


class SeriesError(ValueError):
    """Invalid time series input."""


def uniform_step(times: np.ndarray) -> float:
    """The step of uniform, increasing sample times; SeriesError otherwise."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise SeriesError("need at least two sample times")
    steps = np.diff(times)
    dt = steps[0]
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise SeriesError("sample times must form a uniform increasing grid")
    return float(dt)


def cumulative_trapezoid(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral over the 1D `times` along the first axis, zero at the first sample."""
    values = np.asarray(values, dtype=float)
    steps = np.diff(np.asarray(times, dtype=float)).reshape((-1,) + (1,) * (values.ndim - 1))
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * steps, axis=0)
    return out


def trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    return float(np.trapezoid(values, np.asarray(times, dtype=float)))


def _weight(times: np.ndarray, weight: str, horizon: float | None) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if weight == "none":
        return np.ones_like(times)
    if weight == "linear":
        if horizon is None:
            raise SeriesError("linear weight requires a horizon time")
        w = horizon - times
        if np.any(w < -1e-12 * max(abs(horizon), 1.0)):
            raise SeriesError("linear weight requires samples at or before the horizon")
        return np.maximum(w, 0.0)
    raise SeriesError(f"unknown weight {weight!r}")


@dataclass(frozen=True)
class CriterionSeries:
    """Double-integrated exponential criterion evaluated on a norm series."""

    times: np.ndarray
    norm_samples: np.ndarray
    inner: np.ndarray
    double: np.ndarray
    integrand: np.ndarray
    value: float
    weight: str
    horizon: float | None
    region: str

    def to_dict(self) -> dict:
        return fields_to_json(self, rename={"inner": "inner_integral", "double": "double_integral"})


def criterion_functional(
    times: np.ndarray,
    norm_samples: np.ndarray,
    weight: str = "none",
    horizon: float | None = None,
    region: str = "global",
) -> CriterionSeries:
    """Evaluate int w(t) exp( int_0^t int_0^s m ) dt on a nonnegative norm series."""
    uniform_step(times)
    m = np.asarray(norm_samples, dtype=float)
    if m.shape != np.asarray(times).shape:
        raise SeriesError("norm series must match the time grid")
    if np.any(m < 0):
        raise SeriesError("norm samples must be nonnegative (bracketed quantities)")
    inner = cumulative_trapezoid(times, m)
    double = cumulative_trapezoid(times, inner)
    w = _weight(times, weight, horizon)
    integrand = w * np.exp(double)
    value = trapezoid(times, integrand)
    return CriterionSeries(
        times=np.asarray(times, dtype=float),
        norm_samples=m,
        inner=inner,
        double=double,
        integrand=integrand,
        value=value,
        weight=weight,
        horizon=horizon,
        region=region,
    )


@dataclass(frozen=True)
class TypeIMonitor:
    """(T - t)^2-scaled sup-norm series compared against a strict threshold."""

    horizon: float
    threshold: float
    times: np.ndarray
    scaled: np.ndarray
    window_fraction: float
    window_max: float
    verdict: str
    region: str

    def to_dict(self) -> dict:
        return fields_to_json(self)


def type_one_monitor(
    times: np.ndarray,
    norm_samples: np.ndarray,
    horizon: float,
    threshold: float,
    window_fraction: float = 0.25,
    region: str = "global",
) -> TypeIMonitor:
    """Trailing-window max of (T - t)^2 m(t) with a strict-inequality verdict."""
    times = np.asarray(times, dtype=float)
    m = np.asarray(norm_samples, dtype=float)
    if m.shape != times.shape:
        raise SeriesError("norm series must match the time grid")
    if np.any(times >= horizon):
        raise SeriesError("all sample times must lie strictly before the candidate time")
    if not 0.0 < window_fraction <= 1.0:
        raise SeriesError("window fraction must lie in (0, 1]")
    scaled = (horizon - times) ** 2 * m
    n_window = max(2, int(np.ceil(window_fraction * scaled.size)))
    n_window = min(n_window, scaled.size)
    window_max = float(np.max(scaled[-n_window:]))
    verdict = VERDICT_SATISFIED if window_max < threshold else VERDICT_NOT_VERIFIED
    return TypeIMonitor(
        horizon=float(horizon),
        threshold=float(threshold),
        times=times,
        scaled=scaled,
        window_fraction=window_fraction,
        window_max=window_max,
        verdict=verdict,
        region=region,
    )


def bkm_integral(
    times: np.ndarray,
    norm_samples: np.ndarray,
    weight: str = "none",
    horizon: float | None = None,
) -> float:
    """Trapezoidal integral of an (optionally (T - t)-weighted) sup-norm series."""
    times = np.asarray(times, dtype=float)
    m = np.asarray(norm_samples, dtype=float)
    if m.shape != times.shape:
        raise SeriesError("norm series must match the time grid")
    if np.any(m < 0):
        raise SeriesError("norm samples must be nonnegative")
    return trapezoid(times, _weight(times, weight, horizon) * m)


# ---------------------------------------------------------------------------
# Gronwall lemma toolkit


class HypothesisError(ValueError):
    """Gronwall hypothesis violated by the supplied data."""


@dataclass(frozen=True)
class GronwallProblem:
    """Sampled comparison problem y <= alpha + I[beta y] on a uniform grid.

    variant 'single' uses the running integral I = int_a^t, variant 'double'
    the iterated integral int_a^t int_a^s (which additionally requires
    y >= 0). alpha must be non-decreasing and beta nonnegative.
    """

    times: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    y: np.ndarray | None = None
    variant: str = "single"

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.y is not None:
            object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        uniform_step(self.times)
        n = self.times.size
        if self.alpha.shape != (n,) or self.beta.shape != (n,):
            raise SeriesError("alpha and beta must match the time grid")
        if self.variant not in ("single", "double"):
            raise SeriesError("variant must be 'single' or 'double'")
        scale = max(float(np.max(np.abs(self.alpha))), 1.0)
        if np.any(np.diff(self.alpha) < -1e-12 * scale):
            raise HypothesisError("alpha must be non-decreasing")
        if np.any(self.beta < 0):
            raise HypothesisError("beta must be nonnegative")
        if self.variant == "double" and self.y is not None and np.any(self.y < 0):
            raise HypothesisError("variant 'double' requires y >= 0")


def _lemma_integral(times: np.ndarray, values: np.ndarray, variant: str) -> np.ndarray:
    """I[values] of the lemma: the running trapezoidal integral, iterated
    once more for variant 'double'."""
    acc = cumulative_trapezoid(times, values)
    return cumulative_trapezoid(times, acc) if variant == "double" else acc


def gronwall_bound(problem: GronwallProblem) -> np.ndarray:
    """Comparison bound alpha(t) exp(I[beta]) with I matching the variant."""
    return problem.alpha * np.exp(_lemma_integral(problem.times, problem.beta, problem.variant))


ORACLE_TOL = 1e-13  # relative update size at which `gronwall_oracle` stops
ORACLE_MAX_ITER = 400


def gronwall_oracle(problem: GronwallProblem, refine: int = 1) -> np.ndarray:
    """Equality-case solution of y = alpha + I[beta y] by fixed-point iteration.

    Independent of gronwall_bound: it solves the Volterra equation directly.
    With refine > 1 the marching happens on a grid that many times finer
    (alpha and beta linearly interpolated) and is restricted back to the
    sample nodes, which shrinks the quadrature error of the equality case.
    """
    times, alpha, beta = problem.times, problem.alpha, problem.beta
    if refine > 1:
        n_fine = (times.size - 1) * refine + 1
        fine_times = np.linspace(times[0], times[-1], n_fine)
        alpha = np.interp(fine_times, times, alpha)
        beta = np.interp(fine_times, times, beta)
        times = fine_times

    y = alpha.copy()
    scale = max(float(np.max(np.abs(alpha))), 1.0)
    for _ in range(ORACLE_MAX_ITER):
        y_next = alpha + _lemma_integral(times, beta * y, problem.variant)
        delta = float(np.max(np.abs(y_next - y)))
        y = y_next
        if delta <= ORACLE_TOL * max(scale, float(np.max(np.abs(y)))):
            return y[::refine] if refine > 1 else y
    raise RuntimeError(f"fixed-point iteration did not converge in {ORACLE_MAX_ITER} steps")


def hypothesis_residual(problem: GronwallProblem) -> np.ndarray:
    """alpha + I[beta y] - y evaluated by quadrature (nonnegative when the
    hypothesis holds)."""
    if problem.y is None:
        raise SeriesError("problem has no y series to test")
    acc = _lemma_integral(problem.times, problem.beta * problem.y, problem.variant)
    return problem.alpha + acc - problem.y


@dataclass
class GronwallReport:
    variant: str
    bound: np.ndarray
    y: np.ndarray | None
    hypothesis_satisfied: bool | None
    domination_satisfied: bool | None
    max_relative_excess: float | None
    quadrature_tolerance: float
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return fields_to_json(self)


def verify_gronwall(problem: GronwallProblem, rtol: float = 1e-6) -> GronwallReport:
    """Bound the supplied y (or the equality-case oracle) and check domination."""
    bound = gronwall_bound(problem)
    y = problem.y
    notes = []
    if y is None:
        y = gronwall_oracle(problem, refine=8)
        notes.append("y not supplied; using the equality-case oracle")
        hypothesis_ok = True
    else:
        scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(problem.alpha))), 1.0)
        hypothesis_ok = bool(np.all(hypothesis_residual(problem) >= -rtol * scale))
    if not hypothesis_ok:
        return GronwallReport(
            variant=problem.variant,
            bound=bound,
            y=y,
            hypothesis_satisfied=False,
            domination_satisfied=None,
            max_relative_excess=None,
            quadrature_tolerance=rtol,
            notes=notes + ["hypothesis fails for the supplied y; no domination claim"],
        )
    excess = (y - bound) / np.maximum(np.abs(bound), 1e-300)
    max_excess = float(np.max(excess))
    return GronwallReport(
        variant=problem.variant,
        bound=bound,
        y=y,
        hypothesis_satisfied=True,
        domination_satisfied=bool(max_excess <= rtol),
        max_relative_excess=max_excess,
        quadrature_tolerance=rtol,
        notes=notes,
    )


def random_gronwall_problem(
    rng: np.random.Generator, variant: str, times: np.ndarray | None = None
) -> GronwallProblem:
    """Random instance with strictly increasing alpha and piecewise-linear beta
    on the uniform `times` (by default 257 samples of [0, 1]).

    Knots sit on the sample grid so the trapezoidal integrals are exact for
    the generated data; the instance margin is then controlled by the lemma
    itself rather than by quadrature error.
    """
    times = np.linspace(0.0, 1.0, 257) if times is None else np.asarray(times, dtype=float)
    n = times.size
    n_knots = int(rng.integers(3, 9))
    spacing = max(1, (n - 1) // 32)
    candidates = np.arange(spacing, n - 1, spacing)
    n_knots = min(n_knots, candidates.size)
    knot_pos = np.sort(rng.choice(candidates, size=n_knots, replace=False))
    knots = np.concatenate([[0], knot_pos, [n - 1]])
    beta_knots = rng.uniform(0.0, 3.0, size=knots.size)
    beta = np.interp(np.arange(n), knots, beta_knots)
    slope_knots = rng.uniform(0.5, 2.0, size=knots.size)
    slope = np.interp(np.arange(n), knots, slope_knots)
    alpha = rng.uniform(0.5, 2.0) + cumulative_trapezoid(times, slope)
    return GronwallProblem(times=times, alpha=alpha, beta=beta, variant=variant)


__all__ = [
    "VERDICT_SATISFIED",
    "VERDICT_NOT_VERIFIED",
    "SeriesError",
    "HypothesisError",
    "CriterionSeries",
    "TypeIMonitor",
    "GronwallProblem",
    "GronwallReport",
    "uniform_step",
    "cumulative_trapezoid",
    "trapezoid",
    "criterion_functional",
    "type_one_monitor",
    "bkm_integral",
    "gronwall_bound",
    "gronwall_oracle",
    "hypothesis_residual",
    "verify_gronwall",
    "random_gronwall_problem",
]
