"""Outside-in layer tracing of vortexlab.

`install` wraps selected public functions of the vortexlab modules from the
benchmark's side; the package itself is not changed. A wrapped call records
a span (name, start, end, parent). A function that another vortexlab module
imported by name is rebound there too, so each caller reaches the wrapper
wherever it looks the name up. `layer_metrics` folds the spans into the
per-layer metrics of BENCHMARK.json; a span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

import numpy as np

# Metric group -> wrapped functions, as "<module>.<qualified name>".
GROUPS = {
    "grid.fft": ("grid.GridSpec.fftn", "grid.GridSpec.ifftn"),
    "solver.rk4_step": ("solver.rk4_stages_euler", "solver.rk4_stages_boussinesq"),
    "fields.solve_pressure": ("fields.solve_pressure",),
    "fields.derivatives": (
        "fields.gradient",
        "fields.hessian",
        "fields.perp_gradient",
        "fields.divergence",
        "fields.max_divergence",
    ),
    "diagnostics.diag_field": ("diagnostics.diag_field",),
    "diagnostics.direction_quantities": ("diagnostics.direction_quantities",),
    "tracers.advance_positions": ("tracers.advance_positions",),
    "tracers.sample": ("tracers.SpectralSampler.sample",),
    "tracers.postprocess": (
        "tracers.diagnostics_series",
        "tracers.dynamical_residuals",
        "tracers.growth_bound_check",
    ),
    "criteria": (
        "criteria.criterion_functional",
        "criteria.type_one_monitor",
        "criteria.bkm_integral",
    ),
    "storage": (
        "storage.save_field",
        "storage.save_diagnostics",
        "storage.write_csv",
        "storage.write_json",
        "storage.write_manifest",
    ),
    "identities.make_samples": ("identities.make_samples",),
    "identities.checks": (
        "identities.check_vorticity_pythagoras",
        "identities.check_strain_pythagoras",
        "identities.check_three_term",
        "identities.check_orthogonal_decompositions",
        "identities.check_inequalities",
    ),
    "identities.run_identity_suite": ("identities.run_identity_suite",),
    "pipeline.run": ("pipeline.run",),
}

# Spans that hold a whole run; their self time is orchestration, not a layer.
ROOTS = ("pipeline.run", "identities.run_identity_suite")


def _fft_bytes(args) -> float:
    return float(args[1].nbytes)


def _point_fields(args) -> float:
    sampler, coeffs = args[0], np.asarray(args[1])
    fields = coeffs.size // int(np.prod(sampler.grid.shape))
    return float(fields * sampler.points.shape[0])


# Work counted at the boundary, summed per group.
WORK = {
    "grid.GridSpec.fftn": _fft_bytes,
    "grid.GridSpec.ifftn": _fft_bytes,
    "tracers.SpectralSampler.sample": _point_fields,
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # name, start, end, parent index (-1 at top level), work
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1, 0.0])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span = spans[index]
                span[2] = clock()
                if work is not None:
                    span[4] = work(args)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "work")
        return [dict(zip(keys, span)) for span in self.spans]


def _resolve(qualname: str):
    module_name, _, attr_path = qualname.partition(".")
    owner = importlib.import_module(f"vortexlab.{module_name}")
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every function named in GROUPS, at each place it is looked up."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "vortexlab"]
    for names in GROUPS.values():
        for qualname in names:
            owner, attr = _resolve(qualname)
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(qualname, original, WORK.get(qualname))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def layer_metrics(tracer: Tracer, run_s: float, diag_samples: int, mb_written: float) -> dict:
    """Per-layer metrics of one traced repetition, keyed as in BENCHMARK.json."""
    group_of = {q: g for g, names in GROUPS.items() for q in names}
    own = tracer.self_times()
    calls = dict.fromkeys(GROUPS, 0)
    self_s = dict.fromkeys(GROUPS, 0.0)
    work = dict.fromkeys(GROUPS, 0.0)
    durations = {g: [] for g in GROUPS}
    for (name, start, end, _, w), t_own in zip(tracer.spans, own):
        group = group_of[name]
        calls[group] += 1
        self_s[group] += t_own
        work[group] += w
        durations[group].append(end - start)

    def p50_ms(group: str) -> float:
        return 1e3 * statistics.median(durations[group]) if durations[group] else 0.0

    covered = sum(v for g, v in self_s.items() if g not in ROOTS)
    return {
        "grid.fft.calls": calls["grid.fft"],
        "grid.fft.self_s": self_s["grid.fft"],
        "grid.fft.gb": work["grid.fft"] / 1e9,
        "solver.rk4_step.calls": calls["solver.rk4_step"],
        "solver.rk4_step.self_s": self_s["solver.rk4_step"],
        "solver.rk4_step.p50_ms": p50_ms("solver.rk4_step"),
        "fields.solve_pressure.calls": calls["fields.solve_pressure"],
        "fields.solve_pressure.self_s": self_s["fields.solve_pressure"],
        "fields.solve_pressure.per_sample": calls["fields.solve_pressure"] / diag_samples
        if diag_samples
        else 0.0,
        "fields.derivatives.calls": calls["fields.derivatives"],
        "fields.derivatives.self_s": self_s["fields.derivatives"],
        "diagnostics.diag_field.calls": calls["diagnostics.diag_field"],
        "diagnostics.diag_field.self_s": self_s["diagnostics.diag_field"],
        "diagnostics.direction_quantities.calls": calls["diagnostics.direction_quantities"],
        "diagnostics.direction_quantities.self_s": self_s["diagnostics.direction_quantities"],
        "tracers.advance_positions.calls": calls["tracers.advance_positions"],
        "tracers.advance_positions.self_s": self_s["tracers.advance_positions"],
        "tracers.advance_positions.p50_ms": p50_ms("tracers.advance_positions"),
        "tracers.sample.calls": calls["tracers.sample"],
        "tracers.sample.self_s": self_s["tracers.sample"],
        "tracers.sample.point_fields": int(work["tracers.sample"]),
        "tracers.postprocess.calls": calls["tracers.postprocess"],
        "tracers.postprocess.self_s": self_s["tracers.postprocess"],
        "criteria.calls": calls["criteria"],
        "criteria.self_s": self_s["criteria"],
        "storage.calls": calls["storage"],
        "storage.self_s": self_s["storage"],
        "storage.mb_written": mb_written,
        "identities.make_samples.calls": calls["identities.make_samples"],
        "identities.make_samples.self_s": self_s["identities.make_samples"],
        "identities.checks.calls": calls["identities.checks"],
        "identities.checks.self_s": self_s["identities.checks"],
        "pipeline.run.self_s": self_s["pipeline.run"],
        "trace.run_s": run_s,
        "trace.covered_frac": covered / run_s,
    }
