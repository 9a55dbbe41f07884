"""Workload and metric definitions of the vortexlab benchmark.

This module is the single source of the workload list and the metric list.
`BENCHMARK.json` at the repository root is generated from it
(`python3 benchmarks/run.py --write-spec`), and a test keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 26
# Every run makes at least this many repetitions, whatever --seconds says, so
# that medians exist and two same-seed repetitions can be compared byte for byte.
MIN_REPS = 3
MIN_TRACED_REPS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    A run workload ("run") is a `pipeline.run` of the configuration from
    `config_text`, with all artifacts written. The identity workload
    ("identities") calls `run_identity_suite` at `samples` samples in 3D and
    then in 2D, `passes` times per repetition.
    """

    name: str
    why: str
    kind: str
    system: str = ""
    initial: str = ""
    n: int = 0
    dt: float = 0.0
    steps: int = 0
    tracers: int = 0
    sample_every: int = 1
    snapshot_every: int = 0
    snapshot_diagnostics: bool = False
    region: str = ""
    samples: int = 0
    passes: int = 0

    @property
    def dim(self) -> int:
        return 3 if self.system == "euler3d" else 2

    def config_text(self, seed: int) -> str:
        """The run configuration file a user would write for this workload."""
        lines = [
            "[run]",
            f"system = {self.system}",
            f"seed = {seed}",
            "",
            "[grid]",
            f"n = {self.n}",
            "",
            "[time]",
            f"dt = {self.dt!r}",
            f"t_end = {self.dt * self.steps:.12g}",
            f"sample_every = {self.sample_every}",
            f"snapshot_every = {self.snapshot_every}",
            f"snapshot_diagnostics = {str(self.snapshot_diagnostics).lower()}",
            "",
            "[initial]",
            f"name = {self.initial}",
            "",
            "[tracers]",
            f"count = {self.tracers}",
            "",
            "[regions]",
            f"core = {self.region}",
            "",
            "[criteria]",
            "candidate_time = 1.0",
            "",
        ]
        return "\n".join(lines)

    def env(self, seed: int) -> dict:
        """Input size of this workload, recorded with every result."""
        if self.kind == "identities":
            return {"samples": self.samples, "passes": self.passes, "dims": [3, 2], "seed": seed}
        return {
            "system": self.system,
            "n": self.n,
            "tracers": self.tracers,
            "steps": self.steps,
            "sample_every": self.sample_every,
            "seed": seed,
        }


CENTER_3D = "3.14159, 3.14159, 3.14159 ; 1.0"
CENTER_2D = "1.5708, 1.5708 ; 0.8"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="euler3d-tracers",
            why="Taylor-Green 3D, n=32, 100 tracers sampled every step: tracer sampling and advection do most of the work",
            kind="run",
            system="euler3d",
            initial="taylor-green-3d",
            n=32,
            dt=0.005,
            steps=6,
            tracers=100,
            region=CENTER_3D,
        ),
        Workload(
            name="euler3d-grid",
            why="Taylor-Green 3D, n=64, no tracers, sparse diagnostics: the RK4/FFT path does the work, the tracer layer none",
            kind="run",
            system="euler3d",
            initial="taylor-green-3d",
            n=64,
            dt=0.005,
            steps=4,
            sample_every=4,
            region=CENTER_3D,
        ),
        Workload(
            name="boussinesq2d-artifacts",
            why="2D bubble, n=256, 16 tracers, snapshots with diagnostics: 2D solver, grid diagnostics, pressure solves and writes",
            kind="run",
            system="boussinesq2d",
            initial="boussinesq-bubble",
            n=256,
            dt=0.005,
            steps=12,
            tracers=16,
            snapshot_every=4,
            snapshot_diagnostics=True,
            region=CENTER_2D,
        ),
        Workload(
            name="identities",
            why="identity suite at 1e5 samples in 3D and 2D: the pointwise direction algebra alone, no FFT work",
            kind="identities",
            samples=100_000,
            passes=10,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def spec(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# Measured with tracing off, one fresh process per repetition; each value is
# the median over the repetitions of one run.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("steps_per_s", "1/s", "higher", 0.25),
    Metric("samples_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


# Measured in a traced run; self_s is a span's time minus its child spans.
PER_LAYER = (
    _layer("grid.fft.calls", "count"),
    _layer("grid.fft.self_s", "s"),
    _layer("grid.fft.gb", "GB_computed"),
    _layer("solver.rk4_step.calls", "count"),
    _layer("solver.rk4_step.self_s", "s"),
    _layer("solver.rk4_step.p50_ms", "ms"),
    _layer("fields.solve_pressure.calls", "count"),
    _layer("fields.solve_pressure.self_s", "s"),
    _layer("fields.solve_pressure.per_sample", "ratio"),
    _layer("fields.derivatives.calls", "count"),
    _layer("fields.derivatives.self_s", "s"),
    _layer("diagnostics.diag_field.calls", "count"),
    _layer("diagnostics.diag_field.self_s", "s"),
    _layer("diagnostics.direction_quantities.calls", "count"),
    _layer("diagnostics.direction_quantities.self_s", "s"),
    _layer("tracers.advance_positions.calls", "count"),
    _layer("tracers.advance_positions.self_s", "s"),
    _layer("tracers.advance_positions.p50_ms", "ms"),
    _layer("tracers.sample.calls", "count"),
    _layer("tracers.sample.self_s", "s"),
    _layer("tracers.sample.point_fields", "count"),
    _layer("tracers.postprocess.calls", "count"),
    _layer("tracers.postprocess.self_s", "s"),
    _layer("criteria.calls", "count"),
    _layer("criteria.self_s", "s"),
    _layer("storage.calls", "count"),
    _layer("storage.self_s", "s"),
    _layer("storage.mb_written", "MB"),
    _layer("identities.make_samples.calls", "count"),
    _layer("identities.make_samples.self_s", "s"),
    _layer("identities.checks.calls", "count"),
    _layer("identities.checks.self_s", "s"),
    _layer("pipeline.run.self_s", "s"),
    _layer("trace.run_s", "s"),
    _layer("trace.overhead_s", "s"),
    _layer("trace.covered_frac", "fraction", "higher"),
)


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.spec() for m in END_TO_END],
        "per_layer": [m.spec() for m in PER_LAYER],
    }
