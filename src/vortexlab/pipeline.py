"""Run orchestration: configure, integrate, analyse, persist.

`run` is `integrate`, then `analyse`, then the writes. `integrate` advances
the chosen system with fixed-step RK4, carries a tracer cloud along with the
solver stages, writes snapshots and logs the geometric diagnostics of each
sample in a `SampleLog`. `analyse` turns a `SampleLog` alone into criterion
functionals, type-I monitors, BKM integrals, transport-identity residuals and
growth-bound margins. Everything written to disk is deterministic.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import criteria as crit
from . import solver, tracers
from .diagnostics import diag_field, kernel_inputs
from .fields import (
    DivergenceError,
    EmptyRegionError,
    ball_mask,
    gradient,
    hessian_coeffs,
    solve_pressure,
    symmetric_from_upper,
)
from .grid import GridSpec
from .storage import fields_to_json, save_diagnostics, save_field, write_csv, write_json, write_manifest

UNDER_RESOLVED_TAIL = 1e-3
WEAKER_CRITERION_NOTE = "weaker than the alignment criterion"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class Region:
    label: str
    center: tuple | None = None
    radius: float | None = None

    @property
    def is_global(self) -> bool:
        return self.center is None

    def to_dict(self) -> dict:
        if self.is_global:
            return {"label": self.label, "kind": "global"}
        return {
            "label": self.label,
            "kind": "ball",
            "center": list(self.center),
            "radius": self.radius,
        }


def _setting(section: str, key: str | None = None, **default):
    """A RunConfig field read from `key` (by default the field's name) in
    `[section]` of a config file."""
    return field(metadata={"section": section, "key": key}, **default)


@dataclass
class RunConfig:
    system: str = _setting("run")
    n: int = _setting("grid")
    dt: float = _setting("time")
    t_end: float = _setting("time")
    initial: str = _setting("initial", "name")
    seed: int = _setting("run", default=0)
    dealias: float = _setting("grid", default=2.0 / 3.0)
    length: float = _setting("grid", default=2.0 * np.pi)
    amplitude: float = _setting("initial", default=1.0)
    band: int = _setting("initial", default=3)
    snapshot_every: int = _setting("time", default=0)
    snapshot_diagnostics: bool = _setting("time", default=False)
    sample_every: int = _setting("time", default=1)
    cfl_guard: float | None = _setting("time", default=None)
    # `points` sets the count; every key of [regions] is a region's label
    tracer_count: int = _setting("tracers", "count", default=0)
    tracer_points: np.ndarray | None = _setting("tracers", "points", default=None)
    regions: list = _setting("regions", default_factory=list)
    candidate_time: float | None = _setting("criteria", default=None)
    window_fraction: float = _setting("criteria", default=0.25)

    def __post_init__(self):
        if self.system not in ("euler3d", "boussinesq2d"):
            raise ConfigError(f"unknown system {self.system!r}")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        steps = self.t_end / self.dt
        if not np.isfinite(steps):
            raise ConfigError("t_end / dt must be a finite number of steps")
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("t_end must be an integer multiple of dt")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be at least 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be nonnegative")
        if self.tracer_count < 0:
            raise ConfigError("tracer count must be nonnegative")
        if round(steps) % self.sample_every != 0:
            raise ConfigError("sample_every must divide the number of steps")
        if self.candidate_time is None:
            self.candidate_time = self.t_end
        if not np.isfinite(self.candidate_time) or self.candidate_time < self.t_end:
            raise ConfigError("candidate_time must be finite and at least t_end")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ConfigError("window_fraction must lie in (0, 1]")
        if self.cfl_guard is not None and not self.cfl_guard > 0:
            raise ConfigError("cfl_guard must be positive when set")
        try:
            self.grid()
        except ValueError as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc
        if self.initial not in solver.INITIAL_CONDITIONS:
            raise ConfigError(
                f"unknown initial condition {self.initial!r}; choose from {solver.INITIAL_CONDITIONS}"
            )
        for region in self.regions:
            if not region.is_global:
                if len(region.center) != self.dim:
                    raise ConfigError(f"region {region.label!r} center must have {self.dim} components")
                if not np.all(np.isfinite(region.center)):
                    raise ConfigError(f"region {region.label!r} center must be finite")
                if region.radius is None or not region.radius > 0:
                    raise ConfigError(f"region {region.label!r} needs a positive radius")

    @property
    def dim(self) -> int:
        return 3 if self.system == "euler3d" else 2

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def grid(self) -> GridSpec:
        return GridSpec(dim=self.dim, n=self.n, length=self.length, dealias=self.dealias)

    def all_regions(self) -> list:
        return [Region("global")] + list(self.regions)

    def to_echo(self) -> dict:
        echo = fields_to_json(self)
        echo["regions"] = [r.to_dict() for r in self.all_regions()]
        return echo


def _parse_points(text: str, dim: int) -> np.ndarray:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        values = [float(v) for v in chunk.split(",")]
        if len(values) != dim:
            raise ConfigError(f"point {chunk!r} must have {dim} components")
        points.append(values)
    if not points:
        raise ConfigError("empty point list")
    return np.asarray(points)


def read_config(path: str | Path, build):
    """`build(parser)` of the sectioned key-value file at `path` (UTF-8), for
    a `configparser.ConfigParser` holding the file. Any defect of the file,
    from its encoding and syntax to its values, raises ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        return build(parser)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError, configparser.Error) as exc:
        # int("x"), float("1,2"), interpolation syntax ("%") and the like
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse a run configuration file.

    The sections are [run], [grid], [time], [initial], [tracers], [regions]
    and [criteria]. The declaration of RunConfig is the list of keys: each
    field names its section and key. [tracers] takes `count` or `points`
    ("x, y[, z] ; ..."), and each key of [regions] is a label, set to
    "c1, c2[, c3] ; radius". Any defect raises ConfigError.
    """
    return read_config(path, _config_from)


# a field's annotation -> the reader of its text
_PARSE = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,
    "bool": lambda text: text.lower() in ("1", "true", "yes"),
}


def _config_from(parser: configparser.ConfigParser) -> RunConfig:
    values = {}
    for f in fields(RunConfig):
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        if section in ("tracers", "regions"):
            continue  # read below
        text = parser.get(section, key, fallback=None)
        if text is None:
            if f.default is MISSING:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            continue
        try:
            values[f.name] = _PARSE[f.type](text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be {f.type}, got {text!r}") from exc

    if parser.has_section("tracers"):
        sec = parser["tracers"]
        if "points" in sec:
            dim = 3 if values["system"] == "euler3d" else 2
            values["tracer_points"] = _parse_points(sec["points"], dim)
            values["tracer_count"] = values["tracer_points"].shape[0]
        else:
            values["tracer_count"] = int(sec.get("count", 0))

    regions = values["regions"] = []
    if parser.has_section("regions"):
        for label, value in parser["regions"].items():
            try:
                center_text, radius_text = value.split(";")
                center = tuple(float(v) for v in center_text.split(","))
                radius = float(radius_text)
            except ValueError as exc:
                raise ConfigError(
                    f"region {label!r} must be 'c1,c2[,c3] ; radius', got {value!r}"
                ) from exc
            regions.append(Region(label=label, center=center, radius=radius))
    return RunConfig(**values)


@dataclass
class RunResult:
    config: RunConfig
    times: np.ndarray
    report: dict
    records: list
    residual_summaries: dict
    bound_checks: dict
    final_state: object
    manifest: dict | None = None
    output_dir: Path | None = None


def _region_masks(grid: GridSpec, regions: list) -> dict:
    masks = {}
    for region in regions:
        if region.is_global:
            masks[region.label] = None
            continue
        try:
            masks[region.label] = ball_mask(grid, region.center, region.radius)
        except EmptyRegionError as exc:
            raise ConfigError(f"region {region.label!r} contains no grid points") from exc
    return masks


def _tracer_seeds(config: RunConfig, grid: GridSpec) -> np.ndarray:
    if config.tracer_points is not None:
        return np.mod(np.asarray(config.tracer_points, dtype=float), grid.length)
    if config.tracer_count <= 0:
        return np.zeros((0, grid.dim))
    rng = np.random.default_rng(config.seed + 1)
    return rng.uniform(0.0, grid.length, size=(config.tracer_count, grid.dim))


def _series_first(values: np.ndarray) -> np.ndarray:
    """Component-first values (..., samples, tracers) as a view of a C-ordered
    (samples, tracers, ...) copy, so that `kernel_inputs` hands the tracer
    series C-ordered arrays: the last bits of its contractions depend on it."""
    values = np.ascontiguousarray(np.moveaxis(values, (-2, -1), (0, 1)))
    return np.moveaxis(values, (0, 1), (-2, -1))


SUP_QUANTITIES = (
    "alignment_negative",
    "stretch_excess",
    "carrier_sup",
    "hessian_direction_sup",
    "velocity_sup",
)
# A sample reads its sup norms over this many slabs of grid planes, so that
# the direction quantities of one slab, not of the grid, are held at a time.
SUP_SLABS = 8


def _sup_norms(diag, velocity: np.ndarray, masks: dict, width: int) -> dict:
    """Max over each region of the `SUP_QUANTITIES`, read from the grid
    diagnostics `diag` and the grid velocity in slabs of `width` planes along
    the first grid axis. The slab maxima are combined with np.max, so a NaN
    anywhere gives NaN, as a max over the whole region does; a slab a ball
    does not reach is skipped."""
    parts = {name: {label: [] for label in masks} for name in SUP_QUANTITIES}
    for s, part in diag.slabs(width):
        values = {
            "alignment_negative": part.align_negative,
            "stretch_excess": part.stretch_excess,
            "carrier_sup": part.vec_mag,
            "hessian_direction_sup": part.p_xi_mag,
            # as `VectorField.magnitude`, slab by slab
            "velocity_sup": np.sqrt(np.sum(velocity[:, s] ** 2, axis=0)),
        }
        for label, mask in masks.items():
            inside = None if mask is None else mask[s]
            if inside is not None and not np.any(inside):
                continue
            for name, arr in values.items():
                parts[name][label].append(np.max(arr if inside is None else arr[inside]))
        del part, values  # hold one slab's quantities at a time
    return {
        name: {label: float(np.max(maxima)) for label, maxima in per_region.items()}
        for name, per_region in parts.items()
    }


@dataclass
class SampleLog:
    """All that `analyse` reads, one entry per sample. `sup_norms` maps each
    of the `SUP_QUANTITIES` to a series per region label; the theta entries
    are 2D only. At the tracers: `positions` (tracers, d), `tracer_grad`
    (grad u, (d, d, tracers)) and `tracer_rows` (`hessian_coeffs`, (rows,
    tracers)). eps is set by the first sample from its carrier."""

    times: list = field(default_factory=list)
    sup_norms: dict = field(default_factory=dict)
    energy: list = field(default_factory=list)
    tail_ratio: list = field(default_factory=list)
    theta_l2: list = field(default_factory=list)
    theta_range: list = field(default_factory=lambda: [np.inf, -np.inf])
    positions: list = field(default_factory=list)
    tracer_grad: list = field(default_factory=list)
    tracer_rows: list = field(default_factory=list)
    eps: float | None = None


def integrate(config: RunConfig, log: SampleLog, out_dir: Path | None = None):
    """Advance `config` from its initial state, append each sample to `log`
    and write the snapshots under `out_dir` (if not None). Returns the final
    state and the snapshot files. Input errors raise before any write."""
    grid = config.grid()
    # built here, not by the caller: the loop holds the only state
    try:
        state = solver.initial_condition(
            config.initial, grid, seed=config.seed, amplitude=config.amplitude, band=config.band
        )
    except ValueError as exc:
        # a start that does not fit the system, a non-finite amplitude
        raise ConfigError(str(exc)) from exc
    stepper = solver.StepperConfig(dt=config.dt, cfl_guard=config.cfl_guard)
    masks = _region_masks(grid, config.all_regions())
    positions = _tracer_seeds(config, grid)
    n_tracers = positions.shape[0]
    snapshots = []
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def pressure_and_diagnostics(current, theta_now, with_diag: bool = True, pos=None):
        """The pressure of `current` and, if asked, its grid diagnostics, both
        from one velocity gradient. Given the tracer positions `pos`, records
        the rows of grad u and of `hessian_coeffs` sampled there; the grid
        diagnostics then transform that same Hessian stack."""
        grad = gradient(current.u)
        if pos is not None:
            sampler = tracers.SpectralSampler(grid, pos)
            # row by row (d_i u), which bounds the sampler's temporaries
            log.tracer_grad.append(np.stack([sampler.sample(row) for row in grad.spectral]))
        # held in a list so that diag_field receives the only reference and
        # can free grad u before it builds the Hessian
        grad_u = [grad.values]
        del grad  # keep no spectrum of grad u past this point
        p = solve_pressure(current.u, theta_now, grad_u=grad_u[0])
        hess_coeffs = None
        if pos is not None:
            hess_coeffs = hessian_coeffs(p, theta_now)
            log.tracer_rows.append(sampler.sample(hess_coeffs))
        if not with_diag:
            return p, None
        # eps 0.0 until the step-0 sample sets it from its own carrier, see `sample`
        return p, diag_field(
            current.u, p, theta_now, eps=0.0 if log.eps is None else log.eps, grad_u=grad_u.pop(),
            hess_coeffs=hess_coeffs,
        )

    def take_snapshot(step: int, current, sampled) -> None:
        """Write the state at `step`; `sampled` is that step's (pressure,
        diagnostics) when it was sampled, else None."""
        if out_dir is None:
            return
        base = out_dir / "snapshots" / f"snap_{step:06d}"
        t = step * config.dt
        paths = list(save_field(Path(str(base) + "_velocity"), current.u, "velocity", t))
        theta_now = current.theta if config.dim == 2 else None
        if theta_now is not None:
            paths.extend(save_field(Path(str(base) + "_temperature"), theta_now, "temperature", t))
        if sampled is None:
            sampled = pressure_and_diagnostics(current, theta_now, config.snapshot_diagnostics)
        p_now, diag = sampled
        paths.extend(save_field(Path(str(base) + "_pressure"), p_now, "pressure", t))
        if config.snapshot_diagnostics:
            paths.extend(save_diagnostics(base, grid, diag, t))
        snapshots.extend(paths)

    def sample(step: int, current, pos: np.ndarray, keep_diag: bool):
        """Record the diagnostics of `current`; returns its (pressure,
        diagnostics). The sup norms are read slab by slab, unless keep_diag
        asks for the whole grid's quantities, which a snapshot then writes;
        otherwise the grid diagnostics are dropped here."""
        log.times.append(step * config.dt)
        log.energy.append(solver.kinetic_energy(current.u))
        theta_now = current.theta if config.dim == 2 else None
        spectra = [current.u.spectral]
        if theta_now is not None:
            spectra.append(theta_now.spectral)
            log.theta_l2.append(solver.scalar_l2_norm(theta_now))
            low, high = log.theta_range
            log.theta_range = [
                min(low, float(np.min(theta_now.values))), max(high, float(np.max(theta_now.values)))
            ]
        log.tail_ratio.append(solver.spectral_tail_ratio(grid, *spectra))
        if n_tracers:
            log.positions.append(pos.copy())
        p, diag = pressure_and_diagnostics(current, theta_now, pos=pos if n_tracers else None)
        width = grid.n if keep_diag else -(-grid.n // SUP_SLABS)
        if log.eps is None:
            # vec_mag does not depend on eps, and nothing that does is read yet
            vec_max = np.max([np.max(part.vec_mag) for _, part in diag.slabs(width)])
            log.eps = diag.eps = 1e-12 * max(float(vec_max), 1.0)
        for name, per_region in _sup_norms(diag, current.u.values, masks, width).items():
            for label, value in per_region.items():
                log.sup_norms.setdefault(name, {}).setdefault(label, []).append(value)
        return p, (diag if keep_diag else None)

    for step_index in range(config.n_steps + 1):
        try:
            want_snapshot = step_index in (0, config.n_steps) or (
                config.snapshot_every > 0 and step_index % config.snapshot_every == 0
            )
            sampled = None
            if step_index % config.sample_every == 0:
                keep_diag = want_snapshot and config.snapshot_diagnostics and out_dir is not None
                sampled = sample(step_index, state, positions, keep_diag)
            if want_snapshot:
                take_snapshot(step_index, state, sampled)
            del sampled  # free the sample's grid arrays before the RK4 step
            if step_index == config.n_steps:
                break
            if config.dim == 3:
                state, stages = solver.rk4_stages_euler(state, stepper, keep_stages=n_tracers > 0)
            else:
                state, stages = solver.rk4_stages_boussinesq(state, stepper, keep_stages=n_tracers > 0)
            if n_tracers:
                positions = tracers.advance_positions(grid, stages, positions, config.dt)
            del stages  # the stage arrays are not needed past the step
        except (solver.SolverError, tracers.TracerError, DivergenceError) as exc:
            raise type(exc)(f"aborted at step {step_index}: {exc}") from exc
    return state, snapshots


def _tracer_analysis(times: np.ndarray, vec, mat, hess, eps: float, positions: np.ndarray):
    """(records, residual_summaries, bound_checks) of the tracers at
    `positions` (samples, tracers, d) from their kernel inputs (vec, mat,
    hess), of shape (samples, tracers, d[, d]), sampled at `times`."""
    kind = "euler" if vec.shape[-1] == 3 else "boussinesq"
    series = tracers.diagnostics_series(vec, mat, hess, eps)
    carrier_max = max(float(np.max(series["vec_mag"])), 1e-300)
    bound_tol = 1e-6 * carrier_max
    variants = ("lemma", "double-exp", "damped") if kind == "euler" else ("lemma", "double-exp")
    bound_checks = {
        v: {"min_margin": np.inf, "violations": 0, "tolerance": bound_tol} for v in variants
    }
    residual_summaries = {}
    records = []
    for p in range(positions.shape[1]):
        record = tracers.TracerRecord(
            index=p,
            seed_point=positions[0, p],
            kind=kind,
            times=times,
            positions=positions[:, p],
            series={k: v[:, p] for k, v in series.items()},
        )
        if times.size >= 5:
            record.series["residuals"] = tracers.dynamical_residuals(record)
            for name, value in tracers.residual_summary(record.series["residuals"]).items():
                residual_summaries[name] = max(residual_summaries.get(name, 0.0), value)
        record.series["bounds"] = {}
        for variant in variants:
            check = tracers.growth_bound_check(record, variant, bound_tol)
            record.series["bounds"][variant] = check
            agg = bound_checks[variant]
            agg["min_margin"] = float(min(agg["min_margin"], check.min_margin))
            agg["violations"] += check.violations
        records.append(record)
    return records, residual_summaries, bound_checks


def analyse(config: RunConfig, log: SampleLog) -> tuple[dict, list]:
    """The report and the tracer records of the samples in `log`, which need
    not come from `integrate`: only `config` and `log` are read."""
    kind = "euler" if config.dim == 3 else "boussinesq"
    weight = "none" if kind == "euler" else "linear"
    threshold = 1.0 if kind == "euler" else 2.0
    horizon = config.candidate_time
    regions = config.all_regions()
    times = np.asarray(log.times)

    records, residual_summaries, bound_checks = [], {}, {}
    if log.positions:
        d = config.dim
        upper, carrier = np.split(np.stack(log.tracer_rows, axis=-2), [d * (d + 1) // 2])
        vec, mat, hess = kernel_inputs(
            _series_first(np.stack(log.tracer_grad, axis=-2)),
            _series_first(symmetric_from_upper(upper, d)),
            _series_first(carrier) if d == 2 else None,
        )
        records, residual_summaries, bound_checks = _tracer_analysis(
            times, vec, mat, hess, log.eps, np.stack(log.positions)
        )

    monitor_mask = times < horizon
    criteria_entries = []
    monitors = []
    bkm_entries = []
    for region in regions:
        label = region.label
        sup = {name: np.asarray(per_region[label]) for name, per_region in log.sup_norms.items()}
        for name in ("alignment_negative", "stretch_excess"):
            series = sup[name]
            entry = crit.criterion_functional(
                times, series, weight=None if weight == "none" else weight,
                horizon=None if weight == "none" else horizon, region=label,
            ).to_dict()
            entry["name"] = name
            criteria_entries.append(entry)
            if np.any(monitor_mask):
                monitor = crit.type_one_monitor(
                    times[monitor_mask],
                    series[monitor_mask],
                    horizon=horizon,
                    threshold=threshold,
                    window_fraction=config.window_fraction,
                    region=label,
                ).to_dict()
                monitor["name"] = name
                monitor["samples_used"] = int(np.count_nonzero(monitor_mask))
                monitors.append(monitor)
        if kind == "euler":
            entry = crit.criterion_functional(
                times, 2.0 * sup["hessian_direction_sup"], region=label
            ).to_dict()
            entry["name"] = "hessian_direction"
            entry["note"] = WEAKER_CRITERION_NOTE
            criteria_entries.append(entry)
        for name, bkm_weight in (("carrier", weight), ("velocity", "none")):
            entry = {"name": f"{name}_supnorm_integral", "region": label, "weight": bkm_weight}
            if bkm_weight == "linear":
                entry["horizon"] = horizon
            entry["value"] = crit.bkm_integral(
                times, sup[f"{name}_sup"], weight=bkm_weight, horizon=horizon
            )
            bkm_entries.append(entry)

    tail = np.asarray(log.tail_ratio)
    report = {
        "system": config.system,
        "kind": kind,
        "grid": {"dim": config.dim, "n": config.n, "length": config.length, "dealias": config.dealias},
        "time": {"dt": config.dt, "t_end": config.t_end, "sample_every": config.sample_every},
        "candidate_time": horizon,
        "monitor_threshold": threshold,
        "regions": [r.to_dict() for r in regions],
        "series": {
            "times": times.tolist(),
            "kinetic_energy": list(log.energy),
            "spectral_tail_ratio": tail.tolist(),
            "sup_norms": {
                name: {label: list(series) for label, series in per_region.items()}
                for name, per_region in log.sup_norms.items()
            },
        },
        "criteria": criteria_entries,
        "type_one": monitors,
        "bkm": bkm_entries,
        "residual_summaries": residual_summaries,
        "bound_checks": bound_checks,
        "under_resolved": bool(np.any(tail > UNDER_RESOLVED_TAIL)),
    }
    if log.theta_l2:
        report["series"]["theta_l2"] = list(log.theta_l2)
        report["theta_range"] = list(log.theta_range)
    return report, records


def run(config: RunConfig, output_dir: str | Path | None = None) -> RunResult:
    """`integrate`, `analyse`, and write the tracer CSVs, report.json and
    manifest.json beside the snapshots in `output_dir` (if not None)."""
    out_dir = Path(output_dir) if output_dir is not None else None
    log = SampleLog()
    state, files = integrate(config, log, out_dir)
    report, records = analyse(config, log)

    manifest = None
    if out_dir is not None:
        for record in records:
            path = out_dir / "tracers" / f"tracer_{record.index:03d}.csv"
            _write_tracer_csv(path, record)
            files.append(path)
        report_path = out_dir / "report.json"
        write_json(report_path, report)
        files.append(report_path)
        manifest = write_manifest(
            out_dir / "manifest.json",
            config.to_echo(),
            files,
            {
                "under_resolved": report["under_resolved"],
                "n_steps": config.n_steps,
                "tracer_seeds": [record.seed_point.tolist() for record in records],
            },
        )

    return RunResult(
        config=config,
        times=np.asarray(log.times),
        report=report,
        records=records,
        residual_summaries=report["residual_summaries"],
        bound_checks=report["bound_checks"],
        final_state=state,
        manifest=manifest,
        output_dir=out_dir,
    )


def _write_tracer_csv(path: Path, record: tracers.TracerRecord) -> None:
    s = record.series
    columns = {"time": record.times}
    for axis in range(record.positions.shape[1]):
        columns[f"x{axis + 1}"] = record.positions[:, axis]
    columns["carrier_mag"] = s["vec_mag"]
    columns["alpha"] = s["alpha"]
    columns["rho"] = s["rho"]
    columns["align"] = s["align"]
    columns["stretch_balance"] = s["stretch_balance"]
    for name, series in s.get("residuals", {}).items():
        columns[f"residual_{name}"] = series
    for variant, check in s.get("bounds", {}).items():
        columns[f"margin_{variant.replace('-', '_')}"] = check.margins
    write_csv(path, columns)


__all__ = [
    "ConfigError",
    "Region",
    "RunConfig",
    "RunResult",
    "SampleLog",
    "analyse",
    "integrate",
    "load_config",
    "read_config",
    "run",
    "UNDER_RESOLVED_TAIL",
    "WEAKER_CRITERION_NOTE",
]
