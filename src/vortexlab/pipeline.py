"""Run orchestration: configure, integrate, analyse, persist.

`run` is `integrate`, then `analyse`, then the writes. `integrate` advances
the chosen system with fixed-step RK4, carries a tracer cloud with the solver
stages, sampled inside each step, writes snapshots and logs the geometric
diagnostics of each sample in a `SampleLog`. `analyse` turns a `SampleLog`
alone into criterion functionals, type-I monitors, BKM integrals,
transport-identity residuals and growth-bound margins. Everything written to
disk is deterministic.
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
    # with `points`, a count of 0 reads as their number; [regions] keys are labels
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
        if not np.isfinite(self.amplitude):
            raise ConfigError("amplitude must be finite")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be at least 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be nonnegative")
        if self.tracer_count < 0:
            raise ConfigError("tracer count must be nonnegative")
        if self.tracer_points is not None:
            try:
                points = self.tracer_points = np.asarray(self.tracer_points, dtype=float)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"tracer points must be rows of numbers: {exc}") from exc
            if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] != self.dim:
                raise ConfigError(f"tracer points must have shape (k >= 1, {self.dim}), got {points.shape}")
            if not np.all(np.isfinite(points)):
                raise ConfigError("tracer points must be finite")
            if self.tracer_count not in (0, len(points)):
                raise ConfigError(f"tracer count {self.tracer_count} differs from the {len(points)} points")
            self.tracer_count = len(points)
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
                f"unknown initial condition {self.initial!r}; choose from {tuple(solver.INITIAL_CONDITIONS)}"
            )
        if self.dim not in solver.INITIAL_CONDITIONS[self.initial]:
            raise ConfigError(f"initial condition {self.initial!r} does not fit {self.system}")
        if self.initial == "random-band-limited" and self.band < 1:
            raise ConfigError("band must be at least 1 for random-band-limited")
        # labels keep their case but are told apart without it, so that
        # their CSV file names differ on any file system
        labels = [region.label for region in self.regions]
        folded = [label.casefold() for label in labels]
        if "global" in folded:
            raise ConfigError("region label 'global' is reserved for the whole box, in any case")
        if len(set(folded)) < len(labels):
            raise ConfigError(f"region labels must differ, not only in case, got {labels}")
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


def _parse_points(text: str) -> list:
    """The rows "x, y[, z] ; ..." of `text`; `RunConfig` checks their shape."""
    return [[float(v) for v in chunk.split(",")] for chunk in text.split(";") if chunk.strip()]


def read_config(path: str | Path, build, keys: dict):
    """`build(parser)` of the sectioned key-value file at `path` (UTF-8), for
    a `configparser.ConfigParser` holding the file. `keys` maps each section
    the file may hold to the set of its keys, or to None when any key goes.
    Keys are read as written, as section names are: `N` is not `n`. Any
    defect of the file, from its encoding and syntax to a section or key
    outside `keys` and its values, raises ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # configparser would lowercase every key
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser copies [DEFAULT] into every section, where a key is unknown
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] is not a section of this file; it holds {sorted(parser.defaults())}")
    for section in parser.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}]; the sections are {sorted(keys)}")
        allowed = keys[section]
        if allowed is not None and not allowed.issuperset(parser[section]):
            unknown = sorted(set(parser[section]) - allowed)
            raise ConfigError(f"unknown key(s) {unknown} in [{section}]; its keys are {sorted(allowed)}")
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
    field names its section and key. [tracers] takes `count`, `points`
    ("x, y[, z] ; ...") or both if they agree, and each key of [regions] is a
    label, set to "c1, c2[, c3] ; radius". Keys and labels are read as
    written. Any defect, an unknown section or key among them, raises
    ConfigError.
    """
    keys = {}
    for f in fields(RunConfig):
        keys.setdefault(f.metadata["section"], set()).add(f.metadata["key"] or f.name)
    keys["regions"] = None
    return read_config(path, _config_from, keys)


def _parse_bool(text: str) -> bool:
    """configparser's boolean words: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# a field's annotation -> the reader of its text
_PARSE = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,
    "bool": _parse_bool,
    "np.ndarray | None": _parse_points,
}


def _config_from(parser: configparser.ConfigParser) -> RunConfig:
    values = {}
    for f in fields(RunConfig):
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        if section == "regions":
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
    """The sample times, the report, the tracer CSV columns (`analyse`) and,
    for a run with an output directory, the manifest and the directory."""

    times: np.ndarray
    report: dict
    tracer_columns: dict
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
        return grid.wrap(config.tracer_points)
    if config.tracer_count <= 0:
        return np.zeros((0, grid.dim))
    rng = np.random.default_rng(config.seed + 1)
    return rng.uniform(0.0, grid.length, size=(config.tracer_count, grid.dim))


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
    are 2D only. At the tracers: `positions` (tracers, d) and
    `tracer_inputs`, the (vec, mat, hess) of `kernel_inputs`, of shape
    (tracers, d[, d]). eps is set by the first sample from its carrier."""

    times: list = field(default_factory=list)
    sup_norms: dict = field(default_factory=dict)
    energy: list = field(default_factory=list)
    tail_ratio: list = field(default_factory=list)
    theta_l2: list = field(default_factory=list)
    theta_range: list = field(default_factory=lambda: [np.inf, -np.inf])
    positions: list = field(default_factory=list)
    tracer_inputs: list = field(default_factory=list)
    eps: float | None = None


def check_output_dir(out_dir: Path) -> None:
    """Raise ConfigError if the directory `out_dir` cannot be made because
    it is, or lies under, a file."""
    if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
        raise ConfigError(f"output directory {out_dir} is, or lies under, a file")


def integrate(config: RunConfig, log: SampleLog, out_dir: Path | None = None):
    """Advance `config` from its initial state, append each sample to `log`
    and write the snapshots under `out_dir` (if not None). Returns the
    snapshot files. Input errors raise before any write."""
    if out_dir is not None:
        check_output_dir(out_dir)
    grid = config.grid()
    # built here, not by the caller: the loop holds the only state
    try:
        state = solver.initial_condition(
            config.initial, grid, seed=config.seed, amplitude=config.amplitude, band=config.band
        )
    except ValueError as exc:
        # a start that cannot be built, as when its amplitude overflows
        raise ConfigError(str(exc)) from exc
    stepper = solver.StepperConfig(dt=config.dt, cfl_guard=config.cfl_guard)
    rk4_step = solver.rk4_stages_euler if config.dim == 3 else solver.rk4_stages_boussinesq
    masks = _region_masks(grid, config.all_regions())
    positions = _tracer_seeds(config, grid)
    n_tracers = positions.shape[0]
    snapshots = []
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def observe(step: int, current, pos: np.ndarray, sampled: bool, base: Path | None) -> None:
        """Log the sample of `current` at `step` if `sampled`, and write its
        snapshot next to `base` if not None. One velocity gradient feeds the
        pressure, the tracers' kernel inputs and the grid diagnostics, which
        are built only for a sample or a diagnostic snapshot, and the
        tracers sample each derivative stack that those builders hand over.
        A sample reads its sup norms slab by slab, unless the snapshot
        writes the whole grid's."""
        t = step * config.dt
        theta_now = current.theta
        if sampled:
            log.times.append(t)
            log.energy.append(solver.kinetic_energy(current.u))
            spectra = [current.u.spectral]
            if theta_now is not None:
                spectra.append(theta_now.spectral)
                log.theta_l2.append(solver.scalar_l2_norm(theta_now))
                low, high = log.theta_range
                log.theta_range = [
                    min(low, float(np.min(theta_now.values))), max(high, float(np.max(theta_now.values)))
                ]
            log.tail_ratio.append(solver.spectral_tail_ratio(grid, *spectra))
        at_tracers = {}  # stack name -> its samples at the tracers, in build order
        on_stack = None
        if sampled and n_tracers > 0:
            log.positions.append(pos.copy())
            sampler = tracers.SpectralSampler(grid, pos)

            def on_stack(name: str, coeffs: np.ndarray) -> None:
                at_tracers.setdefault(name, []).append(sampler.sample(coeffs))
        # held in a list so that diag_field receives the only reference and
        # can free grad u before it transforms the Hessian
        grad_u = [gradient(current.u, on_stack)]
        p = solve_pressure(current.u, theta_now, grad_u=grad_u[0])
        write_diag = base is not None and config.snapshot_diagnostics
        if sampled or write_diag:
            # eps None: the first sample fixes it from its own carrier
            diag = diag_field(current.u, p, theta_now, eps=log.eps, grad_u=grad_u.pop(), on_stack=on_stack)
        if on_stack is not None:
            # popped, so that no point sample outlives this assembly
            hess_p = symmetric_from_upper(at_tracers.pop("hessian")[0], grid.dim)
            carrier = at_tracers.pop("carrier", [None])[0]
            log.tracer_inputs.append(kernel_inputs(np.stack(at_tracers.pop("grad_u")), hess_p, carrier))
        if sampled:
            log.eps = diag.eps
            width = grid.n if write_diag else -(-grid.n // SUP_SLABS)
            for name, per_region in _sup_norms(diag, current.u.values, masks, width).items():
                for label, value in per_region.items():
                    log.sup_norms.setdefault(name, {}).setdefault(label, []).append(value)
        if base is None:
            return
        if not write_diag:
            diag = None  # free the grid diagnostics before the writes
        paths = list(save_field(Path(str(base) + "_velocity"), grid, current.u.values, "velocity", t))
        if theta_now is not None:
            paths.extend(save_field(Path(str(base) + "_temperature"), grid, theta_now.values, "temperature", t))
        paths.extend(save_field(Path(str(base) + "_pressure"), grid, p.values, "pressure", t))
        if write_diag:
            paths.extend(save_diagnostics(base, grid, diag, t))
        snapshots.extend(paths)

    for step_index in range(config.n_steps + 1):
        try:
            sampled = step_index % config.sample_every == 0
            snap = out_dir is not None and (step_index in (0, config.n_steps) or (
                config.snapshot_every > 0 and step_index % config.snapshot_every == 0
            ))
            base = out_dir / "snapshots" / f"snap_{step_index:06d}" if snap else None
            if sampled or base is not None:
                # the sample's grid arrays are freed when it returns, before the RK4 step
                observe(step_index, state, positions, sampled, base)
            if step_index == config.n_steps:
                break
            if n_tracers:
                state, positions = tracers.advance_positions(
                    grid, positions, config.dt, lambda on_stage: rk4_step(state, stepper, on_stage)
                )
            else:
                state = rk4_step(state, stepper)
        except (solver.SolverError, tracers.TracerError, DivergenceError) as exc:
            raise type(exc)(f"aborted at step {step_index}: {exc}") from exc
    return snapshots


def _tracer_analysis(times: np.ndarray, vec, mat, hess, eps: float, positions: np.ndarray):
    """(tracer_columns, residual_summaries, bound_checks) of the tracers at
    `positions` (samples, tracers, d) from their kernel inputs (vec, mat,
    hess), of shape (samples, tracers, d[, d]), sampled at `times`. The
    series, the residuals and each bound variant are one call on the whole
    batch. tracer_columns are the columns of the tracer CSVs in their order,
    each of shape (samples, tracers): time, x1..xd, five series, then
    `residual_<identity>` (with at least 5 samples) and `margin_<variant>`."""
    q = tracers.diagnostics_series(vec, mat, hess, eps)
    bound_tol = 1e-6 * max(float(np.max(q.vec_mag)), 1e-300)
    variants = tracers.BOUND_VARIANTS if vec.shape[-1] == 3 else ("lemma", "double-exp")
    residuals = tracers.dynamical_residuals(times, q) if times.size >= 5 else {}
    checks = {v: tracers.growth_bound_check(times, q, v, bound_tol) for v in variants}
    columns = {"time": np.broadcast_to(times[:, None], positions.shape[:2])}
    columns.update({f"x{axis + 1}": positions[..., axis] for axis in range(positions.shape[-1])})
    columns["carrier_mag"] = q.vec_mag
    columns.update({key: getattr(q, key) for key in ("alpha", "rho", "align", "stretch_balance")})
    columns.update({f"residual_{name}": r for name, r in residuals.items()})
    columns.update({f"margin_{v.replace('-', '_')}": c.margins for v, c in checks.items()})
    bound_checks = {
        v: {"min_margin": c.min_margin, "violations": c.violations, "tolerance": bound_tol}
        for v, c in checks.items()
    }
    return columns, tracers.residual_summary(residuals), bound_checks


def analyse(config: RunConfig, log: SampleLog) -> tuple[dict, dict]:
    """The report and the tracer CSV columns (`_tracer_analysis`; none
    without tracers) of the samples in `log`, which need not come from
    `integrate`: only `config` and `log` are read."""
    kind = "euler" if config.dim == 3 else "boussinesq"
    weight = "none" if kind == "euler" else "linear"
    threshold = 1.0 if kind == "euler" else 2.0
    horizon = config.candidate_time
    regions = config.all_regions()
    times = np.asarray(log.times)

    tracer_columns, residual_summaries, bound_checks = {}, {}, {}
    if log.positions:
        # forced C-ordered: a sample's inputs are views in other orders, which
        # np.stack would keep, and the kernel's last bits depend on the order
        vec, mat, hess = (np.array(inputs, order="C") for inputs in zip(*log.tracer_inputs))
        tracer_columns, residual_summaries, bound_checks = _tracer_analysis(
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
                times, series, weight=weight, horizon=None if weight == "none" else horizon, region=label,
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
    return report, tracer_columns


def run(config: RunConfig, output_dir: str | Path | None = None) -> RunResult:
    """`integrate`, `analyse`, and write the tracer CSVs, report.json and
    manifest.json beside the snapshots in `output_dir` (if not None)."""
    out_dir = Path(output_dir) if output_dir is not None else None
    log = SampleLog()
    files = integrate(config, log, out_dir)
    report, tracer_columns = analyse(config, log)

    manifest = None
    if out_dir is not None:
        seeds = log.positions[0] if log.positions else np.zeros((0, config.dim))
        for p in range(len(seeds)):
            path = out_dir / "tracers" / f"tracer_{p:03d}.csv"
            write_csv(path, {name: column[:, p] for name, column in tracer_columns.items()})
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
                "tracer_seeds": seeds.tolist(),
            },
        )

    return RunResult(
        times=np.asarray(log.times),
        report=report,
        tracer_columns=tracer_columns,
        manifest=manifest,
        output_dir=out_dir,
    )


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
