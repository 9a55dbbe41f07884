"""Command-line interface.

Subcommands: run (simulate + monitor), check-identities (randomized
algebraic suite), gronwall (comparison-lemma verification), report
(re-render a run report as tables/CSV). Exit codes: 0 success,
1 verification failure, 2 configuration error. Every input error of run,
check-identities and gronwall, in a file or in an option, exits 2 with
"configuration error: ...".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import criteria as crit
from . import identities, pipeline, storage
from .fields import DivergenceError
from .solver import SolverError
from .tracers import TracerError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2

THREADS_HELP = """environment:
  VORTEXLAB_THREADS  FFT worker threads. Default: 1. A value is clamped to
                     [1, the CPUs this process may run on (its CPU
                     affinity)]; a non-integer is ignored. The transforms
                     run on numpy.fft (numpy >= 2.0); with more than one
                     worker each pass splits its lines over a thread pool.
                     Artifacts are byte-identical for every thread count,
                     and equal to those of scipy.fft (checked with numpy
                     2.4 and scipy 1.17)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Spectral Euler/Boussinesq laboratory: diagnostics, identities, blow-up monitors.",
        epilog=THREADS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured system and write artifacts")
    p_run.add_argument("config", help="run configuration file (sectioned key-value format)")
    p_run.add_argument("--output", "-o", help="output directory (default: ./run-out)")

    p_id = sub.add_parser("check-identities", help="randomized algebraic identity suite")
    p_id.add_argument("--count", type=int, default=100_000, help="number of random samples")
    p_id.add_argument("--dim", type=int, default=3, choices=(2, 3), help="2 or 3")
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--scale", type=float, default=1.0, help="sample magnitude")
    p_id.add_argument("--tolerance", type=float, default=identities.IDENTITY_TOL)
    p_id.add_argument("--json", dest="json_path", help="also write the report as JSON")

    p_gw = sub.add_parser("gronwall", help="verify the comparison-lemma bound on a problem spec")
    p_gw.add_argument("spec", help="problem spec file")
    p_gw.add_argument("--json", dest="json_path", help="also write the report as JSON")

    p_rep = sub.add_parser("report", help="render a run report as human-readable tables")
    p_rep.add_argument("rundir", help="run output directory (or a report.json path)")
    p_rep.add_argument("--csv", dest="csv_dir", help="also write criterion series as CSV files")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-identities":
            return _cmd_check_identities(args)
        if args.command == "gronwall":
            return _cmd_gronwall(args)
        if args.command == "report":
            return _cmd_report(args)
    except pipeline.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, TracerError, DivergenceError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_CONFIG


def _cmd_run(args) -> int:
    config = pipeline.load_config(args.config)
    output = Path(args.output) if args.output else Path("run-out")
    result = pipeline.run(config, output_dir=output)
    report = result.report
    print(f"run complete: {config.system}, n={config.n}, t_end={config.t_end:g}")
    print(f"output: {result.output_dir}")
    print(f"under-resolved: {report['under_resolved']}")
    for entry in report["criteria"]:
        print(
            f"criterion {entry['name']:26s} region={entry['region']:8s} "
            f"value={storage.format_float(entry['value'])}"
        )
    for entry in report["type_one"]:
        print(
            f"type-I    {entry['name']:26s} region={entry['region']:8s} "
            f"window_max={storage.format_float(entry['window_max'])} "
            f"threshold={entry['threshold']:g} -> {entry['verdict']}"
        )
    for variant, agg in report["bound_checks"].items():
        print(
            f"bound     {variant:26s} min_margin={storage.format_float(agg['min_margin'])} "
            f"violations={agg['violations']}"
        )
    return EXIT_OK


def _cmd_check_identities(args) -> int:
    if args.count < 1:
        raise pipeline.ConfigError("count must be >= 1")
    if args.scale == 0 or not np.isfinite(args.scale):
        raise pipeline.ConfigError("scale must be finite and nonzero")
    report = identities.run_identity_suite(
        count=args.count,
        dim=args.dim,
        seed=args.seed,
        scale=args.scale,
        tolerance=args.tolerance,
    )
    print(f"identity suite: dim={report.dim} count={report.count} seed={report.seed}")
    for name, value in sorted(report.residual_max.items()):
        status = "PASS" if value <= report.tolerance else "FAIL"
        print(
            f"  {name:26s} max_residual={value:.3e} skipped={report.skipped.get(name, 0)} {status}"
        )
    for name, slack in sorted(report.inequality_min_slack.items()):
        status = "PASS" if slack >= -report.inequality_tolerance else "FAIL"
        ratio = report.inequality_max_ratio[name]
        print(f"  {name:26s} min_slack={slack:.3e} max_ratio={ratio:.12f} {status}")
    print(f"elapsed: {report.elapsed_seconds:.2f} s")
    if args.json_path:
        storage.write_json(Path(args.json_path), report.to_dict())
    if not report.passed:
        print("worst sample:")
        print(json.dumps(storage.finite_or_null(report.worst), indent=2, allow_nan=False))
        return EXIT_VERIFICATION
    return EXIT_OK


def _parse_profile(text: str, times: np.ndarray) -> np.ndarray:
    text = text.strip()
    try:
        if text.startswith("linear:"):
            c0, c1 = (float(v) for v in text[len("linear:") :].split(","))
            return c0 + c1 * times
        return np.full_like(times, float(text))
    except ValueError as exc:
        raise pipeline.ConfigError(f"cannot parse profile {text!r} (use a number or linear:c0,c1)") from exc


def _gronwall_spec(parser) -> dict:
    """The settings of a gronwall spec: the variant and sample times, and
    either the [batch] count and seed or the rest of the single problem's
    `GronwallProblem` arguments (alpha, beta and y)."""
    if not parser.has_section("gronwall"):
        raise pipeline.ConfigError("spec file needs a [gronwall] section")
    sec = parser["gronwall"]
    variant = sec.get("variant", "single").strip()
    if variant not in ("single", "double"):
        raise pipeline.ConfigError(f"variant must be 'single' or 'double', got {variant!r}")
    t_start = float(sec.get("t_start", 0.0))
    t_end = float(sec.get("t_end", 1.0))
    samples = int(sec.get("samples", 257))
    if not np.isfinite(t_end - t_start) or t_end <= t_start or samples < 5:
        raise pipeline.ConfigError("need finite t_end > t_start and at least 5 samples")
    spec = {"variant": variant, "times": np.linspace(t_start, t_end, samples)}
    if parser.has_section("batch"):
        spec["count"] = int(parser["batch"].get("count", 1000))
        spec["seed"] = int(parser["batch"].get("seed", 0))
        if spec["count"] < 1:
            raise pipeline.ConfigError("batch count must be >= 1")
        return spec
    times = spec["times"]
    spec["alpha"] = _parse_profile(sec.get("alpha", "1.0"), times)
    spec["beta"] = _parse_profile(sec.get("beta", "0.0"), times)
    y_spec = sec.get("y", "equality").strip()
    spec["y"] = None
    if y_spec.startswith("const:"):
        spec["y"] = np.full_like(times, float(y_spec[len("const:") :]))
    elif y_spec not in ("equality", "none", ""):
        raise pipeline.ConfigError(f"unknown y spec {y_spec!r}")
    return spec


def _cmd_gronwall(args) -> int:
    spec = pipeline.read_config(args.spec, _gronwall_spec)
    variant = spec["variant"]
    out: dict = {"variant": variant}
    if "count" in spec:
        count, seed = spec["count"], spec["seed"]
        rng = np.random.default_rng(seed)
        excesses = []
        dominated = overflowed = 0
        # over a long interval exp(I[beta]) can overflow: the bound or the
        # oracle turns inf, the excess NaN, and the problem counts as overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(count):
                problem = crit.random_gronwall_problem(rng, variant, spec["times"])
                rep = crit.verify_gronwall(problem)
                excesses.append(rep.max_relative_excess)
                dominated += int(rep.domination_satisfied)
                overflowed += int(not (np.all(np.isfinite(rep.bound)) and np.all(np.isfinite(rep.y))))
        worst = float(np.max(excesses, initial=0.0))  # a NaN carries through
        out.update(
            {
                "count": count,
                "seed": seed,
                "dominated": dominated,
                "overflowed": overflowed,
                "max_relative_excess": worst,
            }
        )
        print(
            f"gronwall batch: variant={variant} dominated={dominated}/{count} overflowed={overflowed} "
            f"max_excess={_report_number(storage.finite_or_null(worst), '.3e')}"
        )
        failed = dominated != count
    else:
        try:
            problem = crit.GronwallProblem(**spec)
        except (crit.SeriesError, crit.HypothesisError) as exc:
            print(f"hypothesis violation: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
        rep = crit.verify_gronwall(problem)
        out.update(rep.to_dict())
        print(
            f"gronwall: variant={variant} hypothesis={rep.hypothesis_satisfied} "
            f"dominated={rep.domination_satisfied} max_excess={rep.max_relative_excess}"
        )
        failed = not (rep.hypothesis_satisfied and rep.domination_satisfied)
    if args.json_path:
        storage.write_json(Path(args.json_path), out)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _report_number(value, spec: str = ".17g") -> str:
    """A number read from report.json as text. `write_json` stores a
    non-finite value as null, so None reads "non-finite"."""
    return "non-finite" if value is None else format(float(value), spec)


def _cmd_report(args) -> int:
    path = Path(args.rundir)
    report_path = path if path.suffix == ".json" else path / "report.json"
    if not report_path.exists():
        raise pipeline.ConfigError(f"no report found at {report_path}")
    report = storage.read_json(report_path)

    print(f"system: {report['system']}   grid n={report['grid']['n']}   dt={report['time']['dt']:g}")
    print(f"candidate time: {report['candidate_time']:g}   under-resolved: {report['under_resolved']}")
    print()
    print(f"{'criterion':28s} {'region':10s} {'weight':8s} {'value':>24s}")
    for entry in report["criteria"]:
        note = f"  [{entry['note']}]" if "note" in entry else ""
        print(
            f"{entry['name']:28s} {entry['region']:10s} {entry['weight']:8s} "
            f"{_report_number(entry['value']):>24s}{note}"
        )
    print()
    print(f"{'type-I monitor':28s} {'region':10s} {'window max':>24s} {'thr':>5s}  verdict")
    for entry in report["type_one"]:
        print(
            f"{entry['name']:28s} {entry['region']:10s} "
            f"{_report_number(entry['window_max']):>24s} {entry['threshold']:>5g}  {entry['verdict']}"
        )
    print()
    print(f"{'integral':28s} {'region':10s} {'weight':8s} {'value':>24s}")
    for entry in report["bkm"]:
        print(
            f"{entry['name']:28s} {entry['region']:10s} {entry['weight']:8s} "
            f"{_report_number(entry['value']):>24s}"
        )
    if report.get("residual_summaries"):
        print()
        print("transport-identity residual maxima along tracers:")
        for name, value in sorted(report["residual_summaries"].items()):
            print(f"  {name:26s} {_report_number(value, '.6e')}")
    if report.get("bound_checks"):
        print()
        print("growth-bound margins along tracers:")
        for variant, agg in report["bound_checks"].items():
            print(
                f"  {variant:26s} min_margin={_report_number(agg['min_margin'], '.6e')} "
                f"violations={agg['violations']} tol={agg['tolerance']:.3e}"
            )

    if args.csv_dir:
        csv_dir = Path(args.csv_dir)
        times = np.asarray(report["series"]["times"], dtype=float)
        for entry in report["criteria"]:
            columns = {
                "time": times,
                "norm": np.asarray(entry["norm_samples"], dtype=float),
                "inner_integral": np.asarray(entry["inner_integral"], dtype=float),
                "double_integral": np.asarray(entry["double_integral"], dtype=float),
                "integrand": np.asarray(entry["integrand"], dtype=float),
            }
            storage.write_csv(csv_dir / f"criterion_{entry['name']}_{entry['region']}.csv", columns)
        for entry in report["type_one"]:
            storage.write_csv(
                csv_dir / f"type_one_{entry['name']}_{entry['region']}.csv",
                {
                    "time": np.asarray(entry["times"], dtype=float),
                    "scaled": np.asarray(entry["scaled"], dtype=float),
                },
            )
        print(f"\nseries CSVs written to {csv_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
