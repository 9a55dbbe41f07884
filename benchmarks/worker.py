"""One benchmark repetition, run in a fresh process by `run.py`.

    python3 benchmarks/worker.py <workload-json> <rep-dir> <seed> <mode>

Mode "plain" runs the workload; "traced" runs it with layer tracing.

The parent sets BENCH_SPAWN_MONOTONIC to its monotonic clock just before it
starts this process, so `setup_s` covers interpreter start, the imports of
vortexlab, numpy and scipy, and parsing and validating the configuration.
The repetition writes its artifacts to `<rep-dir>/out` and its measurements
to `<rep-dir>/result.json`.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _import_vortexlab(root: Path):
    """Import vortexlab from the checkout's own source tree, nowhere else."""
    src = root / "src"
    if not (src / "vortexlab" / "__init__.py").is_file():
        raise SystemExit(f"vortexlab source not found under {src}")
    sys.path.insert(0, str(src))
    import vortexlab

    if Path(vortexlab.__file__).resolve().parent != (src / "vortexlab").resolve():
        raise SystemExit(f"imported vortexlab from {vortexlab.__file__}, not from {src}")


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _write_identity_reports(out: Path, reports: list) -> None:
    """Store the suite reports, minus their wall-clock field, as artifacts."""
    out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        data = report.to_dict()
        data.pop("elapsed_seconds")
        with open(out / f"identities_{report.dim}d.json", "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def main(argv: list[str]) -> int:
    spawned = float(os.environ["BENCH_SPAWN_MONOTONIC"])
    spec, rep_dir, seed, mode = json.loads(argv[0]), Path(argv[1]), int(argv[2]), argv[3]
    root = Path(__file__).resolve().parent.parent
    out = rep_dir / "out"

    _import_vortexlab(root)
    import numpy
    import scipy
    from vortexlab import cli, grid, identities, pipeline

    if spec["kind"] == "identities":
        args = cli.build_parser().parse_args(
            ["check-identities", "--count", str(spec["samples"]), "--seed", str(seed)]
        )
    else:
        config = pipeline.load_config(rep_dir / "run.cfg")
    setup_s = time.monotonic() - spawned
    tracer = None
    if mode == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    if spec["kind"] == "identities":
        t0 = time.perf_counter()
        for _ in range(spec["passes"]):
            reports = [
                identities.run_identity_suite(count=args.count, dim=dim, seed=args.seed)
                for dim in (3, 2)
            ]
        run_s = time.perf_counter() - t0
        _write_identity_reports(out, reports)
        steps, samples, diag_samples = spec["passes"], 2 * spec["passes"] * args.count, 0
    else:
        t0 = time.perf_counter()
        result = pipeline.run(config, output_dir=out)
        run_s = time.perf_counter() - t0
        steps, samples = config.n_steps, len(result.times)
        diag_samples = samples

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "steps": steps,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "traced": tracer is not None,
        "fft_workers": grid.fft_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        mb_written = _bytes_under(out) / 1e6
        record["layers"] = layers.layer_metrics(tracer, run_s, diag_samples, mb_written)
        with open(rep_dir / "spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(rep_dir / "result.json", "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
