"""vortexlab benchmark.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark starts one fresh process per
repetition (`worker.py`), one at a time, and keeps starting them until
`--seconds` have passed and at least MIN_REPS have run. Every repetition's
outputs are checked (`check.py`). It prints each metric by name with its
unit, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` untraced and traced repetitions alternate
and the metrics are the per-layer ones.

`--write-spec` rewrites BENCHMARK.json from workloads.py. `record.py
baseline` runs every workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    MIN_REPS,
    MIN_TRACED_REPS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    Workload,
    benchmark_spec,
)

ROOT = HERE.parent
OUT_BASE = ROOT / ".bench_out"
REP_TIMEOUT_S = 150


class RepFailed(Exception):
    pass


def run_rep(workload: Workload, seed: int, rep_dir: Path, mode: str = "plain") -> dict:
    """Run one repetition in a fresh process and return its measurements.

    `mode` is "plain" or "traced".
    """
    rep_dir.mkdir(parents=True)
    if workload.kind == "run":
        (rep_dir / "run.cfg").write_text(workload.config_text(seed))
    env = {k: v for k, v in os.environ.items() if k not in ("VORTEXLAB_THREADS", "PYTHONPATH")}
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        json.dumps(dataclasses.asdict(workload)),
        str(rep_dir),
        str(seed),
        mode,
    ]
    env["BENCH_SPAWN_MONOTONIC"] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RepFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((rep_dir / "result.json").read_text())


def end_to_end(reps: list[dict]) -> dict:
    """Medians over the untraced repetitions."""
    return {
        "setup_s": statistics.median([r["setup_s"] for r in reps]),
        "run_s": statistics.median([r["run_s"] for r in reps]),
        "steps_per_s": statistics.median([r["steps"] / r["run_s"] for r in reps]),
        "samples_per_s": statistics.median([r["samples"] / r["run_s"] for r in reps]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced repetitions; counts are the same in each."""
    layers = [r["layers"] for r in traced]
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    untraced_run_s = statistics.median([r["run_s"] for r in untraced])
    out["trace.overhead_s"] = out["trace.run_s"] - untraced_run_s
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict,
    out_base: Path = OUT_BASE,
    log=print,
) -> dict:
    """Run one workload for `seconds` and return the result object."""
    run_dir = out_base / f"{workload.name}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    reps, failed, digest, spans = [], 0, None, None
    started = time.monotonic()
    attempted = 0
    try:
        while True:
            traced = trace and attempted % 2 == 1
            rep_dir = run_dir / f"rep{attempted:03d}"
            attempted += 1
            try:
                rep = run_rep(workload, seed, rep_dir, "traced" if traced else "plain")
                out = rep_dir / "out"
                problems = check.check_outputs(workload.kind, out, reference, seed)
                this_digest = check.artifact_digest(out)
                if digest is None:
                    digest = this_digest
                elif this_digest != digest:
                    problems.append("artifacts differ from the first repetition with the same seed")
                if problems:
                    raise RepFailed("; ".join(problems[:5]))
                reps.append(rep)
                log(
                    f"# rep {attempted}: setup_s={rep['setup_s']:.4f} run_s={rep['run_s']:.4f} "
                    f"peak_rss_mb={rep['peak_rss_mb']:.1f} traced={rep['traced']}"
                )
                if traced:
                    spans = (rep_dir / "spans.json").read_bytes()
            except (RepFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
                failed += 1
                log(f"# repetition {attempted} failed: {exc}")
            shutil.rmtree(rep_dir, ignore_errors=True)
            n_plain = sum(not r["traced"] for r in reps)
            n_traced = len(reps) - n_plain
            enough = n_plain >= (MIN_TRACED_REPS if trace else MIN_REPS) and (
                not trace or n_traced >= MIN_TRACED_REPS
            )
            if (enough or failed) and time.monotonic() - started >= seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if spans is not None:
        out_base.mkdir(parents=True, exist_ok=True)
        (out_base / f"{workload.name}.spans.json").write_bytes(spans)
    metrics = {}
    if plain and (traced_reps or not trace):
        values = per_layer(traced_reps, plain) if trace else end_to_end(plain)
        names = PER_LAYER if trace else END_TO_END
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in names}
    first = reps[0] if reps else {}
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "env": {
            "workload": workload.name,
            **workload.env(seed),
            "nproc": len(os.sched_getaffinity(0)),
            "fft_workers": first.get("fft_workers"),
            "python": first.get("python"),
            "numpy": first.get("numpy"),
            "scipy": first.get("scipy"),
            "machine": platform.machine(),
            "repetitions": len(plain),
            "traced_repetitions": len(traced_reps),
        },
    }


def print_result(result: dict) -> None:
    env = result["env"]
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"# {env['workload']}: attempted={result['attempted']} failed={result['failed']} "
        f"fail_frac={result['failed'] / result['attempted']:.4g} correct={result['correct']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{env['workload']} {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vortexlab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "vortexlab" / "__init__.py").is_file():
        print(f"vortexlab source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        check.load_reference(args.workload),
    )
    print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
