"""Record the benchmark's reference outputs and baseline numbers.

    python3 benchmarks/record.py reference
    python3 benchmarks/record.py baseline --label <label>

`reference` runs each workload once per seed 0..31 through the same
worker as the benchmark and writes `benchmarks/reference/<workload>.json`:
the seed-independent part of the outputs once and the seeded part per seed
(see check.py). Record it only from a commit whose outputs are trusted.

`baseline` runs every workload at seed 0 for RUN_SECONDS with tracing off
and then on, prints every metric with its unit and the environment, and
writes `BENCH_<label>.json` next to this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS, Workload  # noqa: E402

# Seeds 0..REFERENCE_SEEDS-1 get a reference for their seeded outputs.
REFERENCE_SEEDS = 32


def record_reference(workload: Workload, seeds: range, out_base: Path) -> dict:
    """Reference outputs of `workload` for each seed in `seeds`."""
    common, per_seed = None, {}
    for seed in seeds:
        rep_dir = out_base / f"reference-{workload.name}-{seed}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        try:
            run.run_rep(workload, seed, rep_dir)
            this_common, seeded = _split(workload, rep_dir / "out")
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if common is None:
            common = this_common
        elif this_common != common:
            raise RuntimeError(f"{workload.name}: seed {seed} changed the seed-independent outputs")
        per_seed[str(seed)] = seeded
    return {"common": common, "seeds": per_seed}


def _split(workload: Workload, out: Path) -> tuple[dict, dict]:
    if workload.kind == "identities":
        parts = {
            dim: check.split_suite(json.loads((out / f"identities_{dim}d.json").read_text()))
            for dim in ("3", "2")
        }
        return {d: p[0] for d, p in parts.items()}, {d: p[1] for d, p in parts.items()}
    return check.split_report(json.loads((out / "report.json").read_text()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    sub.add_parser("baseline").add_argument("--label", required=True)
    args = parser.parse_args(argv)

    if args.command == "reference":
        check.REFERENCE_DIR.mkdir(exist_ok=True)
        for workload in WORKLOADS.values():
            reference = record_reference(workload, range(REFERENCE_SEEDS), run.OUT_BASE)
            path = check.REFERENCE_DIR / f"{workload.name}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
        return 0

    bench = {}
    for workload in WORKLOADS.values():
        reference = check.load_reference(workload.name)
        entry = {}
        for mode, trace in (("untraced", False), ("traced", True)):
            result = run.run_workload(workload, 0, RUN_SECONDS, trace, reference)
            run.print_result(result)
            entry[mode] = result
        bench[workload.name] = entry
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    ok = all(r["correct"] for entry in bench.values() for r in entry.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
