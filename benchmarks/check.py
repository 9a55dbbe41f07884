"""Output checks of the benchmark.

Each repetition's outputs are compared with a reference recorded from an
earlier commit (`benchmarks/reference/<workload>.json`, written by
`record.py`):

* strings, booleans and integers must match exactly: verdicts, region
  labels, `under_resolved`, bound violation counts, sample counts;
* bound violations must be zero and the identity suite must pass;
* floats must agree within |a - b| <= RTOL |b| + ATOL max(1, scale), where
  scale is the largest magnitude in the list that holds the value.

A run report has a part that does not depend on the seed (the flow starts
from a fixed initial condition) and a tracer part that does. The reference
holds the first once and the second for each recorded seed; for another seed
only the first is compared. Repetitions of one run share a seed, so all of
them must write byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12

# Report keys that depend on the tracer seeds.
SEEDED_KEYS = ("residual_summaries", "bound_checks")
# Identity suite report keys that depend on the seed; the rest must not.
SEEDED_SUITE_KEYS = ("skipped", "inequality_max_ratio", "inequality_min_slack")
# Roundoff-level suite maxima, checked against the tolerance instead.
UNCOMPARED_SUITE_KEYS = ("residual_max", "seed", "worst")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def compare(actual, expected, path: str = "report", scale: float = 1.0) -> list[str]:
    """Differences between two JSON values, as readable lines (empty if equal)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], f"{path}.{key}", scale)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        numbers = [abs(v) for v in expected if _is_float(v)]
        inner = max(numbers, default=scale)
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{path}[{i}]", inner)
        return out
    if _is_float(expected) and _is_float(actual):
        if isinstance(expected, float) or isinstance(actual, float):
            if not _close(float(actual), float(expected), scale):
                return [f"{path}: {actual!r} != {expected!r}"]
            return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _is_float(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(b) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= RTOL * abs(b) + ATOL * max(1.0, scale)


def split_report(report: dict) -> tuple[dict, dict]:
    """(seed-independent part, tracer part) of a run report."""
    common = {k: v for k, v in report.items() if k not in SEEDED_KEYS}
    seeded = {k: report[k] for k in SEEDED_KEYS}
    return common, seeded


def split_suite(report: dict) -> tuple[dict, dict]:
    """(seed-independent part, seeded part) of one identity suite report."""
    drop = SEEDED_SUITE_KEYS + UNCOMPARED_SUITE_KEYS
    common = {k: v for k, v in report.items() if k not in drop}
    seeded = {k: report[k] for k in SEEDED_SUITE_KEYS}
    return common, seeded


def check_run(out: Path, reference: dict, seed: int) -> list[str]:
    """Check a run's report.json against its reference."""
    report = json.loads((out / "report.json").read_text())
    problems = []
    for variant, agg in report.get("bound_checks", {}).items():
        if agg["violations"] != 0:
            problems.append(f"bound check {variant}: {agg['violations']} violations")
    common, seeded = split_report(report)
    problems += compare(common, reference["common"])
    expected = reference["seeds"].get(str(seed))
    if expected is not None:
        problems += compare(seeded, expected, "report[seeded]")
    return problems


def check_identities(out: Path, reference: dict, seed: int) -> list[str]:
    """Check the identity suite reports against their reference."""
    problems = []
    for dim in ("3", "2"):
        report = json.loads((out / f"identities_{dim}d.json").read_text())
        if report.get("passed") is not True:
            problems.append(f"identity suite {dim}D did not pass")
        for name, value in report["residual_max"].items():
            if not value <= report["tolerance"]:
                problems.append(f"identity suite {dim}D: {name} residual {value} over tolerance")
        common, seeded = split_suite(report)
        problems += compare(common, reference["common"][dim], f"suite{dim}d")
        expected = reference["seeds"].get(str(seed))
        if expected is not None:
            problems += compare(seeded, expected[dim], f"suite{dim}d[seeded]")
    return problems


def check_outputs(kind: str, out: Path, reference: dict, seed: int) -> list[str]:
    if kind == "identities":
        return check_identities(out, reference, seed)
    return check_run(out, reference, seed)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def artifact_digest(out: Path) -> dict:
    """sha256 of every file under a repetition's output directory."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
