"""Tests of the benchmark harness itself, on tiny versions of the workloads.

    python3 -m pytest -q benchmarks/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, benchmark_spec  # noqa: E402

# Per-layer metrics that count work; they must repeat exactly.
EXACT_UNITS = ("count", "GB_computed", "MB", "ratio")
TRACER_COUNTS = [m.name for m in PER_LAYER if m.name.startswith("tracers.") and m.unit == "count"]


def _quiet(*_):
    pass


def tiny(workload):
    """The same workload shrunk to a size these tests can afford."""
    if workload.kind == "identities":
        return dataclasses.replace(workload, samples=2000, passes=2)
    return dataclasses.replace(
        workload,
        n=16 if workload.dim == 3 else 32,
        steps=4,
        tracers=min(workload.tracers, 4),
        sample_every=min(workload.sample_every, 2),
        snapshot_every=2 if workload.snapshot_every else 0,
    )


@pytest.fixture(scope="module")
def tiny_workloads(tmp_path_factory):
    """Tiny workloads, each with a reference recorded at its own size."""
    base = tmp_path_factory.mktemp("bench")
    workloads = {name: tiny(w) for name, w in WORKLOADS.items()}
    references = {name: record.record_reference(w, range(1), base) for name, w in workloads.items()}
    return base, workloads, references


@pytest.fixture(scope="module")
def results(tiny_workloads):
    """Untraced and two traced runs of every tiny workload, at seed 0."""
    base, workloads, references = tiny_workloads
    out = {}
    for name, w in workloads.items():
        runs = [run.run_workload(w, 0, 0.0, trace, references[name], base, _quiet) for trace in (False, True, True)]
        out[name] = runs
    return out


def test_benchmark_json_matches_workloads():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_spec()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(results, name):
    for result, metrics in zip(results[name], (END_TO_END, PER_LAYER, PER_LAYER)):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert list(result["metrics"]) == [m.name for m in metrics]
        for m in metrics:
            value = result["metrics"][m.name]
            assert value["unit"] == m.unit
            assert math.isfinite(value["value"])
            if m.bound is not None:
                assert value["value"] > 0
    env = results[name][0]["env"]
    assert env["nproc"] >= 1 and env["fft_workers"] >= 1
    assert env["seed"] == 0 and env["numpy"] and env["scipy"] and env["python"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(results, name):
    first, second = (r["metrics"] for r in results[name][1:])
    for m in PER_LAYER:
        if m.unit in EXACT_UNITS:
            assert first[m.name] == second[m.name], m.name


def test_layers_without_work_read_zero(results):
    grid, identities = results["euler3d-grid"][1]["metrics"], results["identities"][1]["metrics"]
    for name in TRACER_COUNTS:
        assert grid[name]["value"] == 0, name
        assert identities[name]["value"] == 0, name
    assert identities["grid.fft.calls"]["value"] == 0
    tracers = results["euler3d-tracers"][1]["metrics"]
    assert all(tracers[name]["value"] > 0 for name in TRACER_COUNTS)
    assert tracers["trace.covered_frac"]["value"] > 0.5


@pytest.fixture()
def tiny_run(tiny_workloads, tmp_path):
    """Output directory and reference of one tiny euler3d-tracers run at seed 0."""
    _, workloads, references = tiny_workloads
    run.run_rep(workloads["euler3d-tracers"], 0, tmp_path / "rep")
    return tmp_path / "rep" / "out", references["euler3d-tracers"]


def _edit_report(out: Path, edit) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_output_check_accepts_the_reference_run(tiny_run):
    out, reference = tiny_run
    assert check.check_run(out, reference, seed=0) == []
    # another seed changes only the tracer part, which is then not compared
    assert check.check_run(out, reference, seed=12345) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["series"]["kinetic_energy"].__setitem__(1, r["series"]["kinetic_energy"][1] * (1 + 1e-7)),
        lambda r: r["type_one"][0].__setitem__("verdict", "changed"),
        lambda r: r["regions"][1].__setitem__("label", "elsewhere"),
        lambda r: r.__setitem__("under_resolved", not r["under_resolved"]),
        lambda r: r["bound_checks"]["lemma"].__setitem__("violations", 1),
        lambda r: r["residual_summaries"].__setitem__(
            next(iter(r["residual_summaries"])), 2.0 * next(iter(r["residual_summaries"].values()))
        ),
        lambda r: r.pop("bkm"),
    ],
    ids=["series", "verdict", "region", "under_resolved", "violations", "residual", "missing-key"],
)
def test_output_check_rejects_a_perturbed_report(tiny_run, edit):
    out, reference = tiny_run
    _edit_report(out, edit)
    assert check.check_run(out, reference, seed=0)


def test_output_check_tolerates_roundoff(tiny_run):
    out, reference = tiny_run
    _edit_report(
        out,
        lambda r: r["series"]["kinetic_energy"].__setitem__(1, r["series"]["kinetic_energy"][1] * (1 + 1e-13)),
    )
    assert check.check_run(out, reference, seed=0) == []


def test_identity_check_rejects_a_failed_suite(tiny_workloads, tmp_path):
    _, workloads, references = tiny_workloads
    run.run_rep(workloads["identities"], 0, tmp_path / "rep")
    out = tmp_path / "rep" / "out"
    assert check.check_identities(out, references["identities"], seed=0) == []
    path = out / "identities_2d.json"
    path.write_text(path.read_text().replace('"passed": true', '"passed": false'))
    assert check.check_identities(out, references["identities"], seed=0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "identities", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
