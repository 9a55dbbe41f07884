"""FFT worker count: the default, the VORTEXLAB_THREADS clamp, and
byte-identical artifacts for one and two workers."""

import os

import pytest

from vortexlab import pipeline
from vortexlab.grid import fft_workers
from vortexlab.pipeline import RunConfig


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestFftWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("VORTEXLAB_THREADS", raising=False)
        assert fft_workers() == 1

    def test_explicit_value_within_range(self, monkeypatch):
        monkeypatch.setenv("VORTEXLAB_THREADS", "1")
        assert fft_workers() == 1

    def test_above_cpu_count_is_clamped(self, monkeypatch):
        monkeypatch.setenv("VORTEXLAB_THREADS", str(_cpus() + 1))
        assert fft_workers() == _cpus()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_is_clamped(self, monkeypatch, value):
        monkeypatch.setenv("VORTEXLAB_THREADS", value)
        assert fft_workers() == 1

    def test_non_integer_is_ignored(self, monkeypatch):
        monkeypatch.setenv("VORTEXLAB_THREADS", "abc")
        assert fft_workers() == 1


def _artifact_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(
            system="euler3d", n=16, dt=0.01, t_end=0.04, initial="taylor-green-3d",
            seed=4, tracer_count=5,
        ),
        # snapshot at step 3 falls between samples, so it takes its own solve
        RunConfig(
            system="boussinesq2d", n=32, dt=0.01, t_end=0.06, initial="boussinesq-bubble",
            seed=6, tracer_count=3, sample_every=2, snapshot_every=3, snapshot_diagnostics=True,
        ),
        # from n = 64 the 3D stages the tracers sample are padded work buffers
        RunConfig(
            system="euler3d", n=64, dt=0.005, t_end=0.01, initial="taylor-green-3d",
            seed=13, tracer_count=3, snapshot_every=1, snapshot_diagnostics=True,
        ),
    ],
    ids=["euler3d-tracers", "boussinesq2d-snapshots", "euler3d-padded-tracers"],
)
def test_artifacts_byte_identical_for_one_and_two_workers(config, tmp_path, monkeypatch):
    trees = []
    for threads in ("1", "2"):
        monkeypatch.setenv("VORTEXLAB_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        pipeline.run(config, output_dir=out)
        trees.append(_artifact_tree(out))
    assert sorted(trees[0]) == sorted(trees[1])
    assert len(trees[0]) > 3
    for rel, data in trees[0].items():
        assert data == trees[1][rel], rel
