"""GridSpec.fftn / ifftn against scipy.fft, bit for bit.

The transforms are built from numpy.fft so that the package does not import
scipy; they follow pocketfft's steps for the same calls, so every output bit
must equal scipy.fft.fftn / ifftn(...).real. Bits are compared through
uint64 views, which tell +0 from -0 and one NaN payload from another.
"""

import sys

import numpy as np
import pytest

from vortexlab import grid as grid_module
from vortexlab.grid import TWO_PI, GridSpec

sp_fft = pytest.importorskip("scipy.fft")

CASES = [(3, n) for n in (8, 10, 24, 32, 48, 64)] + [(2, n) for n in (8, 10, 24, 32, 48, 64, 256)]
LEADS = [(), (3,), (3, 3)]


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


def inputs(grid: GridSpec, lead: tuple, seed: int):
    """Real values and complex spectra: random, truncated (with +0 and -0
    modes), negated, and all zero of both signs."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(lead + grid.shape)
    spectrum = grid.fftn(values)
    truncated = grid.truncate(spectrum)
    reals = [values, grid.ifftn(truncated), -values, np.zeros_like(values), -np.zeros_like(values)]
    spectra = [spectrum, truncated, -truncated, np.zeros_like(spectrum), -np.zeros_like(spectrum)]
    return reals, spectra


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("dim, n", CASES)
def test_transforms_match_scipy_bit_for_bit(dim, n, lead, threads, monkeypatch):
    monkeypatch.setenv("VORTEXLAB_THREADS", threads)
    grid = GridSpec(dim, n)
    axes = tuple(range(-dim, 0))
    reals, spectra = inputs(grid, lead, seed=n + len(lead))
    for values in reals:
        assert_same_bits(grid.fftn(values), sp_fft.fftn(values, axes=axes))
    for coeffs in spectra:
        want = sp_fft.ifftn(coeffs, axes=axes).real
        assert_same_bits(grid.ifftn(coeffs), want)
        buffer = coeffs.copy()
        got = grid.ifftn(buffer, overwrite=True)
        assert np.shares_memory(got, buffer)
        assert_same_bits(got, want)


@pytest.mark.parametrize("dim, n", CASES)
def test_axis_wavenumbers_match_scipy(dim, n):
    grid = GridSpec(dim, n, length=3.7)
    assert_same_bits(grid.axis_wavenumbers, TWO_PI * sp_fft.fftfreq(n, d=grid.dx))


def test_more_workers_than_cpus_keep_the_bits(monkeypatch):
    # four workers on fewer CPUs, with frequent thread switches: each block
    # of lines is written by one worker only, so the bits cannot move
    monkeypatch.setattr(grid_module, "_available_cpus", lambda: 4)
    monkeypatch.setenv("VORTEXLAB_THREADS", "4")
    grid = GridSpec(3, 24)
    axes = (-3, -2, -1)
    reals, spectra = inputs(grid, (3,), seed=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_same_bits(grid.fftn(reals[0]), sp_fft.fftn(reals[0], axes=axes))
            assert_same_bits(grid.ifftn(spectra[1]), sp_fft.ifftn(spectra[1], axes=axes).real)
    finally:
        sys.setswitchinterval(interval)
