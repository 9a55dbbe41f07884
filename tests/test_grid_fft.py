"""GridSpec.fftn / ifftn against scipy.fft, bit for bit, and the truncated
forms against the full ones.

The transforms are built from numpy.fft so that the package does not import
scipy; they follow pocketfft's steps for the same calls, so every output bit
must equal scipy.fft.fftn / ifftn(...).real. Bits are compared through
uint64 views, which tell +0 from -0 and one NaN payload from another.
"""

import sys

import numpy as np
import pytest

from vortexlab import grid as grid_module
from vortexlab.fields import project_spectral
from vortexlab.grid import TWO_PI, GridSpec

sp_fft = pytest.importorskip("scipy.fft")

CASES = [(3, n) for n in (8, 10, 24, 32, 48, 64)] + [(2, n) for n in (8, 10, 24, 32, 48, 64, 256)]
LEADS = [(), (3,), (3, 3)]
# 1.0 keeps every mode, the Nyquist planes included
DEALIAS = [2.0 / 3.0, 0.6, 0.5, 1.0]


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
    truncated = spectrum * grid.dealias_mask
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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=str)
@pytest.mark.parametrize("dim, n", [(3, 64), (3, 8)])
def test_in_place_transform_of_a_work_buffer(dim, n, lead, threads, monkeypatch):
    # at n = 64 the buffer's planes carry a spare row, at n = 8 none
    monkeypatch.setenv("VORTEXLAB_THREADS", threads)
    grid = GridSpec(dim, n)
    axes = tuple(range(-dim, 0))
    _, spectra = inputs(grid, lead, seed=n + len(lead))
    for coeffs in spectra[:2]:
        want = sp_fft.ifftn(coeffs, axes=axes).real
        for truncated in (False, True) if coeffs is spectra[1] else (False,):
            copied = grid.ifftn(coeffs, truncated=truncated)
            buffer = grid.work_buffer(lead)
            buffer[...] = coeffs
            got = grid.ifftn(buffer, overwrite=True, truncated=truncated)
            assert np.shares_memory(got, buffer)
            assert_same_bits(got, copied)
            if truncated:  # equal values; a zero may differ in sign
                assert np.array_equal(got, want)
            else:
                assert_same_bits(got, want)


def test_inverse_rejects_coefficients_of_another_shape():
    # a copy into the work buffer would broadcast a (n, n) array silently
    grid = GridSpec(3, 8)
    for shape in [(8, 8), (3, 8, 8, 1), (16, 16, 16)]:
        with pytest.raises(ValueError, match="grid shape"):
            grid.ifftn(np.ones(shape, dtype=np.complex128))


def test_work_buffers_pad_the_planes_of_3d_grids_from_n_64():
    buffer = GridSpec(3, 64).work_buffer((3,))
    assert buffer.shape == (3, 64, 64, 64) and buffer.dtype == np.complex128
    plane = buffer.strides[-3]
    assert plane == 65 * 64 * 16 and plane & (plane - 1) != 0
    assert buffer.strides[-1] == 16 and not buffer.flags.c_contiguous
    for grid in (GridSpec(3, 32), GridSpec(2, 64), GridSpec(2, 256)):
        assert grid.work_buffer((3,)).flags.c_contiguous


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


def assert_truncated_transforms(grid: GridSpec, values: np.ndarray):
    """fftn(truncate=True) against fftn: the retained modes bit for bit, +0
    elsewhere; ifftn(truncated=True) of a truncated spectrum against ifftn:
    equal values, in and out of place."""
    mask = np.broadcast_to(grid.dealias_mask, values.shape)
    full = grid.fftn(values)
    got = grid.fftn(values, truncate=True)
    assert got.shape == full.shape and got.dtype == full.dtype
    assert np.array_equal(bits(got[mask]), bits(full[mask]))
    assert not np.any(bits(got[~mask]))
    for coeffs in (got, full * grid.dealias_mask):
        want = grid.ifftn(coeffs)
        assert np.array_equal(grid.ifftn(coeffs, truncated=True), want)
        buffer = coeffs.copy()
        assert np.array_equal(grid.ifftn(buffer, overwrite=True, truncated=True), want)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("dim, n", CASES)
def test_truncated_transforms_match_the_full_ones(dim, n, lead, threads, monkeypatch):
    monkeypatch.setenv("VORTEXLAB_THREADS", threads)
    values = np.random.default_rng(n + len(lead)).standard_normal(lead + (n,) * dim)
    for dealias in DEALIAS:
        grid = GridSpec(dim, n, dealias=dealias)
        assert_truncated_transforms(grid, values)
        if dealias == 1.0:
            assert grid.dealias_mask.all()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("dim", [2, 3])
def test_truncated_transforms_keeping_only_the_mean(dim, threads, monkeypatch):
    # one run of indices per axis: the block of negative indices is empty
    monkeypatch.setenv("VORTEXLAB_THREADS", threads)
    grid = GridSpec(dim, 8, dealias=0.01)
    assert np.count_nonzero(grid.dealias_mask) == 1 and grid.dealias_mask[(0,) * dim]
    assert grid.mode_blocks(truncated=True) == [(slice(0, 1),) * dim]
    values = np.random.default_rng(dim).standard_normal((3,) + grid.shape)
    assert_truncated_transforms(grid, values)


@pytest.mark.parametrize("dealias", DEALIAS + [0.01])
@pytest.mark.parametrize("dim, n", [(3, 8), (3, 24), (3, 10), (2, 48)])
def test_projection_on_the_retained_blocks(dim, n, dealias):
    grid = GridSpec(dim, n, dealias=dealias)
    blocks = grid.mode_blocks(truncated=True)
    assert len(blocks) <= 2**dim
    covered = np.zeros(grid.shape, dtype=int)
    for block in blocks:
        covered[block] += 1
    assert np.array_equal(covered, grid.dealias_mask)
    values = np.random.default_rng(n).standard_normal((dim,) + grid.shape)
    for coeffs in (grid.fftn(values, truncate=True), grid.fftn(values) * grid.dealias_mask):
        want = project_spectral(grid, coeffs.copy())
        got = project_spectral(grid, coeffs.copy(), truncated=True)
        mask = np.broadcast_to(grid.dealias_mask, got.shape)
        assert np.array_equal(bits(got[mask]), bits(want[mask]))
        assert np.array_equal(got, want)
