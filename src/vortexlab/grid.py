"""Uniform periodic grid with precomputed spectral machinery.

The transforms are built from `numpy.fft` (numpy >= 2.0, which takes
`out=`) so that importing the package does not import scipy. They follow
the steps of scipy.fft's pocketfft for the same calls, and their output is
bit for bit that of `scipy.fft.fftn` / `ifftn(...).real`; this was checked
with numpy 2.4 against scipy 1.17, and the tier-1 tests check it wherever
scipy is installed.

Both transforms also come band-limited, for spectra that the dealias rule
truncates (a pruned FFT). `fftn(values, truncate=True)` transforms only the
lines that reach retained modes and writes +0 at the others; the retained
modes keep the bits of the full transform. `ifftn(coeffs, truncated=True)`
skips the lines of a truncated spectrum that are all zero; its values equal
those of the full inverse, and only a zero may differ in sign. Each form
is the full transform's code path run on fewer blocks of lines.

The inverse transform runs in a work buffer (`GridSpec.work_buffer`): a
complex128 array of shape lead + grid shape that is a view into an array
whose planes (the last two grid axes) may carry spare rows. Each strided
pass reads its lines element by element, and the elements of a line along
the first 3D axis lie one plane, n * n * 16 bytes, apart. When that stride
is a power of two (or a multiple of a large one), all of a line's elements
map to the same few cache sets, so the lines evict one another before the
next line reuses them: the cache-associativity conflict that FFTW's
buffered plans work around. One spare row per plane breaks the power of
two. The rule: 3D grids from n = 64 get one spare row per plane, all
others none. On a 2-vCPU Xeon the padding made the three inverse passes
of a 3-component field a fifth faster at n = 64 and a tenth at n = 128,
and at n = 32, whose 16 KiB planes stay in cache, slower. Padding the
columns too speeds the passes more, but at n = 64 it slowed the
elementwise work on the padded arrays more than that. The padding moves no bit: every line
goes through the same pocketfft call on the same values.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi


def _available_cpus() -> int:
    """CPUs this process may run on. Inside a container os.cpu_count() can
    report the host's CPUs, so the affinity mask is asked first."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def fft_workers() -> int:
    """Worker count for FFTs.

    Defaults to 1: a multi-threaded transform waits for its slowest
    worker, so on a machine whose CPUs are shared its run time varies with
    the neighbours' load. VORTEXLAB_THREADS asks for more, clamped to
    [1, the CPUs the process may run on]; a value that is not an integer
    is ignored. Each FFT line is computed the same way whichever worker
    runs it, so the output is bit-identical for any worker count.
    """
    try:
        requested = int(os.environ.get("VORTEXLAB_THREADS", ""))
    except ValueError:
        return 1
    return min(max(requested, 1), _available_cpus())


@lru_cache(maxsize=None)
def _thread_pool(workers: int):
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="vortexlab-fft")


def _fft_pass(transform, src, out, axis: int, dim: int, workers: int, norm=None, lines=((...,),)) -> None:
    """`transform` (a numpy.fft function) of `src` along the grid axis
    `axis` (negative, of the trailing `dim`) into `out`.

    `lines` holds the index tuples (basic slices) of the blocks of lines to
    transform, all of them by default; `out` is not written outside them.
    With workers > 1 each block is split into one piece per worker along
    the first other grid axis. The numpy FFT ufuncs release the GIL, and a
    line's bits do not depend on which call transforms it.
    """
    if workers == 1:
        for block in lines:
            transform(src[block], axis=axis, norm=norm, out=out[block])
        return
    split = -dim + (axis == -dim)
    tail = (slice(None),) * (-split - 1)
    jobs = []
    for block in lines:
        s, o = src[block], out[block]
        size = s.shape[split]
        for w in range(workers):
            piece = (..., slice(size * w // workers, size * (w + 1) // workers)) + tail
            jobs.append((s[piece], o[piece]))
    pool = _thread_pool(workers)
    futures = [pool.submit(transform, s, axis=axis, norm=norm, out=o) for s, o in jobs]
    for future in futures:
        future.result()


def _mirror_pairs(n: int, kept: int) -> list[tuple[slice, slice]]:
    """Slice pairs (dst, src) along an axis of length n that together map
    each index i within `kept` of 0 mod n to -i mod n: index 0 maps to
    itself, and the rest of the axis, or 1..kept and n-kept..n-1, to their
    mirror images."""
    if 2 * kept + 1 >= n:
        return [(slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1))]
    pairs = [(slice(0, 1), slice(0, 1))]
    if kept:
        pairs.append((slice(1, kept + 1), slice(n - 1, n - kept - 1, -1)))
        pairs.append((slice(n - kept, None), slice(kept, 0, -1)))
    return pairs


def _mirror_blocks(k: int, pairs: list) -> list[tuple[tuple, tuple]]:
    """The (dst, src) slice tuples over k axes that combine one of `pairs`
    per axis, so that they map each index I to -I."""
    return [tuple(zip(*combo)) if combo else ((), ()) for combo in itertools.product(pairs, repeat=k)]


class _Plan(NamedTuple):
    """The index blocks (basic slices) that a transform visits.

    forward[a]: the lines of the fft pass along grid axis a < dim - 1 in the
    half spectrum; inverse[a]: the lines of the ifft pass along grid axis a;
    half: the blocks of the half spectrum that hold the kept modes; zero:
    the blocks of the full spectrum outside the kept modes; fill: the
    `GridSpec._spectrum_fill` pairs.
    """

    forward: list
    inverse: list
    half: list
    zero: list
    fill: list


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, length)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    n : int
        Points per axis (even, >= 8; powers of two recommended).
    length : float
        Domain period (same along every axis). It must be finite, and the
        cell volume dx**dim and the largest |k|^2 (dim k_max^2) must be
        positive normal floats, so that energies and wavenumbers neither
        overflow nor underflow.
    dealias : float
        Retained fraction of the spectrum when truncating nonlinear
        products (2/3 rule by default). Must lie in (0, 1].
    """

    dim: int
    n: int
    length: float = TWO_PI
    dealias: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"n must be >= 8, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"n must be even, got {self.n}")
        if not 0 < self.length < math.inf:
            raise ValueError("length must be positive and finite")
        try:  # the cell volume as `kinetic_energy` takes it, and dim k_max^2
            scales = self.dx**self.dim, self.dim * (math.pi * self.n / self.length) ** 2
        except OverflowError:
            scales = (math.inf,)
        if not all(sys.float_info.min <= s < math.inf for s in scales):
            raise ValueError(
                f"length {self.length!r} makes the cell volume or the largest |k|^2 overflow or underflow"
            )
        if not 0.0 < self.dealias <= 1.0:
            raise ValueError("dealias fraction must lie in (0, 1]")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @cached_property
    def coords(self) -> np.ndarray:
        """Physical coordinates, shape (dim, n, ..., n) with 'ij' indexing."""
        mesh = np.meshgrid(*([self.axis_coords] * self.dim), indexing="ij")
        return np.stack(mesh)

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        return TWO_PI * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def wavenumbers(self) -> list[np.ndarray]:
        """Per-axis wavenumber arrays, each broadcastable against grid shape."""
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            out.append(self.axis_wavenumbers.reshape(shape))
        return out

    @property
    def k_square(self) -> np.ndarray:
        """|k|^2 on the grid, built anew at each read: only the cached
        `inv_k_square` reads it."""
        k2 = np.zeros(self.shape)
        for k in self.wavenumbers:
            k2 = k2 + k**2
        return k2

    @cached_property
    def inv_k_square(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0 (mean-free Poisson inversion)."""
        k2 = self.k_square
        k2[(0,) * self.dim] = 1.0
        inv = 1.0 / k2
        inv[(0,) * self.dim] = 0.0
        return inv

    @cached_property
    def k_max(self) -> float:
        return float(np.max(np.abs(self.axis_wavenumbers)))

    @cached_property
    def k_cutoff(self) -> float:
        return self.dealias * self.k_max

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask of modes retained after truncating nonlinear products."""
        mask = np.ones(self.shape, dtype=bool)
        cut = self.k_cutoff * (1.0 + 1e-12)
        for k in self.wavenumbers:
            mask &= np.abs(k) <= cut
        return mask

    @cached_property
    def outer_band_mask(self) -> np.ndarray:
        """Boolean mask of the retained modes with |k_i| >= 3/4 of the
        cutoff along some axis: the outer band of `spectral_tail_ratio`."""
        outer = np.zeros(self.shape, dtype=bool)
        cut = 0.75 * self.k_cutoff
        for k in self.wavenumbers:
            outer |= np.abs(k) >= cut
        outer &= self.dealias_mask
        return outer

    @cached_property
    def _kept(self) -> int:
        """The largest index l <= n/2 whose wavenumber `dealias_mask` keeps
        along an axis: a mode is retained when each of its indices lies
        within l of 0 mod n."""
        return int(np.count_nonzero(self.dealias_mask[(0,) * (self.dim - 1)][: self.n // 2 + 1])) - 1

    def _runs(self, truncated: bool) -> tuple[slice, ...]:
        """The index runs along a grid axis: the whole axis, or, with
        truncated=True, those that hold the retained modes."""
        n, kept = self.n, self._kept
        if not truncated or 2 * kept + 1 >= n:
            return (slice(None),)
        return (slice(0, kept + 1), slice(n - kept, None)) if kept else (slice(0, 1),)

    def mode_blocks(self, truncated: bool = False) -> list[tuple[slice, ...]]:
        """Index blocks (basic slices over the grid axes) that cover the
        whole spectrum, or with truncated=True the retained modes: up to
        2**dim blocks."""
        return list(itertools.product(self._runs(truncated), repeat=self.dim))

    def _spectrum_fill(self, kept: int) -> list[tuple[tuple, tuple]]:
        """(dst, src) slice pairs that complete the spectrum of real values
        from the conjugate of its half l <= n/2 on the last axis, as
        pocketfft does for a real input, at the modes whose indices all
        lie within `kept` of 0 mod n.

        Index I runs over the other grid axes, and -I maps each index i to
        -i mod n. The points l = n-kept..n-1 at I take the conjugate of the
        half's l = kept..1 at -I (with kept = n/2: l = n/2+1..n-1 from
        n/2-1..1). On the planes l = 0 and l = n/2, each pair of points
        I != -I takes, at the later point in C order, the conjugate of the
        earlier one, and a point with I = -I its own conjugate.
        """
        n, h = self.n, self.n // 2
        low = min(kept, h - 1)
        upper, lower = slice(n - low, None), slice(low, 0, -1)
        both = slice(0, h + 1, h) if kept == h else slice(0, 1)
        pairs = _mirror_pairs(n, kept)
        others = self.dim - 1
        fill = [((...,) + d + (upper,), (...,) + s + (lower,)) for d, s in _mirror_blocks(others, pairs)]
        # rows n-kept.. of an axis are the later points of their pairs; rows
        # 0 and n/2 pair with themselves there, so the next axis decides
        fixed = ()
        for k in range(others):
            for d, s in _mirror_blocks(others - k - 1, pairs):
                fill.append(((...,) + fixed + (upper,) + d + (both,), (...,) + fixed + (lower,) + s + (both,)))
            fixed += (both,)
        fill.append(((...,) + fixed + (both,),) * 2)
        return fill

    def _plan(self, truncated: bool) -> _Plan:
        """The blocks that the full transforms visit, or the truncated ones."""
        dim, n, h = self.dim, self.n, self.n // 2
        kept = self._kept if truncated else h
        runs, every = self._runs(truncated), (slice(None),)
        cols, gap = slice(0, kept + 1), slice(kept + 1, n - kept)

        def blocks(ranges, last=()):
            return [(...,) + block + last for block in itertools.product(*ranges)]

        return _Plan(
            forward=[
                blocks([runs if b < a else every for b in range(dim - 1)], (cols,)) for a in range(dim - 1)
            ],
            inverse=[blocks([runs if b > a else every for b in range(dim)]) for a in range(dim)],
            half=blocks([runs] * (dim - 1), (cols,)),
            # axis k in the gap, the axes before it in the runs
            zero=[block + every * (dim - k - 1) for k in range(dim) for block in blocks([runs] * k, (gap,))]
            if runs != every
            else [],
            fill=self._spectrum_fill(kept),
        )

    @cached_property
    def _plans(self) -> tuple[_Plan, _Plan]:
        """The `_Plan` of the full transforms and of the truncated ones."""
        return self._plan(False), self._plan(True)

    def work_buffer(self, lead: tuple[int, ...] = ()) -> np.ndarray:
        """An uninitialized complex128 array of shape lead + grid shape for
        `ifftn(..., overwrite=True)`: on 3D grids from n = 64, a view into
        an array whose planes carry one spare row, so that the line stride
        of the first grid axis is not a power of two (see the module
        docstring); else a plain C-contiguous array."""
        spare = 1 if self.dim == 3 and self.n >= 64 else 0
        base = np.empty(tuple(lead) + self.shape[:-2] + (self.n + spare, self.n), dtype=np.complex128)
        return base[..., : self.n, :]

    @cached_property
    def _inverse_scale(self) -> np.float64:
        # pocketfft's norm_fct: 1/N rounded from long double
        return np.float64(1 / np.longdouble(self.n**self.dim))

    def fftn(self, values: np.ndarray, truncate: bool = False) -> np.ndarray:
        """Forward FFT of real values over the trailing dim axes.

        The steps of pocketfft for a real input: rfft along the last axis
        into a contiguous half spectrum, fft along the other grid axes in
        increasing order, then the rest from Hermitian symmetry
        (`_spectrum_fill`).

        With truncate=True the modes outside the dealias cutoff are zero,
        and only the lines that reach retained modes are transformed: after
        the rfft of every line, each fft pass runs on the lines through
        retained indices of the axes already transformed (the retained
        columns l for the first pass, then also the retained rows of each
        earlier axis). The retained modes keep the bits of the full
        transform; the others are +0, where `fftn(values) * dealias_mask`
        may hold either sign of zero.
        """
        workers = fft_workers()
        dim, plan = self.dim, self._plans[truncate]
        half = np.empty(values.shape[:-1] + (self.n // 2 + 1,), dtype=np.complex128)
        _fft_pass(np.fft.rfft, values, half, -1, dim, workers)
        for axis, lines in zip(range(-dim, -1), plan.forward):
            _fft_pass(np.fft.fft, half, half, axis, dim, workers, lines=lines)
        out = np.empty(values.shape, dtype=np.complex128)
        for block in plan.zero:
            out[block] = 0.0
        for block in plan.half:
            out[block] = half[block]
        # strided copies are much faster than a strided conjugate; the whole
        # half is conjugated, as a strided conjugate in place buffers its input
        np.conjugate(half, out=half)
        for dst, src in plan.fill:
            out[dst] = half[src]
        return out

    def ifftn(self, coeffs: np.ndarray, overwrite: bool = False, truncated: bool = False) -> np.ndarray:
        """Inverse FFT over the trailing dim axes, real part.

        The steps of pocketfft: an unnormalized ifft along the first grid
        axis, a real multiply by 1/N (which keeps signed zeros), then the
        unnormalized ifft along the remaining grid axes.

        Out of place, `coeffs` is copied into a `work_buffer`, whose planes
        carry spare rows where that pays (see the module docstring). With
        overwrite=True a writable complex128 `coeffs` whose last axis is
        contiguous, padded or not, becomes the transform's output buffer and
        is destroyed; the result is the real part of it. The bits are those
        of the out-of-place transform, in any layout.

        truncated=True promises that `coeffs` is zero outside the dealias
        cutoff, and skips the lines that are zero: each pass runs on the
        lines through retained indices of the axes not yet transformed, so
        the last pass runs on every line. The values equal those of the
        full transform; only a zero may differ in sign.
        """
        workers = fft_workers()
        dim = self.dim
        if coeffs.shape[-dim:] != self.shape:
            raise ValueError(f"coefficients must end in the grid shape {self.shape}, got {coeffs.shape}")
        if overwrite and coeffs.dtype == np.complex128 and coeffs.flags.writeable and coeffs.strides[-1] == 16:
            out = coeffs
        else:
            # a copy and in-place passes beat a first pass out of place
            out = self.work_buffer(coeffs.shape[:-dim])
            out[...] = coeffs
        for axis, lines in zip(range(-dim, 0), self._plans[truncated].inverse):
            _fft_pass(np.fft.ifft, out, out, axis, dim, workers, "forward", lines)
            if axis == -dim:
                # the whole array: a strided multiply in place buffers its input
                flat = out.view(np.float64)
                np.multiply(flat, self._inverse_scale, out=flat)
        return out.real

    def wrap(self, points: np.ndarray) -> np.ndarray:
        """Coordinates mapped into [0, length), in a new array; np.mod alone
        maps those just below 0 (-4e-16 <= x < 0 at 2 pi) to the length."""
        out = np.mod(points, self.length)
        return np.where(out == self.length, 0.0, out)

    def periodic_distance(self, center: np.ndarray) -> np.ndarray:
        """Distance from each grid point to `center` with periodic wrap-around."""
        center = np.asarray(center, dtype=float)
        if center.shape != (self.dim,):
            raise ValueError(f"center must have {self.dim} components")
        d2 = np.zeros(self.shape)
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            delta = np.abs(self.axis_coords - center[axis] % self.length)
            delta = np.minimum(delta, self.length - delta)
            d2 = d2 + delta.reshape(shape) ** 2
        return np.sqrt(d2)


__all__ = ["GridSpec", "fft_workers", "TWO_PI"]
