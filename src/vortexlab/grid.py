"""Uniform periodic grid with precomputed spectral machinery.

The transforms are built from `numpy.fft` (numpy >= 2.0, which takes
`out=`) so that importing the package does not import scipy. They follow
the steps of scipy.fft's pocketfft for the same calls, and their output is
bit for bit that of `scipy.fft.fftn` / `ifftn(...).real`; this was checked
with numpy 2.4 against scipy 1.17, and the tier-1 tests check it wherever
scipy is installed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


def _fft_pass(transform, src, out, axis: int, dim: int, workers: int, norm=None) -> None:
    """`transform` (a numpy.fft function) of `src` along the grid axis
    `axis` (negative, of the trailing `dim`) into `out`.

    With workers > 1 the lines are split into one block per worker along
    the first other grid axis. The numpy FFT ufuncs release the GIL, and a
    line's bits do not depend on which call transforms it.
    """
    if workers == 1:
        transform(src, axis=axis, norm=norm, out=out)
        return
    split = -dim + (axis == -dim)
    size = src.shape[split]
    tail = (slice(None),) * (-split - 1)
    blocks = [
        (..., slice(size * w // workers, size * (w + 1) // workers)) + tail for w in range(workers)
    ]
    pool = _thread_pool(workers)
    futures = [
        pool.submit(transform, src[block], axis=axis, norm=norm, out=out[block]) for block in blocks
    ]
    for future in futures:
        future.result()


def _mirror_blocks(k: int) -> list[tuple[tuple, tuple]]:
    """Slice pairs (dst, src) over k axes of length n that together map each
    index I to -I mod n: index 0 maps to itself, 1..n-1 to n-1..1."""
    pairs = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    return [tuple(zip(*combo)) if combo else ((), ()) for combo in itertools.product(pairs, repeat=k)]


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
        Domain period (same along every axis).
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
        if not self.length > 0:
            raise ValueError("length must be positive")
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

    @cached_property
    def k_square(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for k in self.wavenumbers:
            k2 = k2 + k**2
        return k2

    @cached_property
    def inv_k_square(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0 (mean-free Poisson inversion)."""
        k2 = self.k_square.copy()
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
    def _spectrum_fill(self) -> list[tuple[tuple, tuple]]:
        """(dst, src) slice pairs that complete the spectrum of real values
        from the conjugate of its half l <= n/2 on the last axis, as
        pocketfft does for a real input.

        Index I runs over the other grid axes, and -I maps each index i to
        -i mod n. The points l = n/2+1..n-1 at I take the conjugate of the
        half's l = n/2-1..1 at -I. On the planes l = 0 and l = n/2, each
        pair of points I != -I takes, at the later point in C order, the
        conjugate of the earlier one, and a point with I = -I its own
        conjugate.
        """
        h = self.n // 2
        upper, lower, both = slice(h + 1, None), slice(h - 1, 0, -1), slice(0, h + 1, h)
        others = self.dim - 1
        fill = [((...,) + d + (upper,), (...,) + s + (lower,)) for d, s in _mirror_blocks(others)]
        # rows h+1.. of an axis are the later points of their pairs; rows 0
        # and n/2 pair with themselves there, so the next axis decides
        fixed = ()
        for k in range(others):
            for d, s in _mirror_blocks(others - k - 1):
                fill.append(((...,) + fixed + (upper,) + d + (both,), (...,) + fixed + (lower,) + s + (both,)))
            fixed += (both,)
        fill.append(((...,) + fixed + (both,),) * 2)
        return fill

    @cached_property
    def _inverse_scale(self) -> np.float64:
        # pocketfft's norm_fct: 1/N rounded from long double
        return np.float64(1 / np.longdouble(self.n**self.dim))

    def fftn(self, values: np.ndarray) -> np.ndarray:
        """Forward FFT of real values over the trailing dim axes.

        The steps of pocketfft for a real input: rfft along the last axis
        into a contiguous half spectrum, fft along the other grid axes in
        increasing order, then the rest from Hermitian symmetry
        (`_spectrum_fill`).
        """
        workers = fft_workers()
        dim, h = self.dim, self.n // 2
        half = np.empty(values.shape[:-1] + (h + 1,), dtype=np.complex128)
        _fft_pass(np.fft.rfft, values, half, -1, dim, workers)
        for axis in range(-dim, -1):
            _fft_pass(np.fft.fft, half, half, axis, dim, workers)
        out = np.empty(values.shape, dtype=np.complex128)
        out[..., : h + 1] = half
        # strided copies are much faster than a strided conjugate
        np.conjugate(half, out=half)
        for dst, src in self._spectrum_fill:
            out[dst] = half[src]
        return out

    def ifftn(self, coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Inverse FFT over the trailing dim axes, real part.

        The steps of pocketfft: an unnormalized ifft along the first grid
        axis, a real multiply by 1/N (which keeps signed zeros), then the
        unnormalized ifft along the remaining grid axes.

        With overwrite=True a C-contiguous complex128 `coeffs` becomes the
        transform's output buffer and is destroyed; the result is the real
        part of it. The bits are those of the out-of-place transform.
        """
        workers = fft_workers()
        dim = self.dim
        if overwrite and coeffs.dtype == np.complex128 and coeffs.flags.c_contiguous:
            out = coeffs
        else:
            # a copy and in-place passes beat a first pass out of place
            out = np.array(coeffs, dtype=np.complex128, order="C")
        for axis in range(-dim, 0):
            _fft_pass(np.fft.ifft, out, out, axis, dim, workers, "forward")
            if axis == -dim:
                flat = out.view(np.float64)
                np.multiply(flat, self._inverse_scale, out=flat)
        return out.real

    def truncate(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Zero all modes outside the dealias cutoff (in place with out=coeffs)."""
        return np.multiply(coeffs, self.dealias_mask, out=out)

    def dealias_values(self, values: np.ndarray) -> np.ndarray:
        """Round-trip a physical-space array through the dealias mask."""
        return self.ifftn(self.truncate(self.fftn(values)))

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
