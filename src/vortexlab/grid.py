"""Uniform periodic grid with precomputed spectral machinery."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sp_fft

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
        return TWO_PI * sp_fft.fftfreq(self.n, d=self.dx)

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

    def fftn(self, values: np.ndarray) -> np.ndarray:
        """Forward FFT over the trailing dim axes."""
        axes = tuple(range(values.ndim - self.dim, values.ndim))
        return sp_fft.fftn(values, axes=axes, workers=fft_workers())

    def ifftn(self, coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Inverse FFT over the trailing dim axes, real part.

        With overwrite=True a complex128 `coeffs` becomes the transform's
        output buffer and is destroyed; the result is the real part of it.
        The bits are those of the out-of-place transform.
        """
        axes = tuple(range(coeffs.ndim - self.dim, coeffs.ndim))
        return sp_fft.ifftn(coeffs, axes=axes, workers=fft_workers(), overwrite_x=overwrite).real

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
