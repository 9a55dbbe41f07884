"""Snapshot persistence, run manifests, and deterministic serialization.

Arrays go to disk as raw little-endian float64 in C order with a JSON
sidecar header carrying dim, n, the field role, and the sample time.
CSV floats are written with 17 significant digits; JSON floats use
Python's shortest round-trip repr, and a non-finite one is written as
null. Nothing time-of-day dependent is ever written, so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .fields import ScalarField, TensorField, VectorField
from .grid import GridSpec

_FIELD_CLASSES = {0: ScalarField, 1: VectorField, 2: TensorField}


def finite_or_null(obj):
    """`obj` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null(value) for value in obj]
    return obj


def fields_to_json(record, rename: dict | None = None, exclude: tuple = ()) -> dict:
    """The fields of the dataclass instance `record` as a dict for JSON, each
    keyed by its name or by its entry in `rename`; numpy arrays become lists."""
    rename = rename or {}
    out = {}
    for f in dataclasses.fields(record):
        if f.name not in exclude:
            value = getattr(record, f.name)
            out[rename.get(f.name, f.name)] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def write_json(path: Path, obj) -> None:
    """Strict JSON: a non-finite float is written as null, never as
    `Infinity` or `NaN`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(finite_or_null(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def save_field(base: Path, field, role: str, time: float) -> tuple[Path, Path]:
    """Write `<base>.bin` (raw samples) and `<base>.json` (header)."""
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    bin_path = base.with_suffix(".bin")
    data = np.ascontiguousarray(field.values, dtype="<f8")
    bin_path.write_bytes(data.tobytes())
    header = {
        "format": "vortexlab-snapshot-v1",
        "dtype": "<f8",
        "order": "C",
        "dim": field.grid.dim,
        "n": field.grid.n,
        "length": field.grid.length,
        "dealias": field.grid.dealias,
        "rank": field.rank,
        "shape": list(field.values.shape),
        "role": role,
        "time": time,
    }
    json_path = base.with_suffix(".json")
    write_json(json_path, header)
    return bin_path, json_path


def load_field(base: Path):
    """Read a snapshot pair back; returns (field, header). Samples are read
    as they were written, inf and NaN included."""
    base = Path(base)
    header = read_json(base.with_suffix(".json"))
    grid = GridSpec(
        dim=header["dim"], n=header["n"], length=header["length"], dealias=header["dealias"]
    )
    bin_path = base.with_suffix(".bin")
    data = bin_path.read_bytes()
    expected = int(np.prod(header["shape"])) * 8
    if len(data) != expected:
        raise ValueError(
            f"{bin_path} holds {len(data)} bytes, but its header shape {header['shape']} "
            f"needs {expected}"
        )
    cls = _FIELD_CLASSES[header["rank"]]
    expected_shape = [grid.dim] * cls.rank + [grid.n] * grid.dim
    if header["shape"] != expected_shape:
        raise ValueError(
            f"{base.with_suffix('.json')} gives shape {header['shape']}, but rank {cls.rank} "
            f"on its grid needs {expected_shape}"
        )
    values = np.frombuffer(data, dtype="<f8").reshape(header["shape"]).astype(np.float64)
    # unchecked, so that a snapshot holding inf or NaN (an overflowed
    # diagnostic, say) reads back as it was written
    return cls._wrap(grid, values), header


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Column-oriented CSV with 17-significant-digit floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise ValueError("all CSV columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(n):
            fh.write(",".join(format_float(a[i]) for a in arrays) + "\n")


def save_diagnostics(base: Path, grid: GridSpec, diag, time: float) -> list[Path]:
    """Export the scalar diagnostic fields as snapshot pairs.

    diag holds the grid-shaped quantities of `diagnostics.diag_field`.
    Writes carrier magnitude, stretching rate, alignment, stretch balance,
    and the two bracketed monitor quantities next to `base`, as they are:
    a diagnostic that overflowed is written as inf or NaN.
    """
    entries = {
        "carrier_mag": diag.vec_mag,
        "alpha": diag.alpha,
        "rho": diag.rho,
        "align": diag.align,
        "stretch_balance": diag.stretch_balance,
        "alignment_negative": diag.align_negative,
        "stretch_excess": diag.stretch_excess,
    }
    paths = []
    for role, values in entries.items():
        # a frozen copy, as `ScalarField` makes, that may hold inf or NaN
        field = ScalarField._wrap(grid, np.array(values, dtype=np.float64))
        paths.extend(save_field(Path(f"{base}_{role}"), field, role, time))
    return paths


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_id_for(config_echo: dict) -> str:
    """Content-derived run identifier (no wall clock involved)."""
    blob = json.dumps(config_echo, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_manifest(path: Path, config_echo: dict, files: list[Path], extra: dict) -> dict:
    """Manifest with a config echo, a content-derived run id, and file checksums."""
    path = Path(path)
    root = path.parent
    manifest = {
        "run_id": run_id_for(config_echo),
        "config": config_echo,
        "files": {
            str(Path(f).relative_to(root)): sha256_file(f) for f in sorted(files, key=str)
        },
    }
    manifest.update(extra)
    write_json(path, manifest)
    return manifest


__all__ = [
    "finite_or_null",
    "fields_to_json",
    "write_json",
    "read_json",
    "save_field",
    "load_field",
    "save_diagnostics",
    "format_float",
    "write_csv",
    "sha256_file",
    "run_id_for",
    "write_manifest",
]
