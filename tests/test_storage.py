import json
from types import SimpleNamespace

import numpy as np
import pytest

from vortexlab.grid import GridSpec
from vortexlab.fields import ScalarField, VectorField
from vortexlab.storage import (
    format_float,
    load_field,
    run_id_for,
    save_diagnostics,
    save_field,
    sha256_file,
    write_csv,
    write_json,
    write_manifest,
)

DIAGNOSTIC_KEYS = (
    "vec_mag", "alpha", "rho", "align", "stretch_balance", "align_negative", "stretch_excess",
)


class TestSnapshots:
    def test_scalar_round_trip(self, tmp_path):
        g = GridSpec(2, 16)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.shape))
        save_field(tmp_path / "snap", f, role="temperature", time=0.25)
        back, header = load_field(tmp_path / "snap")
        assert np.array_equal(back.values, f.values)
        assert header["role"] == "temperature"
        assert header["time"] == 0.25
        assert header["dim"] == 2 and header["n"] == 16

    def test_truncated_bin_names_file_and_sizes(self, tmp_path):
        g = GridSpec(2, 8)
        save_field(tmp_path / "snap", ScalarField(g, np.ones(g.shape)), role="pressure", time=0.0)
        bin_path = tmp_path / "snap.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"snap\.bin holds 504 bytes.*needs 512"):
            load_field(tmp_path / "snap")

    def test_non_finite_round_trip(self, tmp_path):
        # an overflowed diagnostic is written as it is and must read back so
        g = GridSpec(2, 8)
        vals = np.arange(64, dtype=float).reshape(8, 8)
        vals[1, 2], vals[3, 4], vals[5, 6] = np.inf, -np.inf, np.nan
        save_diagnostics(tmp_path / "snap", g, SimpleNamespace(**dict.fromkeys(DIAGNOSTIC_KEYS, vals)), 0.5)
        back, header = load_field(tmp_path / "snap_stretch_balance")
        assert isinstance(back, ScalarField)
        assert back.values.tobytes() == vals.tobytes()
        assert not back.values.flags.writeable
        assert header["role"] == "stretch_balance"

    def test_header_shape_must_fit_its_grid(self, tmp_path):
        g = GridSpec(2, 8)
        save_field(tmp_path / "snap", ScalarField(g, np.ones(g.shape)), role="pressure", time=0.0)
        header = json.loads((tmp_path / "snap.json").read_text())
        header["shape"] = [4, 16]
        (tmp_path / "snap.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=r"shape \[4, 16\].*needs \[8, 8\]"):
            load_field(tmp_path / "snap")

    def test_vector_round_trip(self, tmp_path):
        g = GridSpec(3, 8)
        rng = np.random.default_rng(1)
        u = VectorField(g, rng.standard_normal((3,) + g.shape))
        save_field(tmp_path / "vel", u, role="velocity", time=1.5)
        back, header = load_field(tmp_path / "vel")
        assert isinstance(back, VectorField)
        assert np.array_equal(back.values, u.values)
        assert header["shape"] == [3, 8, 8, 8]

    def test_binary_is_little_endian_c_order(self, tmp_path):
        g = GridSpec(2, 8)
        vals = np.arange(64, dtype=float).reshape(8, 8)
        save_field(tmp_path / "f", ScalarField(g, vals), role="x", time=0.0)
        raw = np.frombuffer((tmp_path / "f.bin").read_bytes(), dtype="<f8")
        assert np.array_equal(raw.reshape(8, 8), vals)

    def test_header_is_json(self, tmp_path):
        g = GridSpec(2, 8)
        save_field(tmp_path / "f", ScalarField(g, np.zeros(g.shape)), role="x", time=0.0)
        header = json.loads((tmp_path / "f.json").read_text())
        assert header["format"] == "vortexlab-snapshot-v1"


class TestSerialization:
    def test_format_float_round_trips(self):
        rng = np.random.default_rng(2)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200):
            assert float(format_float(x)) == x

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"a": np.array([1.0, 2.0]), "b": np.array([0.1, np.nan])})
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("1,")
        assert "nan" in lines[2]

    def test_csv_column_length_check(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": np.zeros(2), "b": np.zeros(3)})

    def test_run_id_depends_only_on_content(self):
        a = run_id_for({"x": 1, "y": [1.5, 2.0]})
        b = run_id_for({"y": [1.5, 2.0], "x": 1})
        c = run_id_for({"x": 2, "y": [1.5, 2.0]})
        assert a == b
        assert a != c

    def test_write_json_deterministic(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": 1, "a": [0.1, 0.2]})
        write_json(tmp_path / "b.json", {"a": [0.1, 0.2], "b": 1})
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_write_json_finite_output_unchanged(self, tmp_path):
        obj = {"x": [0.1, 1e300, np.float64(2.5)], "y": {"z": (1, 2)}, "s": "t", "b": True}
        write_json(tmp_path / "a.json", obj)
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "a.json").read_text() == expected

    def test_write_json_non_finite_is_null(self, tmp_path):
        obj = {"a": float("inf"), "b": [np.float64("-inf"), float("nan"), 1.0], "c": {"d": np.nan}}
        write_json(tmp_path / "a.json", obj)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        back = json.loads((tmp_path / "a.json").read_text(), parse_constant=reject)
        assert back == {"a": None, "b": [None, None, 1.0], "c": {"d": None}}


class TestManifest:
    def test_checksums_and_relative_paths(self, tmp_path):
        f1 = tmp_path / "data" / "one.bin"
        f1.parent.mkdir()
        f1.write_bytes(b"hello")
        manifest = write_manifest(
            tmp_path / "manifest.json", {"seed": 1}, [f1], {"under_resolved": False}
        )
        assert manifest["files"]["data/one.bin"] == sha256_file(f1)
        assert manifest["under_resolved"] is False
        assert len(manifest["run_id"]) == 16
