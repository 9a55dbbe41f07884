import json

import numpy as np
import pytest

from vortexlab import pipeline
from vortexlab.cli import main
from vortexlab.pipeline import ConfigError, Region, RunConfig, load_config
from vortexlab.solver import NonFiniteStateError
from vortexlab.storage import sha256_file

BUBBLE_INI = """
[run]
system = boussinesq2d
seed = 5

[grid]
n = 32

[time]
dt = 0.01
t_end = 0.1
snapshot_every = 5

[initial]
name = boussinesq-bubble

[tracers]
count = 4

[regions]
ball1 = 3.14159, 3.14159 ; 1.0

[criteria]
candidate_time = 0.2
"""

TAYLOR_GREEN_INI = """
[run]
system = euler3d

[grid]
n = 16

[time]
dt = {dt}
t_end = {t_end}
{extra}

[initial]
name = taylor-green-3d
amplitude = {amplitude}
"""


# the tracer CSV headers; with fewer than 5 samples the residual_ columns are left out
TRACER_HEADER_3D = (
    "time,x1,x2,x3,carrier_mag,alpha,rho,align,stretch_balance,"
    "residual_vec_transport,residual_vec_mag_rate,residual_stretch_mag_rate,"
    "residual_log_curvature,residual_second_accel,margin_lemma,margin_double_exp,margin_damped"
)
TRACER_HEADER_2D = (
    "time,x1,x2,carrier_mag,alpha,rho,align,stretch_balance,"
    "residual_vec_transport,residual_vec_mag_rate,residual_stretch_mag_rate,"
    "residual_log_curvature,residual_second_accel,margin_lemma,margin_double_exp"
)
TRACER_HEADER_3D_FEW = (
    "time,x1,x2,x3,carrier_mag,alpha,rho,align,stretch_balance,margin_lemma,margin_double_exp,margin_damped"
)


@pytest.fixture()
def bubble_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BUBBLE_INI)
    return path


class TestConfigParsing:
    def test_load_round_trip(self, bubble_config):
        cfg = load_config(bubble_config)
        assert cfg.system == "boussinesq2d"
        assert cfg.n == 32
        assert cfg.dt == 0.01
        assert cfg.tracer_count == 4
        assert cfg.regions[0].label == "ball1"
        assert cfg.regions[0].radius == 1.0
        assert cfg.candidate_time == 0.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_explicit_points(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            BUBBLE_INI.replace("count = 4", "points = 1.0,2.0 ; 3.0,4.0")
        )
        cfg = load_config(path)
        assert cfg.tracer_count == 2
        assert np.allclose(cfg.tracer_points, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(system="navier"), "unknown system"),
            (dict(dt=0.03), "integer multiple"),
            (dict(t_end=-1.0), "t_end"),
            (dict(initial="whirl"), "unknown initial"),
            (dict(candidate_time=0.05), "candidate_time"),
            (dict(sample_every=3), "sample_every"),
            (dict(regions=[Region("r", center=(1.0, 2.0, 3.0), radius=1.0)]), "components"),
            (dict(regions=[Region("r", center=(1.0, 2.0), radius=-1.0)]), "radius"),
            (dict(regions=[Region("r", center=(1.0, 2.0), radius=float("nan"))]), "radius"),
            (dict(regions=[Region("r", center=(1.0, float("nan")), radius=1.0)]), "center must be finite"),
            (dict(amplitude=float("inf")), "amplitude must be finite"),
            (dict(amplitude=float("nan")), "amplitude must be finite"),
            (
                dict(system="euler3d", initial="taylor-green-3d", tracer_points=np.zeros((2, 2))),
                r"shape \(k >= 1, 3\)",
            ),
            (dict(tracer_points=np.zeros((0, 2))), "shape"),
            (dict(tracer_points=np.zeros(2)), "shape"),
            (dict(tracer_points=[[1.0, 2.0], [3.0]]), "rows of numbers"),
            (dict(tracer_points=np.array([[1.0, np.nan], [2.0, 2.0]])), "points must be finite"),
            (dict(tracer_points=np.array([[1.0, np.inf]])), "points must be finite"),
            (dict(tracer_count=5, tracer_points=np.zeros((2, 2))), "tracer count 5 differs"),
            (dict(system="euler3d", initial="boussinesq-bubble"), "does not fit euler3d"),
            (dict(initial="taylor-green-3d"), "does not fit boussinesq2d"),
            (dict(regions=[Region("global", center=(1.0, 2.0), radius=1.0)]), "'global'"),
            (dict(regions=[Region("global")]), "'global'"),
            (
                dict(regions=[Region("r", center=(1.0, 2.0), radius=1.0), Region("r", center=(2.0, 1.0), radius=0.5)]),
                "labels must differ",
            ),
        ],
    )
    def test_invalid_configs(self, kwargs, message):
        base = dict(
            system="boussinesq2d", n=32, dt=0.01, t_end=0.1, initial="boussinesq-bubble"
        )
        base.update(kwargs)
        with pytest.raises(ConfigError, match=message):
            RunConfig(**base)

    def test_points_set_the_default_count(self):
        cfg = RunConfig(
            system="boussinesq2d", n=32, dt=0.01, t_end=0.1, initial="boussinesq-bubble",
            tracer_points=[[1.0, 2.0], [3.0, 4.0]],
        )
        assert cfg.tracer_count == 2
        assert cfg.to_echo()["tracer_count"] == 2


class TestPipelineRun:
    def test_artifacts_written(self, bubble_config, tmp_path):
        cfg = load_config(bubble_config)
        out = tmp_path / "out"
        result = pipeline.run(cfg, output_dir=out)
        assert (out / "manifest.json").exists()
        assert (out / "report.json").exists()
        assert sorted(p.name for p in (out / "tracers").iterdir()) == [
            f"tracer_{i:03d}.csv" for i in range(4)
        ]
        snaps = sorted(p.name for p in (out / "snapshots").iterdir())
        assert "snap_000000_velocity.bin" in snaps
        assert "snap_000010_temperature.json" in snaps
        assert "snap_000005_pressure.bin" in snaps
        manifest = json.loads((out / "manifest.json").read_text())
        for rel, digest in manifest["files"].items():
            assert sha256_file(out / rel) == digest
        assert result.manifest["run_id"] == manifest["run_id"]

    def test_report_contents(self, bubble_config, tmp_path):
        result = pipeline.run(load_config(bubble_config), output_dir=tmp_path / "o")
        report = result.report
        names = {(e["name"], e["region"]) for e in report["criteria"]}
        assert ("alignment_negative", "global") in names
        assert ("stretch_excess", "ball1") in names
        monitors = {(e["name"], e["region"]) for e in report["type_one"]}
        assert ("alignment_negative", "ball1") in monitors
        assert all(e["threshold"] == 2.0 for e in report["type_one"])
        assert report["under_resolved"] is False
        assert set(report["residual_summaries"]) == {
            "vec_transport",
            "vec_mag_rate",
            "stretch_mag_rate",
            "log_curvature",
            "second_accel",
        }
        for value in report["residual_summaries"].values():
            assert np.isfinite(value)
        assert "theta_l2" in report["series"]

    def test_euler_run_has_weaker_criterion_and_three_bounds(self):
        cfg = RunConfig(
            system="euler3d", n=16, dt=0.01, t_end=0.05, initial="taylor-green-3d",
            seed=3, tracer_count=3,
        )
        result = pipeline.run(cfg)
        names = {e["name"] for e in result.report["criteria"]}
        assert "hessian_direction" in names
        weaker = [e for e in result.report["criteria"] if e["name"] == "hessian_direction"]
        assert all("weaker" in e["note"] for e in weaker)
        assert set(result.report["bound_checks"]) == {"lemma", "double-exp", "damped"}
        assert all(e["threshold"] == 1.0 for e in result.report["type_one"])

    def test_byte_identical_reruns(self, bubble_config, tmp_path):
        cfg = load_config(bubble_config)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        pipeline.run(cfg, output_dir=out1)
        pipeline.run(cfg, output_dir=out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_diagnostic_snapshot_export(self, tmp_path):
        from vortexlab.storage import load_field

        cfg = RunConfig(
            system="boussinesq2d", n=32, dt=0.01, t_end=0.02, initial="boussinesq-bubble",
            seed=2, snapshot_every=0, snapshot_diagnostics=True,
        )
        out = tmp_path / "diag"
        pipeline.run(cfg, output_dir=out)
        base = out / "snapshots" / "snap_000002_alignment_negative"
        values, header = load_field(base)
        assert header["role"] == "alignment_negative"
        assert header["time"] == pytest.approx(0.02)
        assert np.all(values >= 0.0)
        assert (out / "snapshots" / "snap_000000_stretch_balance.bin").exists()

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(
                system="euler3d", n=16, dt=0.01, t_end=0.03, initial="taylor-green-3d",
                seed=1, tracer_count=3, snapshot_every=1,
            ),
            RunConfig(
                system="boussinesq2d", n=32, dt=0.01, t_end=0.04, initial="boussinesq-bubble",
                seed=1, tracer_count=3, sample_every=2, snapshot_every=2, snapshot_diagnostics=True,
            ),
            # steps 1 and 5 do nothing, step 3 is a diagnostic snapshot only
            RunConfig(
                system="boussinesq2d", n=32, dt=0.01, t_end=0.06, initial="boussinesq-bubble",
                seed=1, tracer_count=3, sample_every=2, snapshot_every=3, snapshot_diagnostics=True,
            ),
            # as above, with snapshots that write no diagnostics
            RunConfig(
                system="euler3d", n=16, dt=0.01, t_end=0.06, initial="taylor-green-3d",
                seed=1, tracer_count=3, sample_every=2, snapshot_every=3,
            ),
        ],
        ids=["3d", "2d", "2d-snapshot-only-steps", "3d-snapshot-only-steps"],
    )
    def test_one_pressure_solve_and_one_velocity_gradient_per_sample(
        self, config, tmp_path, monkeypatch
    ):
        """Each sampled or snapshot step makes one gradient(u) and one
        solve_pressure, and each sampled step or diagnostic snapshot one
        diag_field; other steps make none of these calls."""
        import sys

        from vortexlab import diagnostics, fields, solver

        calls = [[]]  # the calls of each step, in order

        def counting(name, fn, count_if=lambda *a: True):
            def wrapper(*args, **kwargs):
                if count_if(*args):
                    calls[-1].append(name)
                return fn(*args, **kwargs)

            return wrapper

        def stepping(fn):
            def wrapper(*args, **kwargs):
                calls.append([])
                return fn(*args, **kwargs)

            return wrapper

        wrapped = {
            fields.solve_pressure: counting("solve_pressure", fields.solve_pressure),
            fields.gradient: counting(
                "gradient(u)", fields.gradient, lambda f, *a: isinstance(f, fields.VectorField)
            ),
            diagnostics.diag_field: counting("diag_field", diagnostics.diag_field),
            solver.rk4_stages_euler: stepping(solver.rk4_stages_euler),
            solver.rk4_stages_boussinesq: stepping(solver.rk4_stages_boussinesq),
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "vortexlab":
                for key, value in list(vars(module).items()):
                    if callable(value) and value in wrapped:
                        monkeypatch.setattr(module, key, wrapped[value])

        result = pipeline.run(config, output_dir=tmp_path / "out")
        expected = []
        for step in range(config.n_steps + 1):
            sampled = step % config.sample_every == 0
            snapshot = step in (0, config.n_steps) or step % config.snapshot_every == 0
            expected.append(
                ["gradient(u)", "solve_pressure"] * (sampled or snapshot)
                + ["diag_field"] * (sampled or (snapshot and config.snapshot_diagnostics))
            )
        assert calls == expected
        assert len(result.times) == config.n_steps // config.sample_every + 1

    @pytest.mark.parametrize(
        "system, initial, count",
        [("euler3d", "taylor-green-3d", 1), ("euler3d", "taylor-green-3d", 6), ("boussinesq2d", "boussinesq-bubble", 6)],
    )
    def test_one_tracer_analysis_call_per_run(self, system, initial, count, monkeypatch):
        """The tracer series, their residuals and each bound variant are one
        call on the whole batch, whatever the number of tracers."""
        import sys

        from vortexlab import tracers

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name if name != "growth_bound_check" else f"{name}:{args[2]}")
                return fn(*args, **kwargs)

            return wrapper

        wrapped = {
            fn: counting(fn.__name__, fn)
            for fn in (tracers.diagnostics_series, tracers.dynamical_residuals, tracers.growth_bound_check)
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "vortexlab":
                for key, value in list(vars(module).items()):
                    if callable(value) and value in wrapped:
                        monkeypatch.setattr(module, key, wrapped[value])

        cfg = RunConfig(system=system, n=16, dt=0.01, t_end=0.06, initial=initial, seed=2, tracer_count=count)
        pipeline.run(cfg)
        variants = ("lemma", "double-exp", "damped") if system == "euler3d" else ("lemma", "double-exp")
        assert calls == ["diagnostics_series", "dynamical_residuals"] + [f"growth_bound_check:{v}" for v in variants]

    def test_bound_checks_do_not_depend_on_tracer_order(self):
        # just off the vorticity peak of Taylor-Green |S xi| is tiny, so the
        # tracer's direction rate is large and its damped bound turns NaN
        points = np.array([[np.pi / 2 + 1e-5, np.pi / 2 + 1e-5, 1e-5], [1.0, 2.0, 0.5]])
        results = []
        for order in (points, points[::-1]):
            cfg = RunConfig(
                system="euler3d", n=8, dt=0.02, t_end=0.1, initial="taylor-green-3d",
                tracer_points=order,
            )
            with np.errstate(over="ignore", invalid="ignore"):
                results.append(pipeline.run(cfg))
        assert results[0].report["bound_checks"] == results[1].report["bound_checks"]
        damped = results[0].report["bound_checks"]["damped"]
        margins = results[0].tracer_columns["margin_damped"]
        assert not np.all(np.isfinite(margins))
        assert damped["violations"] == np.count_nonzero(~np.isfinite(margins))
        assert damped["min_margin"] == np.min(margins[np.isfinite(margins)])

    @pytest.mark.parametrize(
        "system, initial, t_end, header",
        [
            ("euler3d", "taylor-green-3d", 0.06, TRACER_HEADER_3D),
            ("boussinesq2d", "boussinesq-bubble", 0.06, TRACER_HEADER_2D),
            ("euler3d", "taylor-green-3d", 0.03, TRACER_HEADER_3D_FEW),  # 4 samples
        ],
        ids=["3d", "2d", "3d-4-samples"],
    )
    def test_tracer_csv_layout(self, system, initial, t_end, header, tmp_path):
        cfg = RunConfig(system=system, n=16, dt=0.01, t_end=t_end, initial=initial, seed=1, tracer_count=3)
        result = pipeline.run(cfg, output_dir=tmp_path)
        seeds = json.loads((tmp_path / "manifest.json").read_text())["tracer_seeds"]
        paths = sorted((tmp_path / "tracers").iterdir())
        assert [path.name for path in paths] == ["tracer_000.csv", "tracer_001.csv", "tracer_002.csv"]
        for path, seed in zip(paths, seeds):
            lines = path.read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + len(result.times)
            # 17 significant digits read back exactly: the seed is the first position
            assert [float(x) for x in lines[1].split(",")[1 : 1 + cfg.dim]] == seed

    @pytest.mark.parametrize(
        "system, initial", [("euler3d", "taylor-green-3d"), ("boussinesq2d", "boussinesq-bubble")]
    )
    def test_blow_up_with_tracers_raises_non_finite_state(self, system, initial):
        # the tracers' stage velocities turn non-finite with the stages; the
        # solver's check of the new state must speak before the tracers' one
        cfg = RunConfig(system=system, n=16, dt=1000.0, t_end=5000.0, initial=initial, tracer_count=2)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
            pipeline.run(cfg)

    def test_point_just_below_zero_is_seeded_at_zero(self):
        # np.mod(-1e-17, 2 pi) is 2 pi itself, which lies outside [0, 2 pi)
        cfg = RunConfig(
            system="boussinesq2d", n=8, dt=0.01, t_end=0.02, initial="boussinesq-bubble",
            tracer_points=[[-1e-17, 1.0]],
        )
        assert pipeline.run(cfg).tracer_columns["x1"][0, 0] == 0.0

    def test_region_with_no_grid_points_rejected(self):
        cfg = RunConfig(
            system="boussinesq2d", n=32, dt=0.01, t_end=0.02, initial="boussinesq-bubble",
            regions=[Region("tiny", center=(0.01, 0.01), radius=1e-4)],
        )
        with pytest.raises(ConfigError, match="no grid points"):
            pipeline.run(cfg)


class TestCli:
    def test_run_and_report(self, bubble_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(bubble_config), "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "run complete" in captured
        assert "type-I" in captured
        assert main(["report", str(out), "--csv", str(tmp_path / "csv")]) == 0
        captured = capsys.readouterr().out
        assert "criterion" in captured
        assert (tmp_path / "csv" / "criterion_alignment_negative_global.csv").exists()

    def test_run_prints_what_report_prints(self, bubble_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(bubble_config), "-o", str(out)]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert main(["report", str(out)]) == 0
        assert run_lines[0].startswith("run complete: boussinesq2d")
        assert run_lines[1] == f"output: {out}"
        assert run_lines[2:] == capsys.readouterr().out.splitlines()

    def test_run_prints_a_non_finite_value_as_report_does(self, bubble_config, tmp_path, capsys, monkeypatch):
        analyse = pipeline.analyse

        def overflowed(config, log):
            report, tracer_columns = analyse(config, log)
            report["criteria"][0]["value"] = np.inf
            return report, tracer_columns

        monkeypatch.setattr(pipeline, "analyse", overflowed)
        assert main(["run", str(bubble_config), "-o", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.count("non-finite") == 1
        assert "inf" not in out.replace("non-finite", "")

    def test_report_renders_null_values(self, bubble_config, tmp_path, capsys):
        # write_json stores a non-finite value as null; the report reads it back
        out = tmp_path / "out"
        assert main(["run", str(bubble_config), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["criteria"][0]["value"] = None
        report["criteria"][0]["integrand"][-1] = None
        report["type_one"][0]["window_max"] = None
        report["bkm"][0]["value"] = None
        report["residual_summaries"][sorted(report["residual_summaries"])[0]] = None
        report["bound_checks"]["lemma"]["min_margin"] = None
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["report", str(out), "--csv", str(tmp_path / "csv")]) == 0
        assert capsys.readouterr().out.count("non-finite") == 5
        entry = report["criteria"][0]
        rows = (tmp_path / "csv" / f"criterion_{entry['name']}_{entry['region']}.csv").read_text()
        assert rows.splitlines()[-1].endswith(",nan")

    def test_large_solenoidal_flow_runs(self, tmp_path, capsys):
        # max |grad u| near 1e8: the roundoff in div u is above 1e-8 but
        # within the divergence check's scaled bound
        path = tmp_path / "big.ini"
        path.write_text(TAYLOR_GREEN_INI.format(amplitude="1e8", dt="1e-12", t_end="2e-12", extra=""))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 0
        assert "run complete" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "ini",
        [TAYLOR_GREEN_INI.format(amplitude="1", dt="0.01", t_end="0.02", extra=""), BUBBLE_INI],
        ids=["taylor-green-3d", "bubble"],
    )
    def test_trig_start_runs_on_a_box_that_is_not_2_pi(self, ini, tmp_path, capsys):
        # the starts take one period per box, so they stay divergence-free
        path = tmp_path / "run.ini"
        path.write_text(ini.replace("[grid]\n", "[grid]\nlength = 6.0\n"))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 0
        assert "run complete" in capsys.readouterr().out

    def test_divergent_flow_aborts_run(self, tmp_path, capsys, monkeypatch):
        from vortexlab import solver
        from vortexlab.fields import VectorField

        def divergent(name, grid, **kwargs):
            x = grid.coords
            u = np.stack([np.sin(x[0]), np.zeros(grid.shape), np.zeros(grid.shape)])
            return solver.FlowState(VectorField(grid, u))

        monkeypatch.setattr(solver, "initial_condition", divergent)
        path = tmp_path / "run.ini"
        path.write_text(TAYLOR_GREEN_INI.format(amplitude="1", dt="0.01", t_end="0.01", extra=""))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        assert "run aborted: aborted at step 0: velocity divergence" in capsys.readouterr().err

    def test_overflowing_diagnostics_are_written(self, tmp_path, capsys):
        # |grad u|^2 near 1e310 overflows: the step-0 snapshot holds inf and
        # NaN as they are, and the step after it stops the run
        path = tmp_path / "huge.ini"
        path.write_text(
            TAYLOR_GREEN_INI.format(
                amplitude="1e155", dt="1e-170", t_end="2e-170", extra="snapshot_diagnostics = true"
            )
        )
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", str(path), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "run aborted: aborted at step 0: non-finite values in evolved state" in err
        roles = ["velocity", "pressure", "carrier_mag", "alpha", "rho", "align", "stretch_balance"]
        roles += ["alignment_negative", "stretch_excess"]
        for role in roles:
            for suffix in (".bin", ".json"):
                assert (out / "snapshots" / f"snap_000000_{role}{suffix}").exists(), role
        stretch = np.fromfile(out / "snapshots" / "snap_000000_stretch_balance.bin", dtype="<f8")
        assert not np.all(np.isfinite(stretch))

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nsystem = navier\n\n[time]\ndt = 0.1\nt_end = 1\n\n[initial]\nname = x\n\n[grid]\nn = 16\n")
        assert main(["run", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("snapshot_every = 5", "snapshot_every = 5\nsample_every = 0"),
            ("snapshot_every = 5", "snapshot_every = -5"),
            ("count = 4", "count = -4"),
        ],
    )
    def test_bad_cadence_or_count_exits_2(self, tmp_path, capsys, old, new):
        bad = tmp_path / "bad.ini"
        bad.write_text(BUBBLE_INI.replace(old, new))
        assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        ["n = 9", "n = 6", "n = 32\ndealias = 2.0", "n = 32\ndealias = 0", "n = 32\nlength = 0",
         "n = 32\nlength = -1",
         # the cell volume overflows (an OverflowError in kinetic_energy) or underflows (every
         # criterion non-finite), or the length is not finite
         "n = 32\nlength = 1e300", "n = 32\nlength = 1e-160", "n = 32\nlength = inf"],
    )
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid):
        bad = tmp_path / "bad.ini"
        bad.write_text(BUBBLE_INI.replace("n = 32", grid))
        assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("name = boussinesq-bubble", "name = boussinesq-bubble\namplitude = nan"),
            ("name = boussinesq-bubble", "name = boussinesq-bubble\namplitude = inf"),
            ("name = boussinesq-bubble", "name = taylor-green-3d"),
            ("snapshot_every = 5", "snapshot_every = 5\ncfl_guard = -1"),
            ("snapshot_every = 5", "snapshot_every = 5\ncfl_guard = nan"),
            ("candidate_time = 0.2", "candidate_time = nan"),
            ("candidate_time = 0.2", "candidate_time = 0.2\nwindow_fraction = 0"),
            ("candidate_time = 0.2", "candidate_time = 0.2\nwindow_fraction = nan"),
            ("seed = 5", "seed = -5"),
            ("3.14159, 3.14159 ; 1.0", "0.01, 0.01 ; 0.0001"),
            ("3.14159, 3.14159 ; 1.0", "3.14159, 3.14159 ; nan"),
            ("3.14159, 3.14159 ; 1.0", "nan, 3.14159 ; 1.0"),
            ("count = 4", "points = 1.0, nan ; 2.0, 2.0"),
            ("count = 4", "points = 1.0, inf ; 2.0, 2.0"),
            ("count = 4", "points = 1.0, 2.0, 3.0"),
            ("count = 4", "points = 1.0, 2.0 ; 3.0"),
            ("count = 4", "points = ;"),
            ("ball1 = ", "global = "),
            ("ball1 = ", "Global = "),
            ("ball1 = ", "Ball = 1.0, 1.0 ; 0.5\nball = "),
            ("count = 4", "count = 3\npoints = 1.0, 2.0 ; 3.0, 4.0"),
            # amplitude / max|u| overflows: once a RuntimeWarning, then non-finite samples
            ("name = boussinesq-bubble", "name = random-band-limited\namplitude = 1e308\nband = 1"),
            # no mode is kept: a zero flow
            ("name = boussinesq-bubble", "name = random-band-limited\nband = 0"),
        ],
    )
    def test_values_that_parse_but_cannot_run_exit_2(self, tmp_path, capsys, old, new):
        # these used to pass load_config and end the run with a traceback
        bad = tmp_path / "bad.ini"
        bad.write_text(BUBBLE_INI.replace(old, new))
        assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("snapshot_every = 5", "snapshot_every = 5\nsampel_every = 2", "sampel_every"),
            ("[tracers]", "[tracer]", "[tracer]"),
            ("count = 4", "count = 4\nseed = 3", "seed"),
            # configparser would copy n into every section
            ("[run]", "[DEFAULT]\nn = 16\n\n[run]", "[DEFAULT]"),
            # words that are not among configparser's booleans
            ("snapshot_every = 5", "snapshot_every = 5\nsnapshot_diagnostics = bogus", "snapshot_diagnostics"),
            ("snapshot_every = 5", "snapshot_every = 5\nsnapshot_diagnostics = 2", "snapshot_diagnostics"),
            ("snapshot_every = 5", "snapshot_every = 5\nsnapshot_diagnostics =", "snapshot_diagnostics"),
            # keys are read as written: N is not n
            ("n = 32", "N = 32", "['N']"),
        ],
    )
    def test_undeclared_setting_or_non_boolean_word_exits_2(self, tmp_path, capsys, old, new, named):
        bad = tmp_path / "bad.ini"
        bad.write_text(BUBBLE_INI.replace(old, new))
        assert main(["run", str(bad), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not (tmp_path / "out").exists()

    def test_region_label_keeps_its_case(self, bubble_config, tmp_path):
        # configparser used to lowercase it to core_ball
        bubble_config.write_text(BUBBLE_INI.replace("ball1 =", "Core_Ball ="))
        assert main(["run", str(bubble_config), "-o", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [region["label"] for region in report["regions"]] == ["global", "Core_Ball"]
        assert set(report["series"]["sup_norms"]["carrier_sup"]) == {"global", "Core_Ball"}

    @pytest.mark.parametrize(
        "word, value", [("on", True), ("Yes", True), ("1", True), ("off", False), ("NO", False), ("0", False)]
    )
    def test_boolean_words(self, tmp_path, word, value):
        path = tmp_path / "run.ini"
        path.write_text(BUBBLE_INI.replace("snapshot_every = 5", f"snapshot_every = 5\nsnapshot_diagnostics = {word}"))
        assert load_config(path).snapshot_diagnostics is value

    @pytest.mark.parametrize("output", ["out", "out/run"])
    def test_output_that_is_or_lies_under_a_file_exits_2(self, bubble_config, tmp_path, capsys, output):
        blocker = tmp_path / "out"
        blocker.write_text("not a directory\n")
        assert main(["run", str(bubble_config), "-o", str(tmp_path / output)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(tmp_path / output) in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("csv", ["blocker", "blocker/csv"])
    def test_report_csv_dir_that_is_or_lies_under_a_file_exits_2(self, bubble_config, tmp_path, capsys, csv):
        # the tables used to print before the CSV write ended in a traceback
        assert main(["run", str(bubble_config), "-o", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        (tmp_path / "blocker").write_text("not a directory\n")
        assert main(["report", str(tmp_path / "out"), "--csv", str(tmp_path / csv)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err and str(tmp_path / csv) in err

    def test_check_identities_pass(self, capsys):
        assert main(["check-identities", "--count", "5000", "--dim", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_check_identities_forced_failure(self, capsys):
        assert main(["check-identities", "--count", "100", "--tolerance", "0"]) == 1
        out = capsys.readouterr().out
        assert "worst sample" in out

    def test_check_identities_overflow_fails(self, capsys):
        # at 1e154 the kernel's |S v| near 1e308 overflows to inf: those
        # samples fail, they are not skipped. The 1240 skipped ones are the
        # samples whose |v|^2 overflows, which the kernel reads as degenerate
        assert main(["check-identities", "--count", "2000", "--scale", "1e154"]) == 1
        out = capsys.readouterr().out
        assert "vorticity_pythagoras       max_residual=inf skipped=1240 FAIL" in out

    def test_check_identities_overflow_json_is_strict(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["check-identities", "--count", "2000", "--scale", "1e154", "--json", str(path)]) == 1
        assert "max_residual=inf skipped=1240 FAIL" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(path.read_text(), parse_constant=reject)
        overflowed = [name for name, value in report["residual_max"].items() if value is None]
        assert overflowed and not report["passed"]

    def test_check_identities_overflow_stdout_is_strict(self, capsys):
        assert main(["check-identities", "--count", "2000", "--scale", "1e154"]) == 1
        out = capsys.readouterr().out
        assert "max_residual=inf skipped=1240 FAIL" in out

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        worst = json.loads(out.split("worst sample:\n", 1)[1], parse_constant=reject)
        assert None in worst.values()

    def test_check_identities_bad_count(self, capsys):
        assert main(["check-identities", "--count", "0"]) == 2

    @pytest.mark.parametrize("scale", ["0", "-0.0", "nan", "inf", "-inf"])
    def test_check_identities_bad_scale_exits_2(self, capsys, scale):
        # every sample would be skipped or NaN, and all checks would read PASS
        assert main(["check-identities", "--count", "100", f"--scale={scale}"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", ["--seed=-1", "--tolerance=nan", "--tolerance=-1", "--tolerance=inf"]
    )
    def test_check_identities_bad_seed_or_tolerance_exits_2(self, capsys, option):
        # a negative seed once ended in a traceback; a tolerance below 0 or NaN
        # marked every check FAIL
        assert main(["check-identities", "--count", "10", option]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_check_identities_json_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        # it used to end in IsADirectoryError after the suite had run
        assert main(["check-identities", "--count", "10", "--json", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err and str(tmp_path) in err

    def test_check_identities_negative_scale_passes(self, capsys):
        assert main(["check-identities", "--count", "2000", "--scale", "-1"]) == 0

    def test_gronwall_single(self, tmp_path, capsys):
        spec = tmp_path / "gw.ini"
        spec.write_text(
            "[gronwall]\nvariant = single\nsamples = 257\nalpha = 1.0\nbeta = 1.5\ny = equality\n"
        )
        assert main(["gronwall", str(spec), "--json", str(tmp_path / "gw.json")]) == 0
        assert "dominated=True" in capsys.readouterr().out
        assert json.loads((tmp_path / "gw.json").read_text())["domination_satisfied"]

    def test_gronwall_batch(self, tmp_path, capsys):
        spec = tmp_path / "gw.ini"
        spec.write_text("[gronwall]\nvariant = double\n\n[batch]\ncount = 50\nseed = 4\n")
        assert main(["gronwall", str(spec)]) == 0
        assert "dominated=50/50" in capsys.readouterr().out

    def test_gronwall_batch_samples_its_interval(self, tmp_path, capsys):
        batch = "\n\n[batch]\ncount = 20\nseed = 4\n"
        outputs = {}
        intervals = {"default": "", "unit": "t_start = 0\nt_end = 1\n", "late": "t_start = 5\nt_end = 9\n"}
        for name, interval in intervals.items():
            spec = tmp_path / f"{name}.ini"
            spec.write_text("[gronwall]\nvariant = double\n" + interval + batch)
            assert main(["gronwall", str(spec), "--json", str(tmp_path / f"{name}.json")]) == 0
            outputs[name] = (tmp_path / f"{name}.json").read_bytes()
        assert outputs["unit"] == outputs["default"]
        assert outputs["late"] != outputs["default"]
        assert json.loads(outputs["late"])["dominated"] == 20

    def _long_batch(self, tmp_path, t_end):
        spec = tmp_path / "gw.ini"
        spec.write_text(
            f"[gronwall]\nvariant = double\nt_start = 0\nt_end = {t_end}\n\n[batch]\ncount = 20\nseed = 4\n"
        )
        code = main(["gronwall", str(spec), "--json", str(tmp_path / "gw.json")])
        return code, json.loads((tmp_path / "gw.json").read_text())

    def test_gronwall_batch_overflow_is_counted(self, tmp_path, capsys):
        # over [0, 40] exp of the double integral of beta overflows, so each
        # bound is inf at its late samples and each excess NaN; this once read
        # dominated=0/20 with max_excess=0.000e+00, and numpy warned on stderr
        code, data = self._long_batch(tmp_path, 40)
        out, err = capsys.readouterr()
        assert code == 1
        assert "dominated=0/20 overflowed=20 max_excess=non-finite" in out
        assert err == ""
        assert data["overflowed"] == 20
        assert data["dominated"] == 0
        assert data["max_relative_excess"] is None

    def test_gronwall_batch_that_does_not_overflow(self, tmp_path, capsys):
        code, data = self._long_batch(tmp_path, 20)
        out, err = capsys.readouterr()
        assert code == 0
        assert "dominated=20/20 overflowed=0 max_excess=0.000e+00" in out
        assert err == ""
        assert (data["dominated"], data["overflowed"], data["max_relative_excess"]) == (20, 0, 0.0)

    @pytest.mark.parametrize(
        "spec",
        [
            "[gronwall\nvariant = single\n",
            "[gronwall]\nt_start = x\n",
            "[gronwall]\nalpha = linear:1\n",
            "[gronwall]\nsamples = 3.5\n",
            "[gronwall]\nvariant = double\n\n[batch]\ncount = 0\n",
            "[gronwall]\nt_end = nan\n",
            "[gronwall]\nvariant = double\n\n[batch]\nseed = -1\n",
            # profiles that are not finite at some sample time
            "[gronwall]\nalpha = nan\n",
            "[gronwall]\nt_end = 1e300\nalpha = linear:0,1e10\n",
            "[gronwall]\nbeta = inf\n",
            "[gronwall]\ny = const:nan\n",
        ],
    )
    def test_gronwall_bad_spec_exits_2(self, tmp_path, capsys, spec):
        path = tmp_path / "gw.ini"
        path.write_text(spec)
        assert main(["gronwall", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("[gronwall]\nvarient = double\n", "varient"),
            ("[gronwall]\nvariant = double\n\n[bach]\ncount = 3\n", "[bach]"),
            ("[gronwall]\nvariant = double\n\n[batch]\ncount = 3\nsead = 1\n", "sead"),
            ("[DEFAULT]\nvariant = double\n\n[gronwall]\n", "[DEFAULT]"),
        ],
    )
    def test_gronwall_undeclared_section_or_key_exits_2(self, tmp_path, capsys, spec, named):
        path = tmp_path / "gw.ini"
        path.write_text(spec)
        assert main(["gronwall", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize(
        "keys, named",
        [
            ("alpha = nan\ny = const:5\n", "['alpha', 'y']"),
            ("beta = 1.5\n", "['beta']"),
            ("y = equality\n", "['y']"),
        ],
    )
    def test_gronwall_batch_rejects_the_single_problem_keys(self, tmp_path, capsys, keys, named):
        # a batch draws its own problems; alpha = nan once read dominated=3/3 and exit 0
        path = tmp_path / "gw.ini"
        path.write_text(f"[gronwall]\nvariant = double\n{keys}\n[batch]\ncount = 3\nseed = 1\n")
        assert main(["gronwall", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err and named in err

    def test_gronwall_json_path_under_a_file_exits_2(self, tmp_path, capsys):
        # it used to end in FileExistsError
        spec = tmp_path / "gw.ini"
        spec.write_text("[gronwall]\nvariant = single\n")
        (tmp_path / "blocker").write_text("not a directory\n")
        assert main(["gronwall", str(spec), "--json", str(tmp_path / "blocker" / "x.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err and str(tmp_path / "blocker") in err

    def test_gronwall_bad_variant(self, tmp_path):
        spec = tmp_path / "gw.ini"
        spec.write_text("[gronwall]\nvariant = triple\n")
        assert main(["gronwall", str(spec)]) == 2

    def test_gronwall_hypothesis_violation(self, tmp_path, capsys):
        spec = tmp_path / "gw.ini"
        spec.write_text("[gronwall]\nvariant = single\nalpha = linear:1.0,-1.0\nbeta = 0.0\n")
        assert main(["gronwall", str(spec)]) == 1
        assert "hypothesis violation" in capsys.readouterr().err

    def test_report_missing_input(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize("target", ["named.json", "rundir/report.json"])
    def test_report_that_is_a_directory_exits_2(self, tmp_path, capsys, target):
        # a directory named *.json, or a run directory whose report.json is a
        # directory, used to end in IsADirectoryError
        (tmp_path / target).mkdir(parents=True)
        assert main(["report", str(tmp_path / target.split("/")[0])]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error: ") and str(tmp_path / target) in err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"system": "boussinesq2d", "grid"',
            b'{"system": "\xff\xfe"}',
            b"{}",
            # the tables could be built, but --csv finds no series
            b'{"system": "euler3d", "grid": {"n": 8}, "time": {"dt": 0.1}, "candidate_time": 1, '
            b'"under_resolved": false, "criteria": [], "type_one": [], "bkm": []}',
            # edits of a bubble run's report.json
            lambda report: report.pop("bkm"),  # the tables before it could be built
            lambda report: report["criteria"][0]["norm_samples"].pop(),  # the tables could be built
        ],
        ids=["truncated", "not-utf8", "empty-object", "no-series", "no-bkm", "ragged-series"],
    )
    def test_report_on_a_bad_report_file_exits_2(self, bubble_config, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        if callable(content):
            assert main(["run", str(bubble_config), "-o", str(tmp_path / "run")]) == 0
            report = json.loads((tmp_path / "run" / "report.json").read_text())
            content(report)
            content = json.dumps(report).encode()
            capsys.readouterr()
        path.write_bytes(content)
        assert main(["report", str(tmp_path), "--csv", str(tmp_path / "csv")]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("configuration error: ") and str(path) in err
        assert out == ""
        assert not (tmp_path / "csv").exists()
