"""The run report: `analyse` builds it from a `SampleLog` alone, and the key
layout of report.json is pinned, so that moving the report's assembly cannot
drop or rename a key unnoticed."""

import json

import numpy as np
import pytest

from vortexlab import pipeline
from vortexlab.criteria import VERDICT_NOT_VERIFIED, VERDICT_SATISFIED
from vortexlab.pipeline import Region, RunConfig


@pytest.mark.parametrize("c, verdict", [(0.5, VERDICT_SATISFIED), (2.0, VERDICT_NOT_VERIFIED)])
def test_type_one_verdict_of_a_hand_made_log(c, verdict):
    # m = c / (T - t)^2 has (T - t)^2 m = c at every sample; the 3D threshold is 1
    config = RunConfig(
        system="euler3d", n=8, dt=0.01, t_end=0.9, initial="taylor-green-3d", candidate_time=1.0
    )
    times = config.dt * np.arange(config.n_steps + 1)
    zeros = [0.0] * times.size
    sup_norms = {name: {"global": zeros} for name in pipeline.SUP_QUANTITIES}
    sup_norms["stretch_excess"] = {"global": list(c / (1.0 - times) ** 2)}
    log = pipeline.SampleLog(times=list(times), sup_norms=sup_norms, energy=zeros, tail_ratio=zeros)

    report, records = pipeline.analyse(config, log)

    assert records == []
    (monitor,) = [m for m in report["type_one"] if m["name"] == "stretch_excess"]
    assert abs(monitor["window_max"] - c) <= 1e-12
    assert monitor["verdict"] == verdict
    assert monitor["samples_used"] == times.size
    assert report["series"]["times"] == list(times)


def _layout(value, path: str = "") -> set:
    """The nested key paths of a JSON value. The entries of a list are told
    apart by their "name", if they have one, and merged otherwise."""
    if isinstance(value, dict):
        out = set()
        for key, item in value.items():
            out |= {f"{path}.{key}"} | _layout(item, f"{path}.{key}")
        return out
    if isinstance(value, list):
        entries = [_layout(v, f"{path}[{v.get('name', '')}]") for v in value if isinstance(v, dict)]
        return set().union(*entries)
    return set()


def _under(prefix: str, keys: str) -> set:
    return {f"{prefix}.{key}" for key in keys.split()}


CRITERION = "double_integral horizon inner_integral integrand name norm_samples region times value weight"
MONITOR = "horizon name region samples_used scaled threshold times verdict window_fraction window_max"
SUP = "alignment_negative carrier_sup hessian_direction_sup stretch_excess velocity_sup"
BOUND = "min_margin tolerance violations"

LAYOUT_2D = (
    _under(
        "",
        "system kind grid time candidate_time monitor_threshold regions series criteria type_one "
        "bkm residual_summaries bound_checks under_resolved theta_range",
    )
    | _under(".grid", "dealias dim length n")
    | _under(".time", "dt sample_every t_end")
    | _under(".regions[]", "center kind label radius")
    | _under(".series", "kinetic_energy spectral_tail_ratio sup_norms theta_l2 times")
    | _under(".series.sup_norms", SUP)
    | {f".series.sup_norms.{q}.{r}" for q in SUP.split() for r in ("global", "core")}
    | _under(".criteria[alignment_negative]", CRITERION)
    | _under(".criteria[stretch_excess]", CRITERION)
    | _under(".type_one[alignment_negative]", MONITOR)
    | _under(".type_one[stretch_excess]", MONITOR)
    | _under(".bkm[carrier_supnorm_integral]", "horizon name region value weight")
    | _under(".bkm[velocity_supnorm_integral]", "name region value weight")
    | _under(".residual_summaries", "log_curvature second_accel stretch_mag_rate vec_mag_rate vec_transport")
    | _under(".bound_checks", "lemma double-exp")
    | _under(".bound_checks.lemma", BOUND)
    | _under(".bound_checks.double-exp", BOUND)
)
# no region but the global one, no temperature and no weight on the carrier's
# integral; the weaker Hessian criterion and the damped bound
LAYOUT_3D = (
    LAYOUT_2D
    - {".regions[].center", ".regions[].radius", ".series.theta_l2", ".theta_range"}
    - {".bkm[carrier_supnorm_integral].horizon"}
    - {f".series.sup_norms.{q}.core" for q in SUP.split()}
    | _under(".criteria[hessian_direction]", CRITERION + " note")
    | _under(".bound_checks", "damped")
    | _under(".bound_checks.damped", BOUND)
)


@pytest.mark.parametrize(
    "config, layout",
    [
        (
            RunConfig(
                system="boussinesq2d", n=16, dt=0.01, t_end=0.05, initial="boussinesq-bubble",
                tracer_count=2, regions=[Region("core", center=(3.0, 3.0), radius=1.0)],
            ),
            LAYOUT_2D,
        ),
        (
            RunConfig(
                system="euler3d", n=8, dt=0.01, t_end=0.05, initial="taylor-green-3d", tracer_count=2
            ),
            LAYOUT_3D,
        ),
    ],
    ids=["2d", "3d"],
)
def test_report_key_layout_is_pinned(config, layout, tmp_path):
    pipeline.run(config, output_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert _layout(report) == layout
