"""Working-set guards for a run on the grid and for the identity suite.

The transient memory of each phase of a sample and of an RK4 step, measured
with tracemalloc above the memory in use when the phase starts, must stay
under a fixed multiple of one real vector field of the grid. The phases are
bracketed at pipeline-level calls, and diag_field is not wrapped, so that no
wrapper holds on to the velocity gradient that the run hands over to it.
`gradient` runs to the pressure solve, the pressure solve to its return,
and a sample from there to the next phase.
"""

import tracemalloc

import pytest

from vortexlab import fields, identities, pipeline, solver
from vortexlab.pipeline import Region, RunConfig

N = 32
# In real vector fields. This config reads 5.2 (`gradient`), 5.2 (a sample)
# and 7.3 (an RK4 step). Keeping the 9-row gradient spectrum beside its
# out-of-place transform, the full skew part and the whole grid's direction
# quantities, and every RK4 stage, reads 17.0, 15.0 and 15.3.
LIMITS = {"gradient": 8, "sample": 7, "rk4 step": 10}
EULER = dict(
    system="euler3d", n=N, dt=0.005, t_end=0.005, initial="taylor-green-3d",
    regions=[Region("core", center=(3.14159, 3.14159, 3.14159), radius=1.0)],
)
# With 4 tracers, which sample each derivative stack as it is built, this
# config reads 7.1 (`gradient`, with the point samples of grad u), 8.1 (a
# sample, with those of the Hessian's stack, which is sampled and
# transformed before the strain and the vorticity are built) and 7.3 (an
# RK4 step: the tracers sample each stage inside it, and no stage outlives
# its rhs call; keeping the four stages for the tracers read 13.0).
# Building the sampled Hessian stack after grad u is freed, beside the
# strain and the vorticity, read 9.1 in the sample.
LIMITS_TRACERS = {"gradient": 8, "sample": 9, "rk4 step": 10}
# The 2D bubble with 4 tracers, in real vector fields of its grid (two
# grid arrays). It reads 6.1 (`gradient`), 7.1 (a sample) and 10.5 (an RK4
# step). Sampling the carrier at the tracers from the Hessian's stack, which
# then held two rows more through the sample phase, read 10.2 there; copying
# each stage's uh into a stack of its own beside the vorticity and grad
# theta, instead of transforming the stage in place, read 17.0 in the step.
BUBBLE = dict(
    system="boussinesq2d", n=128, dt=0.005, t_end=0.005, initial="boussinesq-bubble",
    regions=[Region("core", center=(3.14159, 3.14159), radius=1.0)], tracer_count=4,
)
LIMITS_2D = {"gradient": 7, "sample": 11, "rk4 step": 12}


@pytest.mark.parametrize(
    "settings, limits",
    [
        (dict(EULER, tracer_count=0), LIMITS),
        (dict(EULER, tracer_count=4), LIMITS_TRACERS),
        (BUBBLE, LIMITS_2D),
    ],
    ids=["grid", "tracers", "bubble-tracers"],
)
def test_phase_working_sets_are_bounded(monkeypatch, settings, limits):
    config = RunConfig(**settings)
    vector_bytes = config.dim * config.n**config.dim * 8
    peaks = {}
    current = []  # (phase, memory in use at its start)

    def begin(name):
        tracemalloc.reset_peak()
        current.append((name, tracemalloc.get_traced_memory()[0]))

    def end():
        name, entry = current.pop()
        peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - entry)

    def phase(name, fn, then=None, ends=True):
        """fn bracketed as `name` from its call to its return, where `then`
        begins, or with ends=False to the start of the next phase."""

        def wrapper(*args, **kwargs):
            if current:
                end()  # an open phase ends where the next one starts
            begin(name)
            out = fn(*args, **kwargs)
            if ends:
                end()
                if then is not None:
                    begin(then)
            return out

        return wrapper

    # from the call of `gradient` to the pressure solve, so that the span is
    # the same wherever between the two the tracers sample grad u
    monkeypatch.setattr(pipeline, "gradient", phase("gradient", fields.gradient, ends=False))
    # the sample phase: diag_field and the reads of the sup norms
    monkeypatch.setattr(
        pipeline, "solve_pressure", phase("pressure", fields.solve_pressure, then="sample")
    )
    for name in ("rk4_stages_euler", "rk4_stages_boussinesq"):
        monkeypatch.setattr(solver, name, phase("rk4 step", getattr(solver, name)))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        pipeline.run(config)
        if current:
            end()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    in_fields = {name: round(peak / vector_bytes, 2) for name, peak in peaks.items()}
    for name, limit in limits.items():
        assert in_fields[name] < limit, (name, in_fields)


SUITE_COUNT = 100_000
# In the bytes of the suite's sample arrays S, P and v. The suite reads 1.48
# in 3D and 1.78 in 2D. Evaluating the kernel and the checks on the whole
# batch, with make_samples' full-batch temporaries, read 3.85 and 5.55.
SUITE_LIMIT = 2.5


@pytest.mark.parametrize("dim", [3, 2])
def test_identity_suite_working_set_is_bounded(dim):
    sample_bytes = SUITE_COUNT * (2 * dim * dim + dim) * 8
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        identities.run_identity_suite(SUITE_COUNT, dim, 0)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert round(peak / sample_bytes, 2) < SUITE_LIMIT, (dim, peak / sample_bytes)
