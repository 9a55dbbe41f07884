"""Working-set guards for a run on the grid and for the identity suite.

The transient memory of each phase of a sample and of an RK4 step, measured
with tracemalloc above the memory in use when the phase starts, must stay
under a fixed multiple of one real vector field of the grid. The phases are
bracketed at pipeline-level calls, and diag_field is not wrapped, so that no
wrapper holds on to the velocity gradient that the run hands over to it.
"""

import tracemalloc

import pytest

from vortexlab import fields, identities, pipeline, solver
from vortexlab.pipeline import Region, RunConfig

N = 32
VECTOR_BYTES = 3 * N**3 * 8
# In real vector fields. This config reads 5.2 (`gradient`), 5.2 (a sample)
# and 8.5 (an RK4 step). Keeping the 9-row gradient spectrum beside its
# out-of-place transform, the full skew part and the whole grid's direction
# quantities, and every RK4 stage, reads 17.0, 15.0 and 15.3.
LIMITS = {"gradient": 8, "sample": 7, "rk4 step": 10}


def test_phase_working_sets_are_bounded(monkeypatch):
    peaks = {}
    current = []  # (phase, memory in use at its start)

    def begin(name):
        tracemalloc.reset_peak()
        current.append((name, tracemalloc.get_traced_memory()[0]))

    def end():
        name, entry = current.pop()
        peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - entry)

    def phase(name, fn, then=None):
        def wrapper(*args, **kwargs):
            if current:
                end()  # a sample ends where the next phase starts
            begin(name)
            out = fn(*args, **kwargs)
            end()
            if then is not None:
                begin(then)
            return out

        return wrapper

    monkeypatch.setattr(pipeline, "gradient", phase("gradient", fields.gradient))
    # the sample phase: diag_field and the reads of the sup norms
    monkeypatch.setattr(
        pipeline, "solve_pressure", phase("pressure", fields.solve_pressure, then="sample")
    )
    monkeypatch.setattr(solver, "rk4_stages_euler", phase("rk4 step", solver.rk4_stages_euler))
    config = RunConfig(
        system="euler3d", n=N, dt=0.005, t_end=0.005, initial="taylor-green-3d",
        regions=[Region("core", center=(3.14159, 3.14159, 3.14159), radius=1.0)],
    )
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
    in_fields = {name: round(peak / VECTOR_BYTES, 2) for name, peak in peaks.items()}
    for name, limit in LIMITS.items():
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
