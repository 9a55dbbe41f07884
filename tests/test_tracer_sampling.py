"""The tracer diagnostics read the same derivative coefficients as the grid
diagnostics, and the series they feed is bit for bit the one built by the
earlier per-sample stack, kept below as the reference implementation."""

import numpy as np
import pytest

from vortexlab import diagnostics, fields, pipeline, tracers
from vortexlab.pipeline import RunConfig
from vortexlab.tracers import diagnostics_series


def reference_tracer_fields(grid, u, theta, p, positions):
    """Point samples of the velocity gradient, pressure Hessian and carrier
    at the tracer positions from one stack of spectra; returns (vec, mat,
    hess) with shapes (points, d) and (points, d, d)."""
    d = grid.dim
    uh = u.spectral
    ph = p.spectral
    k = grid.wavenumbers

    stack = []
    for i in range(d):
        for j in range(d):
            stack.append(1j * k[i] * uh[j])  # d_i u_j
    hess_index = len(stack)
    for i in range(d):
        for j in range(i, d):
            stack.append(-(k[i] * k[j]) * ph)
    carrier_index = len(stack)
    if d == 2:
        th = theta.spectral
        stack.append(-1j * k[1] * th)
        stack.append(1j * k[0] * th)

    sampler = tracers.SpectralSampler(grid, positions)
    sampled = sampler.sample(np.stack(stack))

    npts = positions.shape[0]
    grad_u = np.empty((npts, d, d))
    idx = 0
    for i in range(d):
        for j in range(d):
            grad_u[:, i, j] = sampled[idx]
            idx += 1
    hess = np.empty((npts, d, d))
    idx = hess_index
    for i in range(d):
        for j in range(i, d):
            hess[:, i, j] = sampled[idx]
            hess[:, j, i] = sampled[idx]
            idx += 1
    if d == 3:
        mat = (grad_u + np.swapaxes(grad_u, 1, 2)) * 0.5  # strain
        W = grad_u - mat  # rotation
        vec = np.stack([W[:, 1, 2] - W[:, 2, 1], W[:, 2, 0] - W[:, 0, 2], W[:, 0, 1] - W[:, 1, 0]], axis=-1)
    else:
        vec = np.stack([sampled[carrier_index], sampled[carrier_index + 1]], axis=-1)
        mat = np.swapaxes(grad_u, 1, 2)  # Jacobian orientation
    return vec, mat, hess


# the quantities the tracer residuals, bounds and CSV columns read
SERIES_KEYS = (
    "vec", "vec_mag", "stretch_vec", "stretch_vec_mag", "hess_vec", "alpha", "rho", "align",
    "stretch_balance", "p_xi_mag", "rate_xi_mag", "rate_zeta_mag", "active", "stretch_active",
)


def _record(monkeypatch):
    """Record every pressure solve (u, theta, p) and every series call
    ((vec, mat, hess, eps), series) that `pipeline.run` makes."""
    solves, series_calls = [], []
    solve_pressure = pipeline.solve_pressure

    def recording_solve(u, theta=None, **kwargs):
        p = solve_pressure(u, theta, **kwargs)
        solves.append((u, theta, p))
        return p

    def recording_series(vec, mat, hess, eps):
        out = diagnostics_series(vec, mat, hess, eps)
        series_calls.append(((vec, mat, hess, eps), out))
        return out

    monkeypatch.setattr(pipeline, "solve_pressure", recording_solve)
    monkeypatch.setattr(tracers, "diagnostics_series", recording_series)
    return solves, series_calls


def _sample_solves(config: RunConfig, solves: list) -> list:
    """The solves of the sampled steps, told apart from snapshot-only ones."""
    kinds = []
    for step in range(config.n_steps + 1):
        if step % config.sample_every == 0:
            kinds.append("sample")
        elif step == config.n_steps or (config.snapshot_every and step % config.snapshot_every == 0):
            kinds.append("snapshot")
    assert len(kinds) == len(solves)
    return [solve for solve, kind in zip(solves, kinds) if kind == "sample"]


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(
            system="euler3d", n=16, dt=0.01, t_end=0.05, initial="taylor-green-3d",
            seed=3, tracer_count=5,
        ),
        RunConfig(
            system="boussinesq2d", n=32, dt=0.01, t_end=0.08, initial="boussinesq-bubble",
            seed=3, tracer_count=4, sample_every=2, snapshot_every=1, snapshot_diagnostics=True,
        ),
    ],
    ids=["3d", "2d"],
)
def test_series_is_bit_for_bit_the_reference(config, tmp_path, monkeypatch):
    solves, series_calls = _record(monkeypatch)
    result = pipeline.run(config, output_dir=tmp_path / "out")
    (inputs, series), = series_calls
    grid = config.grid()
    per_sample = []
    for index, (u, theta, p) in enumerate(_sample_solves(config, solves)):
        positions = np.stack([result.tracer_columns[f"x{axis + 1}"][index] for axis in range(grid.dim)], axis=-1)
        per_sample.append(reference_tracer_fields(grid, u, theta, p, positions))
    # the reference's layout: in 2D its mat is a transposed view, which np.stack keeps
    expected_inputs = [np.stack(arrays) for arrays in zip(*per_sample)]
    for given, expected in zip(inputs[:3], expected_inputs):
        assert given.shape == expected.shape and given.flags.c_contiguous
        assert given.tobytes() == np.ascontiguousarray(expected).tobytes()
    expected_series = diagnostics_series(*expected_inputs, inputs[3])
    for key in SERIES_KEYS:
        assert getattr(series, key).tobytes() == getattr(expected_series, key).tobytes(), key


@pytest.mark.parametrize(
    "config, nodes",
    [
        (
            RunConfig(system="euler3d", n=16, dt=0.01, t_end=0.01, initial="random-band-limited", seed=7),
            [(1, 2, 3), (5, 0, 7), (8, 8, 8), (15, 3, 11), (4, 12, 2)],
        ),
        (
            RunConfig(
                system="boussinesq2d", n=32, dt=0.01, t_end=0.01, initial="random-band-limited", seed=7
            ),
            [(3, 5), (16, 16), (20, 7), (31, 0), (12, 18)],
        ),
    ],
    ids=["3d", "2d"],
)
def test_tracers_on_grid_nodes_read_the_grid_diagnostics(config, nodes, monkeypatch):
    # a generic field, so that a row swapped in sign or orientation shows
    grid = config.grid()
    config.tracer_points = np.array([[grid.axis_coords[i] for i in node] for node in nodes])
    config.tracer_count = len(nodes)
    _, series_calls = _record(monkeypatch)
    grid_diagnostics = []
    diag_field = pipeline.diag_field

    def recording_diag_field(*args, **kwargs):
        grid_diagnostics.append(diag_field(*args, **kwargs))
        return grid_diagnostics[-1]

    monkeypatch.setattr(pipeline, "diag_field", recording_diag_field)
    pipeline.run(config)
    (inputs, _), = series_calls
    q = grid_diagnostics[0]  # the step-0 sample, with the tracers still on their nodes
    for on_grid, at_tracers in zip((q.vec, q.mat, q.hess), inputs[:3]):
        scale = float(np.max(np.abs(on_grid)))
        assert scale > 0
        for p, node in enumerate(nodes):
            np.testing.assert_allclose(at_tracers[0, p], on_grid[node], rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "settings, builds",
    [
        (dict(system="euler3d", n=16, initial="taylor-green-3d"), 3),
        (dict(system="boussinesq2d", n=32, initial="boussinesq-bubble"), 5),
    ],
    ids=["3d", "2d"],
)
@pytest.mark.parametrize("tracer_count", [0, 3])
def test_each_sample_builds_each_derivative_spectrum_once(monkeypatch, settings, builds, tracer_count):
    # grad u (d rows), the 2D carrier (2 rows) and the buoyancy term of the
    # 2D pressure (1 row) take one _derivative_coeffs call per row; the
    # tracers sample the rows the grid path builds, so they add none
    calls = 0
    original = fields._derivative_coeffs

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(fields, "_derivative_coeffs", counted)
    # the Hessian is built once per sample, with a callback when tracked
    hessian_sampled = []
    original_hessian = fields.hessian

    def hessian(p, on_stack=None):
        hessian_sampled.append(on_stack is not None)
        return original_hessian(p, on_stack)

    monkeypatch.setattr(diagnostics, "hessian", hessian)
    config = RunConfig(dt=0.01, t_end=0.02, tracer_count=tracer_count, **settings)
    result = pipeline.run(config)
    samples = len(result.times)
    assert samples == 3
    assert calls == builds * samples
    assert hessian_sampled == [tracer_count > 0] * samples
