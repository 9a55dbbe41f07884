"""Randomized algebraic verification of the direction-field identities.

Every check here is pure matrix/vector algebra on a sample (S, P, v): no PDE
solve is involved. A check takes the production kernel
`diagnostics.direction_quantities` at eps = 0 of a batch, with v as vec, S
as mat and P as hess. That is the code that feeds the grid diagnostics and
the tracer series, so the suite certifies what writes `report.json`. The
material-derivative proxies are

    rate of |v|        := alpha |v|
    rate of direction  := S xi - alpha xi
    rate of |S v|      := -(zeta . P xi) |v|
    rate of zeta       := (-P xi + (zeta . P xi) zeta) / |S xi|

and the checks confirm the Pythagoras-type identities, the orthogonal
decomposition of P xi, and the sqrt(2)/sqrt(3) differential inequalities
these proxies satisfy. In 2D the matrix is a full (nonsymmetric) velocity
Jacobian; in 3D it is a symmetric strain. Either way the trace is zero.
Every residual, slack and ratio is relative to the sample's own magnitude,
with no absolute floor, and the Pythagoras terms are divided by it before
they are squared; so the suite reads the same at any scale at which the
kernel's magnitudes are finite.

`run_identity_suite` evaluates the kernel and the checks slab by slab, SLAB
samples at a time (`DirectionQuantities.slabs`), so that it holds one slab's
quantities and residuals at a time. Each residual is elementwise in the
sample, so a slab's values equal the whole batch's at the same samples bit
for bit, and the report (maxima, skip counts, the worst sample, min slack,
max ratio) equals that of the checks run on the whole batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DirectionQuantities, _norm, direction_quantities
from .storage import fields_to_json

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-12
SLAB = 16384  # samples per slab of run_identity_suite


def _trace(S: np.ndarray) -> np.ndarray:
    """The traces of a batch of (d, d) matrices, summed in diagonal order,
    bit for bit `np.trace(S, axis1=1, axis2=2)`."""
    tr = S[:, 0, 0].copy()
    for i in range(1, S.shape[-1]):
        tr += S[:, i, i]
    return tr


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """a + a^T of a batch of (d, d) matrices, in place, pair by pair."""
    for i, j in zip(*np.triu_indices(a.shape[-1])):
        a[:, i, j] += a[:, j, i]
        if i != j:
            a[:, j, i] = a[:, i, j]
    return a


def make_samples(count: int, dim: int, seed: int, scale: float = 1.0) -> DirectionQuantities:
    """The direction kernel at eps = 0 of a seeded random batch: v of shape
    (count, dim) as vec, a trace-free S as mat (symmetric in 3D, a full
    matrix in 2D) and a symmetric P as hess."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((count, dim, dim))
    if dim == 3:
        _symmetrize(S)
    tr = _trace(S) / dim
    for i in range(dim):
        S[:, i, i] -= tr
    P = _symmetrize(rng.standard_normal((count, dim, dim)))
    v = rng.standard_normal((count, dim))
    if scale != 1.0:  # x * 1.0 is x
        for x in (S, P, v):
            x *= scale
    return direction_quantities(v, S, P, 0.0)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den with no warning: a zero den gives 0 for a zero num (a
    zero term of a zero magnitude) and a signed inf for any other."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out[(num == 0) & (den == 0)] = 0.0
    return out


def _relative(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return _ratio(np.abs(err), ref)


def _masked(values: np.ndarray, valid: np.ndarray, bad: float = np.inf) -> np.ndarray:
    """values where the sample is valid, nan (skipped) where it is not. A
    valid sample whose value is not finite reads `bad`, so that it fails
    the check rather than counting as skipped."""
    out = np.where(valid, values, np.nan)
    out[valid & ~np.isfinite(values)] = bad
    return out


def _pythagoras(terms: tuple, mag: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Relative residual of sum(t^2 for t in terms) = mag^2, masked as
    `_masked` does. Each sample's terms and mag are divided by its own mag
    before they are squared, so that no square overflows or underflows
    while the kernel's magnitudes are finite; a mag that is not finite
    makes the residual NaN, which a valid sample reads as inf."""
    lhs = sum(_ratio(t, mag) ** 2 for t in terms)
    # (mag / mag)^2 is mag / mag: 1, or 0 for a zero mag
    return _masked(np.abs(lhs - _ratio(mag, mag)), valid)


def check_vorticity_pythagoras(q: DirectionQuantities) -> np.ndarray:
    """Residual of (rate |v|)^2 + |rate xi|^2 |v|^2 = |S v|^2; nan where
    skipped, inf where it cannot be evaluated."""
    return _pythagoras((q.rate_vec_mag, q.rate_xi_mag * q.vec_mag), q.stretch_vec_mag, q.stretch_active)


def check_strain_pythagoras(q: DirectionQuantities) -> np.ndarray:
    """Residual of (rate |S v|)^2 + |rate zeta|^2 |S v|^2 = |P v|^2."""
    return _pythagoras((q.rate_stretch_mag, q.rate_zeta_mag * q.stretch_vec_mag), q.hess_vec_mag, q.stretch_active)


def check_three_term(q: DirectionQuantities) -> np.ndarray:
    """Residual of the three-term splitting of |P v|^2."""
    terms = (
        q.rate_stretch_mag,
        q.rate_zeta_mag * q.rate_vec_mag,
        q.rate_zeta_mag * q.rate_xi_mag * q.vec_mag,
    )
    return _pythagoras(terms, q.hess_vec_mag, q.stretch_active)


CONDITIONING_GUARD = 1e-4


def check_orthogonal_decompositions(q: DirectionQuantities) -> dict[str, np.ndarray]:
    """Residuals of the orthogonal splitting of P xi and the orthogonality of
    the direction rates; nan where the relevant denominator degenerates,
    inf where a valid sample's residual is not finite.

    Checks that divide by a rate magnitude skip samples where that magnitude
    is tiny against the cancellation scale of its own computation; otherwise
    pure roundoff would masquerade as an identity violation.
    """
    recomposed = q.align[:, None] * q.zeta - q.unit_stretch_mag[:, None] * q.rate_zeta
    dec = _relative(_norm(q.p_xi - recomposed), q.p_xi_mag)
    dec = _masked(dec, q.stretch_active)

    denom_stretch = np.where(q.stretch_active, q.unit_stretch_mag, 1.0)
    rz_scale = (q.p_xi_mag + np.abs(q.align)) / denom_stretch
    ok_rz = q.stretch_active & (q.rate_zeta_mag > CONDITIONING_GUARD * rz_scale)
    denom_rz = np.where(ok_rz, q.rate_zeta_mag, 1.0)
    coef = np.einsum("mi,mi->m", q.rate_zeta, q.p_xi) / denom_rz**2
    projected = q.align[:, None] * q.zeta + coef[:, None] * q.rate_zeta
    dec_proj = _relative(_norm(q.p_xi - projected), q.p_xi_mag)
    dec_proj = _masked(dec_proj, ok_rz)

    unit_rz = q.rate_zeta / denom_rz[:, None]
    align_rate = np.einsum("mi,mi->m", unit_rz, q.p_xi) + q.unit_stretch_mag * q.rate_zeta_mag
    align_rate = _masked(_relative(align_rate, q.p_xi_mag), ok_rz)

    ok_rx = q.stretch_active & (q.rate_xi_mag > CONDITIONING_GUARD * q.unit_stretch_mag)
    xi_orth = _relative(np.einsum("mi,mi->m", q.xi, q.rate_xi), q.rate_xi_mag)
    xi_orth = _masked(xi_orth, ok_rx)
    zeta_orth = _relative(np.einsum("mi,mi->m", q.zeta, q.rate_zeta), q.rate_zeta_mag)
    zeta_orth = _masked(zeta_orth, ok_rz)

    return {
        "decomposition": dec,
        "decomposition_projected": dec_proj,
        "alignment_rate": align_rate,
        "xi_orthogonality": xi_orth,
        "zeta_orthogonality": zeta_orth,
    }


def check_inequalities(q: DirectionQuantities) -> dict[str, dict[str, np.ndarray]]:
    """Normalized slack and LHS/RHS ratio of the sqrt(2)/sqrt(3) inequalities;
    nan where skipped, and a failing -inf slack and inf ratio where a valid
    sample's value is not finite."""
    lhs1 = q.rate_vec_mag + q.rate_xi_mag * q.vec_mag
    rhs1 = np.sqrt(2.0) * q.stretch_vec_mag
    lhs2 = q.rate_stretch_mag + q.rate_zeta_mag * q.stretch_vec_mag
    rhs2 = np.sqrt(2.0) * q.hess_vec_mag
    lhs3 = q.rate_stretch_mag + q.rate_zeta_mag * q.rate_vec_mag + q.rate_zeta_mag * q.rate_xi_mag * q.vec_mag
    rhs3 = np.sqrt(3.0) * q.hess_vec_mag

    out = {}
    for name, lhs, rhs in (
        ("two_term_vec", lhs1, rhs1),
        ("two_term_stretch", lhs2, rhs2),
        ("three_term_bound", lhs3, rhs3),
    ):
        out[name] = {
            "slack": _masked(_ratio(rhs - lhs, rhs), q.stretch_active, -np.inf),
            "ratio": _masked(_ratio(lhs, rhs), q.stretch_active),
        }
    return out


def _residuals(q: DirectionQuantities) -> dict[str, np.ndarray]:
    """Every identity residual of `q`, by check name."""
    residuals = {
        "vorticity_pythagoras": check_vorticity_pythagoras(q),
        "strain_pythagoras": check_strain_pythagoras(q),
        "three_term": check_three_term(q),
    }
    residuals.update(check_orthogonal_decompositions(q))
    return residuals


@dataclass
class IdentitySuiteReport:
    dim: int
    count: int
    seed: int
    scale: float
    tolerance: float
    inequality_tolerance: float
    residual_max: dict = field(default_factory=dict)
    inequality_min_slack: dict = field(default_factory=dict)
    inequality_max_ratio: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    passed: bool = False
    worst: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but `worst`, which the CLI prints on failure."""
        return fields_to_json(self, exclude=("worst",))


def run_identity_suite(
    count: int,
    dim: int,
    seed: int,
    scale: float = 1.0,
    tolerance: float = IDENTITY_TOL,
    samples: DirectionQuantities | None = None,
) -> IdentitySuiteReport:
    """Run every identity and inequality check over one seeded random batch.

    The batch is `samples` if given, else `make_samples(count, dim, seed,
    scale)`: the kernel at eps = 0 of samples (S, P, v) given as (mat, hess,
    vec), S trace-free and P symmetric. It is read in slabs of SLAB samples
    (`DirectionQuantities.slabs`), one slab's quantities and residuals at a
    time. The slabs' skip counts, residual maxima, min slacks and max ratios
    are combined exactly, so the report equals, bit for bit, that of the
    checks run on the whole batch: the worst sample too, the first with the
    largest residual, found by its index in the batch."""
    t0 = time.perf_counter()
    q = samples if samples is not None else make_samples(count, dim, seed, scale)
    report = IdentitySuiteReport(
        dim=q.vec.shape[-1],
        count=len(q.vec),
        seed=seed,
        scale=scale,
        tolerance=tolerance,
        inequality_tolerance=INEQUALITY_TOL,
    )

    # per name, one entry for each slab with a sample that is not skipped:
    # (max residual, batch index of its first sample) and (min slack, max ratio)
    maxima, extremes = {}, {}
    # a residual that cannot be evaluated reads inf and fails its check
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for sl, part in q.slabs(SLAB):
            for name, res in _residuals(part).items():
                n_skip = int(np.count_nonzero(np.isnan(res)))
                report.skipped[name] = report.skipped.get(name, 0) + n_skip
                entries = maxima.setdefault(name, [])
                if n_skip < res.size:
                    entries.append((float(np.nanmax(res)), sl.start + int(np.nanargmax(res))))
            for name, data in check_inequalities(part).items():
                entries = extremes.setdefault(name, [])
                ok = ~np.isnan(data["slack"])
                if np.any(ok):
                    entries.append((float(np.min(data["slack"][ok])), float(np.nanmax(data["ratio"]))))

    # min and max keep the first of equal entries, as nanargmax does
    worst_val, worst_idx, worst_name = -1.0, 0, ""
    for name, entries in maxima.items():
        if not entries:
            report.residual_max[name] = 0.0
            continue
        mx, idx = max(entries, key=lambda entry: entry[0])
        report.residual_max[name] = mx
        if mx > worst_val:
            worst_val, worst_idx, worst_name = mx, idx, name
    for name, entries in extremes.items():
        report.inequality_min_slack[name] = min((lo for lo, _ in entries), default=0.0)
        report.inequality_max_ratio[name] = max((hi for _, hi in entries), default=0.0)

    report.passed = all(v <= tolerance for v in report.residual_max.values()) and all(
        v >= -INEQUALITY_TOL for v in report.inequality_min_slack.values()
    )
    if not report.passed:
        report.worst = {
            "check": worst_name,
            "residual": worst_val,
            "S": q.mat[worst_idx].tolist(),
            "P": q.hess[worst_idx].tolist(),
            "v": q.vec[worst_idx].tolist(),
        }
    report.elapsed_seconds = time.perf_counter() - t0
    return report


__all__ = [
    "IdentitySuiteReport",
    "IDENTITY_TOL",
    "INEQUALITY_TOL",
    "make_samples",
    "check_vorticity_pythagoras",
    "check_strain_pythagoras",
    "check_three_term",
    "check_orthogonal_decompositions",
    "check_inequalities",
    "run_identity_suite",
]
