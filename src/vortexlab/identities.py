"""Randomized algebraic verification of the direction-field identities.

Every check here is pure matrix/vector algebra on a sample (S, P, v): no PDE
solve is involved. Every quantity a check reads comes from the production
kernel `diagnostics.direction_quantities` at eps = 0, the same code that
feeds the grid diagnostics and the tracer series, so the suite certifies
what writes `report.json`. The material-derivative proxies are

    rate of |v|        := alpha |v|
    rate of direction  := S xi - alpha xi
    rate of |S v|      := -(zeta . P xi) |v|
    rate of zeta       := (-P xi + (zeta . P xi) zeta) / |S xi|

and the checks confirm the Pythagoras-type identities, the orthogonal
decomposition of P xi, and the sqrt(2)/sqrt(3) differential inequalities
these proxies satisfy. In 2D the matrix is a full (nonsymmetric) velocity
Jacobian; in 3D it is a symmetric strain. Either way the trace is zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import direction_quantities
from .storage import fields_to_json

RESIDUAL_FLOOR = 1e-14
IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-12


def _norm(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x, axis=-1)


class AlgebraicSample:
    """Batch of (matrix, Hessian, carrier vector) samples.

    S has shape (m, d, d) and zero trace, P is symmetric (m, d, d), v is
    (m, d). `q` holds the derived quantities, arrays of shape (m,) or (m, d),
    from the direction kernel at eps = 0.
    """

    def __init__(self, S: np.ndarray, P: np.ndarray, v: np.ndarray):
        S = np.atleast_3d(np.asarray(S, dtype=float))
        P = np.atleast_3d(np.asarray(P, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        m, d = v.shape
        if S.shape != (m, d, d) or P.shape != (m, d, d):
            raise ValueError("shape mismatch between S, P, v")
        scale = np.maximum(np.abs(S).max(axis=(1, 2)), 1.0)
        if np.any(np.abs(np.trace(S, axis1=1, axis2=2)) > 1e-12 * scale):
            raise ValueError("S must be trace-free")
        if np.max(np.abs(P - np.swapaxes(P, 1, 2))) > 1e-12 * max(np.abs(P).max(), 1.0):
            raise ValueError("P must be symmetric")
        self.S, self.P, self.v = S, P, v
        self.q = direction_quantities(v, S, P, 0.0)

    @property
    def size(self) -> int:
        return self.v.shape[0]

    @property
    def dim(self) -> int:
        return self.v.shape[1]


def make_samples(count: int, dim: int, seed: int, scale: float = 1.0) -> AlgebraicSample:
    """Seeded random batch: symmetric trace-free S in 3D, full trace-free matrix in 2D."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, dim, dim))
    if dim == 3:
        S = a + np.swapaxes(a, 1, 2)
    else:
        S = a.copy()
    tr = np.trace(S, axis1=1, axis2=2) / dim
    S -= tr[:, None, None] * np.eye(dim)
    b = rng.standard_normal((count, dim, dim))
    P = b + np.swapaxes(b, 1, 2)
    v = rng.standard_normal((count, dim))
    return AlgebraicSample(S=S * scale, P=P * scale, v=v * scale)


def _relative(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(err) / np.maximum(ref, RESIDUAL_FLOOR)


def _masked(
    values: np.ndarray, valid: np.ndarray, bad: float = np.inf, failed: np.ndarray | None = None
) -> np.ndarray:
    """values where the sample is valid, nan (skipped) where it is not. A
    valid sample whose value is not finite, or is marked `failed`, reads
    `bad`, so that it fails the check rather than counting as skipped."""
    out = np.where(valid, values, np.nan)
    unusable = ~np.isfinite(values)
    if failed is not None:
        unusable |= failed
    out[valid & unusable] = bad
    return out


def _pythagoras(lhs: np.ndarray, mag: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Relative residual of lhs = mag^2, masked as `_masked` does. Where
    mag > 0 but mag^2 underflows below the normal range, the residual
    cannot be evaluated and reads inf."""
    ref = mag**2
    res = _relative(lhs - ref, ref)
    return _masked(res, valid, failed=(ref < np.finfo(float).tiny) & (mag > 0))


def check_vorticity_pythagoras(s: AlgebraicSample) -> np.ndarray:
    """Residual of (rate |v|)^2 + |rate xi|^2 |v|^2 = |S v|^2; nan where
    skipped, inf where it overflows or underflows."""
    q = s.q
    lhs = q.rate_vec_mag**2 + (q.rate_xi_mag * q.vec_mag) ** 2
    return _pythagoras(lhs, q.stretch_vec_mag, q.stretch_active)


def check_strain_pythagoras(s: AlgebraicSample) -> np.ndarray:
    """Residual of (rate |S v|)^2 + |rate zeta|^2 |S v|^2 = |P v|^2."""
    q = s.q
    lhs = q.rate_stretch_mag**2 + (q.rate_zeta_mag * q.stretch_vec_mag) ** 2
    return _pythagoras(lhs, q.hess_vec_mag, q.stretch_active)


def check_three_term(s: AlgebraicSample) -> np.ndarray:
    """Residual of the three-term splitting of |P v|^2."""
    q = s.q
    lhs = (
        q.rate_stretch_mag**2
        + (q.rate_zeta_mag * q.rate_vec_mag) ** 2
        + (q.rate_zeta_mag * q.rate_xi_mag * q.vec_mag) ** 2
    )
    return _pythagoras(lhs, q.hess_vec_mag, q.stretch_active)


CONDITIONING_GUARD = 1e-4


def check_orthogonal_decompositions(s: AlgebraicSample) -> dict[str, np.ndarray]:
    """Residuals of the orthogonal splitting of P xi and the orthogonality of
    the direction rates; nan where the relevant denominator degenerates,
    inf where a valid sample's residual is not finite.

    Checks that divide by a rate magnitude skip samples where that magnitude
    is tiny against the cancellation scale of its own computation; otherwise
    pure roundoff would masquerade as an identity violation.
    """
    q = s.q
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


def check_inequalities(s: AlgebraicSample) -> dict[str, dict[str, np.ndarray]]:
    """Normalized slack and LHS/RHS ratio of the sqrt(2)/sqrt(3) inequalities;
    nan where skipped, and a failing -inf slack and inf ratio where a valid
    sample's value is not finite."""
    q = s.q
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
        slack = (rhs - lhs) / np.maximum(rhs, RESIDUAL_FLOOR)
        ratio = lhs / np.maximum(rhs, RESIDUAL_FLOOR)
        out[name] = {
            "slack": _masked(slack, q.stretch_active, -np.inf),
            "ratio": _masked(ratio, q.stretch_active),
        }
    return out


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
    inequality_tolerance: float = INEQUALITY_TOL,
    samples: AlgebraicSample | None = None,
) -> IdentitySuiteReport:
    """Run every identity and inequality check over one seeded random batch."""
    t0 = time.perf_counter()
    s = samples if samples is not None else make_samples(count, dim, seed, scale)
    report = IdentitySuiteReport(
        dim=s.dim,
        count=s.size,
        seed=seed,
        scale=scale,
        tolerance=tolerance,
        inequality_tolerance=inequality_tolerance,
    )

    # a residual that overflows or underflows reads inf and fails its check
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        residuals = {
            "vorticity_pythagoras": check_vorticity_pythagoras(s),
            "strain_pythagoras": check_strain_pythagoras(s),
            "three_term": check_three_term(s),
        }
        residuals.update(check_orthogonal_decompositions(s))
        inequalities = check_inequalities(s)

    worst_val, worst_idx, worst_name = -1.0, 0, ""
    for name, res in residuals.items():
        n_skip = int(np.count_nonzero(np.isnan(res)))
        report.skipped[name] = n_skip
        if n_skip == res.size:
            report.residual_max[name] = 0.0
            continue
        mx = float(np.nanmax(res))
        report.residual_max[name] = mx
        if mx > worst_val:
            worst_val, worst_idx, worst_name = mx, int(np.nanargmax(res)), name

    for name, data in inequalities.items():
        slack = data["slack"]
        ok = ~np.isnan(slack)
        report.inequality_min_slack[name] = float(np.min(slack[ok])) if np.any(ok) else 0.0
        report.inequality_max_ratio[name] = float(np.nanmax(data["ratio"])) if np.any(ok) else 0.0

    report.passed = all(v <= tolerance for v in report.residual_max.values()) and all(
        v >= -inequality_tolerance for v in report.inequality_min_slack.values()
    )
    if not report.passed:
        report.worst = {
            "check": worst_name,
            "residual": worst_val,
            "S": s.S[worst_idx].tolist(),
            "P": s.P[worst_idx].tolist(),
            "v": s.v[worst_idx].tolist(),
        }
    report.elapsed_seconds = time.perf_counter() - t0
    return report


__all__ = [
    "AlgebraicSample",
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
