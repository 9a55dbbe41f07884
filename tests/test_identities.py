import numpy as np
import pytest

from vortexlab.diagnostics import direction_quantities
from vortexlab.identities import (
    IDENTITY_TOL,
    SLAB,
    check_inequalities,
    check_orthogonal_decompositions,
    check_strain_pythagoras,
    check_three_term,
    check_vorticity_pythagoras,
    make_samples,
    run_identity_suite,
)

TOL = 1e-10


def single(S, P, v):
    """The kernel at eps = 0 of one sample (S, P, v), with a batch axis."""
    return direction_quantities(np.asarray(v)[None], np.asarray(S)[None], np.asarray(P)[None], 0.0)


class TestVorticityPythagoras:
    def test_worked_example(self):
        # S = diag(2,-1,-1), v = (1,1,0): 0.5 + 4.5 = 5 = |S v|^2
        s = single(np.diag([2.0, -1.0, -1.0]), np.zeros((3, 3)), [1.0, 1.0, 0.0])
        assert s.rate_vec_mag[0] ** 2 == pytest.approx(0.5)
        assert (s.rate_xi_mag[0] * s.vec_mag[0]) ** 2 == pytest.approx(4.5)
        assert s.stretch_vec_mag[0] ** 2 == pytest.approx(5.0)
        assert check_vorticity_pythagoras(s)[0] <= 1e-14

    def test_eigenvector_case(self):
        s = single(np.diag([2.0, -1.0, -1.0]), np.zeros((3, 3)), [3.0, 0.0, 0.0])
        assert s.rate_xi_mag[0] <= 1e-15
        assert s.rate_vec_mag[0] ** 2 == pytest.approx(s.stretch_vec_mag[0] ** 2)
        assert check_vorticity_pythagoras(s)[0] <= 1e-14

    def test_random_batch(self):
        s = make_samples(100_000, 3, seed=10)
        res = check_vorticity_pythagoras(s)
        assert np.nanmax(res) <= TOL


class TestStrainPythagoras:
    def test_zero_hessian(self):
        s = single(np.diag([2.0, -1.0, -1.0]), np.zeros((3, 3)), [1.0, 1.0, 0.0])
        assert s.rate_stretch_mag[0] == 0.0
        assert s.rate_zeta_mag[0] == 0.0
        assert check_strain_pythagoras(s)[0] <= 1e-14

    def test_identity_hessian_decomposition(self):
        s = single(np.diag([2.0, -1.0, -1.0]), np.eye(3) + 0.0, [1.0, 1.0, 0.0])
        # P xi = xi splits along zeta and the zeta rate
        recomposed = s.align[0] * s.zeta[0] - s.unit_stretch_mag[0] * s.rate_zeta[0]
        assert np.allclose(recomposed, s.xi[0], atol=1e-14)
        assert check_strain_pythagoras(s)[0] <= 1e-14

    def test_random_batch(self):
        s = make_samples(100_000, 3, seed=11)
        assert np.nanmax(check_strain_pythagoras(s)) <= TOL


class TestThreeTerm:
    def test_zero_hessian(self):
        s = single(np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)), [0.3, 0.4, 0.5])
        assert check_three_term(s)[0] <= 1e-14

    def test_chains_the_two_pythagoras_identities(self):
        s = single(np.diag([2.0, -1.0, -1.0]), np.diag([1.0, 2.0, -3.0]), [1.0, 1.0, 0.0])
        lhs = (
            s.rate_stretch_mag[0] ** 2
            + (s.rate_zeta_mag[0] * s.rate_vec_mag[0]) ** 2
            + (s.rate_zeta_mag[0] * s.rate_xi_mag[0] * s.vec_mag[0]) ** 2
        )
        assert lhs == pytest.approx(s.hess_vec_mag[0] ** 2, rel=1e-13)
        assert check_three_term(s)[0] <= 1e-13

    def test_random_2d_nonsymmetric(self):
        s = make_samples(100_000, 2, seed=12)
        assert np.max(np.abs(s.mat[:, 0, 1] - s.mat[:, 1, 0])) > 0.1  # genuinely nonsymmetric
        assert np.nanmax(check_three_term(s)) <= TOL


class TestOrthogonalDecompositions:
    def test_isotropic_hessian(self):
        c = 1.7
        s = single(np.diag([2.0, -1.0, -1.0]), c * np.eye(3), [1.0, 1.0, 0.0])
        recomposed = s.align[0] * s.zeta[0] - s.unit_stretch_mag[0] * s.rate_zeta[0]
        assert np.allclose(recomposed, c * s.xi[0], atol=1e-14)

    def test_xi_orthogonality_structural(self):
        s = make_samples(10_000, 3, seed=13)
        dots = np.einsum("mi,mi->m", s.xi, s.rate_xi)
        assert np.max(np.abs(dots)) <= 1e-12 * max(np.max(s.rate_xi_mag), 1.0)

    def test_random_batches_all_residuals(self):
        for dim, seed in ((3, 14), (2, 15)):
            s = make_samples(100_000, dim, seed=seed)
            for name, res in check_orthogonal_decompositions(s).items():
                assert np.nanmax(res) <= TOL, name


class TestInequalities:
    def test_eigenvector_degenerates_to_scalar_bound(self):
        s = single(np.diag([2.0, -1.0, -1.0]), np.zeros((3, 3)), [1.0, 0.0, 0.0])
        out = check_inequalities(s)
        lhs = s.rate_vec_mag[0]
        rhs = np.sqrt(2.0) * s.stretch_vec_mag[0]
        assert lhs <= rhs
        assert out["two_term_vec"]["slack"][0] >= 0.0

    def test_no_violations_random(self):
        for dim, seed in ((3, 16), (2, 17)):
            s = make_samples(100_000, dim, seed=seed)
            for name, data in check_inequalities(s).items():
                assert np.nanmin(data["slack"]) >= -1e-12, name

    def test_adversarial_ratio_below_one(self):
        best = 0.0
        for seed in range(10):
            s = make_samples(10_000, 3, seed=100 + seed)
            for data in check_inequalities(s).values():
                best = max(best, float(np.nanmax(data["ratio"])))
        assert best <= 1.0 + 1e-12
        assert best > 0.9  # the bound is approached


class TestScalingInvariance:
    @pytest.mark.parametrize("dim", [3, 2])
    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e-8, 1e80, 1e-120])
    def test_residuals_scale_free(self, scale, dim):
        # each sample is divided by its own magnitude, so no square over- or
        # underflows and no absolute floor turns a check into a vacuous pass
        # (the inequality ratios once read 0.18-0.34 at 1e-8 and 0 at 1e-120)
        ref = run_identity_suite(20_000, dim, seed=18)
        rep = run_identity_suite(20_000, dim, seed=18, scale=scale)
        assert rep.passed
        assert max(rep.residual_max.values()) <= TOL, rep.residual_max
        assert rep.skipped == ref.skipped
        for name, ratio in ref.inequality_max_ratio.items():
            assert rep.inequality_max_ratio[name] == pytest.approx(ratio, abs=1e-10), name


class TestSuite:
    def test_passes_both_dims(self):
        for dim in (2, 3):
            rep = run_identity_suite(50_000, dim, seed=19)
            assert rep.passed
            assert rep.count == 50_000
            assert set(rep.residual_max) >= {"vorticity_pythagoras", "strain_pythagoras", "three_term"}

    def test_degenerate_zero_vector_skipped(self):
        s = single(np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)), np.zeros(3))
        rep = run_identity_suite(1, 3, seed=0, samples=s)
        assert rep.passed
        assert rep.skipped["vorticity_pythagoras"] == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflow_fails_instead_of_skipping(self, dim):
        # |v| near 1e150 and |S v|, |P v| near 1e310: the kernel's |S v| and
        # |P v| overflow to inf, every sample is valid, and the residuals
        # that cannot be evaluated read inf
        base = make_samples(2000, dim, 0)
        samples = direction_quantities(base.vec * 1e150, base.mat * 1e160, base.hess * 1e160, 0.0)
        rep = run_identity_suite(0, dim, seed=0, samples=samples)
        assert not rep.passed
        for name in ("vorticity_pythagoras", "strain_pythagoras", "three_term"):
            assert rep.residual_max[name] == np.inf, name
            assert rep.skipped[name] == 0, name
        assert rep.worst["residual"] == np.inf

    def test_failure_reports_worst_sample(self):
        rep = run_identity_suite(100, 3, seed=20, tolerance=0.0)
        assert not rep.passed
        assert "S" in rep.worst and "v" in rep.worst


def whole_batch_report(s, seed, scale, tolerance):
    """The report fields of the five checks run on the whole batch `s`,
    aggregated as `run_identity_suite` did before it read slabs."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        residuals = {
            "vorticity_pythagoras": check_vorticity_pythagoras(s),
            "strain_pythagoras": check_strain_pythagoras(s),
            "three_term": check_three_term(s),
        }
        residuals.update(check_orthogonal_decompositions(s))
        inequalities = check_inequalities(s)
    out = dict(dim=s.vec.shape[-1], count=len(s.vec), seed=seed, scale=scale, tolerance=tolerance,
               inequality_tolerance=1e-12, residual_max={}, inequality_min_slack={},
               inequality_max_ratio={}, skipped={}, passed=False, worst={})
    worst_val, worst_idx, worst_name = -1.0, 0, ""
    for name, res in residuals.items():
        n_skip = int(np.count_nonzero(np.isnan(res)))
        out["skipped"][name] = n_skip
        if n_skip == res.size:
            out["residual_max"][name] = 0.0
            continue
        mx = float(np.nanmax(res))
        out["residual_max"][name] = mx
        if mx > worst_val:
            worst_val, worst_idx, worst_name = mx, int(np.nanargmax(res)), name
    for name, data in inequalities.items():
        slack = data["slack"]
        ok = ~np.isnan(slack)
        out["inequality_min_slack"][name] = float(np.min(slack[ok])) if np.any(ok) else 0.0
        out["inequality_max_ratio"][name] = float(np.nanmax(data["ratio"])) if np.any(ok) else 0.0
    out["passed"] = all(v <= tolerance for v in out["residual_max"].values()) and all(
        v >= -1e-12 for v in out["inequality_min_slack"].values()
    )
    if not out["passed"]:
        out["worst"] = {
            "check": worst_name,
            "residual": worst_val,
            "S": s.mat[worst_idx].tolist(),
            "P": s.hess[worst_idx].tolist(),
            "v": s.vec[worst_idx].tolist(),
        }
    return out


def suite_fields(rep):
    """Every report field but elapsed_seconds, `worst` included."""
    out = rep.to_dict()
    del out["elapsed_seconds"]
    out["worst"] = rep.worst
    return out


class TestSlabs:
    """The suite reads its batch in slabs of SLAB samples; its report must
    be that of the checks run on the whole batch, bit for bit (repr tells
    -0.0 from 0.0 and keeps the key order)."""

    @pytest.mark.parametrize("tolerance", [IDENTITY_TOL, 0.0])
    @pytest.mark.parametrize("scale", [1.0, 1e80, 1e-120, 1e154])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("count", [2 * SLAB + 7, 1])
    def test_report_equals_the_whole_batch(self, count, dim, scale, tolerance):
        rep = run_identity_suite(count, dim, seed=0, scale=scale, tolerance=tolerance)
        ref = whole_batch_report(make_samples(count, dim, 0, scale), 0, scale, tolerance)
        assert repr(suite_fields(rep)) == repr(ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_skips_and_worst_sample_in_later_slabs(self, dim):
        # zero carriers (skipped) in the second and third slab, and one sample
        # whose |S v| and |P v| overflow (residual inf, the worst) in the third
        base = make_samples(2 * SLAB + 7, dim, 0)
        S, P, v = base.mat.copy(), base.hess.copy(), base.vec.copy()
        v[[SLAB + 1, 2 * SLAB + 5]] = 0.0
        k = 2 * SLAB + 3
        S[k], P[k], v[k] = S[k] * 1e160, P[k] * 1e160, v[k] * 1e150
        rep = run_identity_suite(0, dim, seed=0, samples=direction_quantities(v, S, P, 0.0))
        ref = whole_batch_report(direction_quantities(v, S, P, 0.0), 0, 1.0, IDENTITY_TOL)
        assert repr(suite_fields(rep)) == repr(ref)
        assert rep.skipped["vorticity_pythagoras"] == 2
        assert rep.worst["v"] == v[k].tolist()
