import numpy as np
import pytest

from pdeltaflow.certifier import (
    CertifierError,
    check_smallness,
    compute_constants,
    compute_s,
    conjugate,
    polynomial_positivity_check,
    scaling_sweep,
    weight_optimality_scan,
    weight_split_max_g3,
    weighted_shear_norm,
)

from conftest import gradient_matrices


class TestComputeS:
    def test_first_branch(self):
        assert compute_s(1.9, 3) == 1.9
        assert compute_s(1.8, 2) == 1.8

    def test_second_branch(self):
        # d=3, p=1.6: p* = 24/7, (p*/2)' = 12/5
        assert abs(compute_s(1.6, 3) - 2.4) < 1e-12

    def test_branch_boundary(self):
        # p = 3d/(d+2): both branches agree
        assert abs(compute_s(1.8, 3) - 1.8) < 1e-12
        assert abs(compute_s(1.5, 2) - 1.5) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(CertifierError):
            compute_s(1.1, 3)
        with pytest.raises(CertifierError):
            compute_s(2.3, 2)
        with pytest.raises(CertifierError):
            compute_s(1.5, 4)

    def test_branch_consistency_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            lo = 2.0 * d / (d + 2.0)
            p = float(rng.uniform(lo + 1e-6, 2.0 - 1e-9))
            s = compute_s(p, d)
            pstar = p * d / (d - p)
            assert abs(s - max(p, conjugate(pstar / 2.0))) < 1e-12 * max(1.0, s)
            assert s >= p


class TestComputeConstants:
    def test_direct_arithmetic(self, pipeline8):
        g1, _, _ = compute_constants(
            pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], 0.0, 1.5, 1.5, 0.0
        )
        assert abs(g1 - pipeline8["chars"].C3 / 1.5) < 1e-14

    def test_zero_data(self, space8, chars18, pipeline8):
        from pdeltaflow.lifting import BoundaryData, lift

        lf0 = lift(BoundaryData(), space8, 1.8, 1.8)
        g1, g2, g3 = compute_constants(chars18, pipeline8["emb"], lf0, 0.0, 1.8, 1.8, 0.0)
        assert g2 == 0.0
        assert g3 == 0.0

    def test_scaling_of_g2(self, pipeline8):
        lf = pipeline8["lift"]
        _, g2a, _ = compute_constants(pipeline8["chars"], pipeline8["emb"], lf, 0.0, 1.8, 1.8, 0.01)
        lf.norms["Dg_s"] *= 2.0
        try:
            _, g2b, _ = compute_constants(pipeline8["chars"], pipeline8["emb"], lf, 0.0, 1.8, 1.8, 0.01)
        finally:
            lf.norms["Dg_s"] /= 2.0
        first_a = pipeline8["emb"].sob_p_to_pstar * pipeline8["emb"].korn_p ** 2 * lf.norms["Dg_s"]
        assert abs((g2b - g2a) - first_a) < 1e-12 * max(1.0, g2a)

    def test_missing_provenance(self, pipeline8):
        with pytest.raises(CertifierError):
            compute_constants(None, pipeline8["emb"], pipeline8["lift"], 0.0, 1.8, 1.8, 0.0)
        with pytest.raises(CertifierError):
            compute_constants(pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], None, 1.8, 1.8, 0.0)


class TestSmallness:
    def test_zero_data_satisfied_with_zero_radius(self):
        rep = check_smallness(1.0, 0.0, 0.0, 1.5)
        assert rep.satisfied and rep.R == 0.0

    def test_closed_form_radius(self):
        rep = check_smallness(1.0, 1e-9, 2.0, 1.5)
        assert rep.satisfied
        assert abs(rep.R - 16.0) < 1e-9

    def test_violated_instance(self):
        rep = check_smallness(1.0, 1.0, 1.0, 1.5)
        assert abs(rep.lhs - 0.5) < 1e-12
        assert abs(rep.rhs - 1.0) < 1e-12
        assert not rep.satisfied and rep.R is None

    def test_tie_counts_as_satisfied(self):
        p = 1.5
        lhs = (2 - p) ** (2 - p) * (p - 1) ** (p - 1) * 1.0
        g3 = 1.3
        g2 = (lhs / g3 ** (2 - p)) ** (1 / (p - 1))
        rep = check_smallness(1.0, g2, g3, p)
        assert rep.satisfied

    def test_validation(self):
        with pytest.raises(CertifierError):
            check_smallness(1.0, 1.0, 1.0, 2.0)
        with pytest.raises(CertifierError):
            check_smallness(0.0, 1.0, 1.0, 1.5)

    def test_radius_formula_consistency_random(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 1000:
            p = float(rng.uniform(1.05, 1.95))
            g1 = float(10 ** rng.uniform(-2, 2))
            g2 = float(10 ** rng.uniform(-2, 2))
            lhs = (2 - p) ** (2 - p) * (p - 1) ** (p - 1) * g1
            g3 = (lhs / g2 ** (p - 1)) ** (1 / (2 - p)) * float(rng.uniform(0.05, 1.0))
            rep = check_smallness(g1, g2, g3, p)
            assert rep.satisfied
            assert abs((2 - p) * g1 * rep.R ** (p - 1) - g3) <= 1e-10 * max(g3, 1e-300)
            val = polynomial_positivity_check(g1, g2, g3, p, rep.R)
            assert val >= -1e-10 * g1 * rep.R**p
            checked += 1


class TestPolynomialPositivity:
    def test_zero_radius(self):
        assert polynomial_positivity_check(1.0, 1.0, 1.0, 1.5, 0.0) == 0.0

    def test_weight_split_optimum(self):
        for p, g1, g2 in ((1.5, 1.0, 0.7), (1.8, 2.0, 0.3), (1.2, 0.5, 1.1)):
            scan = weight_optimality_scan(g1, g2, p)
            assert abs(scan["best_theta"] - (p - 1.0)) <= 1.0001e-3

    def test_split_weights_feasible(self):
        # any feasible G3 under split weights admits a nonnegative polynomial
        p, g1, g2 = 1.6, 1.0, 0.4
        for theta in (0.3, p - 1.0, 0.8):
            g3 = weight_split_max_g3(g1, g2, p, theta)
            r_b = (g3 / ((1 - theta) * g1)) ** (1.0 / (p - 1.0))
            assert polynomial_positivity_check(g1, g2, g3, p, r_b) >= -1e-10 * g1 * r_b**p

    def test_split_validation(self):
        with pytest.raises(CertifierError):
            weight_split_max_g3(1.0, 1.0, 1.5, 0.0)


class TestScalingSweep:
    def test_single_transition(self, pipeline8):
        sweep = scaling_sweep(
            pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], 0.0,
            1.8, 1.8, 0.01, np.logspace(-1, 3, 41),
        )
        assert sweep["transitions"] == 1
        sats = [r["satisfied"] for r in sweep["rows"]]
        assert sats[0] and not sats[-1]

    def test_unit_lambda_is_the_certificate(self, pipeline8):
        args = (pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], 0.3, 1.8, 1.8, 0.01)
        row = scaling_sweep(*args, [1.0])["rows"][0]
        rep = check_smallness(*compute_constants(*args), 1.8, s=1.8)
        for key in ("G1", "G2", "G3", "lhs", "rhs", "R"):
            assert abs(row[key] - getattr(rep, key)) <= 1e-12 * abs(getattr(rep, key))
        assert row["satisfied"] == rep.satisfied

    def test_monotone_constants(self, pipeline8):
        sweep = scaling_sweep(
            pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], 0.0,
            1.8, 1.8, 0.01, np.logspace(-1, 2, 16),
        )
        g2s = [r["G2"] for r in sweep["rows"]]
        g3s = [r["G3"] for r in sweep["rows"]]
        assert all(a <= b for a, b in zip(g2s[:-1], g2s[1:]))
        assert all(a <= b for a, b in zip(g3s[:-1], g3s[1:]))


def test_weighted_shear_norm_matches_direct(pipeline8):
    lf = pipeline8["lift"]
    space = lf.g.space
    val = weighted_shear_norm(lf, 1.8, 0.3)
    g = gradient_matrices(space.velocity_gradients(lf.g.coeffs))
    d = 0.5 * (g + np.swapaxes(g, -1, -2))
    ref = space.integrate((np.sqrt(np.sum(d**2, axis=(-1, -2))) + 0.3) ** 1.8) ** (1 / 1.8)
    assert abs(val - ref) < 1e-14
