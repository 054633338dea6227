import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from pdeltaflow import constitutive
from pdeltaflow.constitutive import (
    Characteristics,
    DegenerateSampleError,
    PDeltaModel,
    estimate_characteristics,
    eval_stress,
    frobenius,
    inequality_sweep,
    random_sym,
    rho_lower_bound,
    shifted_stress,
    symmetrize,
    young_gap,
    young_int,
)


def test_model_validation():
    with pytest.raises(ValueError):
        PDeltaModel(p=0.5)
    with pytest.raises(ValueError):
        PDeltaModel(p=2.5)
    with pytest.raises(ValueError):
        PDeltaModel(p=1.5, delta=-1)
    with pytest.raises(ValueError):
        PDeltaModel(p=1.5, mu=0.0)
    PDeltaModel(p=2.0)  # boundary value allowed


class TestEvalStress:
    def test_zero_maps_to_zero(self):
        for delta in (0.0, 0.1):
            m = PDeltaModel(p=1.5, delta=delta)
            assert np.all(eval_stress(m, np.zeros((2, 2))) == 0.0)

    def test_p2_is_linear(self):
        m = PDeltaModel(p=2.0, delta=0.3, mu0=0.7, mu=1.3)
        a = symmetrize(np.random.default_rng(0).standard_normal((5, 2, 2)))
        assert np.allclose(eval_stress(m, a), 2.0 * a, rtol=1e-14)

    def test_scalar_example(self):
        m = PDeltaModel(p=1.5, delta=0.1, mu0=0.0, mu=1.0)
        a = np.diag([1.0, -1.0])
        expected = (0.1 + np.sqrt(2.0)) ** -0.5  # |A| = sqrt(2)
        assert np.allclose(eval_stress(m, a), expected * a, rtol=1e-14)

    def test_symmetrizes_input(self):
        m = PDeltaModel(p=1.5, delta=0.1)
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        out = eval_stress(m, a)
        assert np.array_equal(out, out.T)

    def test_continuity_near_zero(self):
        m = PDeltaModel(p=1.3, delta=0.0)
        a = np.eye(2)
        small = [frobenius(eval_stress(m, t * a)) for t in (1e-8, 1e-10, 1e-12)]
        assert small[0] > small[1] > small[2]


class TestShiftedStress:
    def test_zero_shift(self):
        m = PDeltaModel(p=1.5, delta=0.1)
        a = symmetrize(np.random.default_rng(1).standard_normal((3, 2, 2)))
        assert np.array_equal(shifted_stress(m, np.zeros((2, 2)), a), eval_stress(m, a))

    def test_zero_argument(self):
        m = PDeltaModel(p=1.5, delta=0.1)
        g = symmetrize(np.random.default_rng(2).standard_normal((2, 2)))
        assert np.allclose(shifted_stress(m, g, np.zeros((2, 2))), eval_stress(m, g), rtol=1e-15)

    def test_opposite_shift_gives_zero(self):
        m = PDeltaModel(p=1.5, delta=0.0)
        a = symmetrize(np.random.default_rng(3).standard_normal((2, 2)))
        assert np.all(shifted_stress(m, -a, a) == 0.0)

    def test_shift_consistency(self):
        # shifted(G, A-G) agrees with S(A) up to float associativity
        m = PDeltaModel(p=1.7, delta=0.2)
        rng = np.random.default_rng(4)
        a = symmetrize(rng.standard_normal((20, 2, 2)))
        g = symmetrize(rng.standard_normal((20, 2, 2)))
        lhs = shifted_stress(m, g, a - g)
        rhs = eval_stress(m, a)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


class TestYoungGap:
    def test_zero_offset_is_exact(self):
        for t in (0.5, 2.0, 100.0):
            assert young_gap(0.0, t, 1.5) == 0.0

    def test_zero_upper_limit(self):
        assert young_gap(3.0, 0.0, 1.5) == 0.0

    def test_reference_value(self):
        # oracle: adaptive quadrature of the integral side
        lhs, _ = scipy.integrate.quad(lambda s: (1.0 + s) ** -0.5 * s, 0.0, 1.0)
        expected = lhs - (1.0 / 1.5 - 1.0)
        assert abs(young_gap(1.0, 1.0, 1.5) - expected) < 1e-12
        assert abs(expected - (5.0 - 2.0 * np.sqrt(2.0)) / 3.0) < 1e-14

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.uniform(1.05, 2.0)
            a = 10.0 ** rng.uniform(-4, 4)
            t = 10.0 ** rng.uniform(-4, 4)
            ref, err = scipy.integrate.quad(lambda s: (a + s) ** (p - 2.0) * s, 0.0, t, epsrel=1e-12)
            assert abs(young_int(a, t, p) - ref) <= 1e-9 * abs(ref) + 10 * err

    def test_grid_nonnegative(self):
        grid = np.concatenate([[0.0], np.logspace(-6, 6, 25)])
        for p in np.linspace(1.05, 2.0, 20):
            a, t = np.meshgrid(grid, grid, indexing="ij")
            gap = young_gap(a, t, float(p))
            assert np.all(gap >= -1e-10 * (1.0 + t**p))

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            young_gap(1.0, 1.0, 2.5)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e6),
    t=st.floats(min_value=0.0, max_value=1e6),
    p=st.floats(min_value=1.05, max_value=2.0),
)
def test_young_gap_property(a, t, p):
    assert young_gap(a, t, p) >= -1e-10 * (1.0 + t**p)


class TestRhoLowerBound:
    def test_zero_at_zero(self):
        m = PDeltaModel(p=1.5, delta=0.0)
        assert rho_lower_bound(m, np.zeros((2, 2)), np.zeros((2, 2)), 0.0) == 0.0

    def test_p2_ignores_shift(self):
        m = PDeltaModel(p=2.0, delta=0.4)
        rng = np.random.default_rng(6)
        b, g = rng.standard_normal((2, 2, 2))
        assert abs(rho_lower_bound(m, g, b, 3.0, c1=2.0) - 2.0 * 9.0) < 1e-12

    def test_reference_value(self):
        m = PDeltaModel(p=1.5, delta=0.0)
        b = np.diag([1.0, 0.0]) / 1.0
        b = b / frobenius(b)  # |B+G| = 1 with G = 0
        val = rho_lower_bound(m, np.zeros((2, 2)), b, 1.0, c1=1.0)
        assert abs(val - 2.0**-0.5) < 1e-14

    def test_strictly_increasing(self):
        m = PDeltaModel(p=1.3, delta=0.05)
        b = symmetrize(np.random.default_rng(7).standard_normal((2, 2)))
        g = symmetrize(np.random.default_rng(8).standard_normal((2, 2)))
        t = np.logspace(-4, 3, 40)
        vals = rho_lower_bound(m, g, b, t)
        assert np.all(np.diff(vals) > 0)


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=1.05, max_value=2.0),
    delta=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_monotonicity_property(p, delta, seed):
    m = PDeltaModel(p=p, delta=delta)
    rng = np.random.default_rng(seed)
    a = random_sym(rng, 8) * 10.0 ** rng.uniform(-3, 3, 8)[:, None, None]
    b = random_sym(rng, 8) * 10.0 ** rng.uniform(-3, 3, 8)[:, None, None]
    mono = np.sum((eval_stress(m, a) - eval_stress(m, b)) * (a - b), axis=(-1, -2))
    scale = frobenius(a - b) * (frobenius(eval_stress(m, a)) + frobenius(eval_stress(m, b))) + 1e-300
    assert np.all(mono >= -1e-10 * scale)


class TestEstimateCharacteristics:
    def test_linear_case(self):
        ch = estimate_characteristics(PDeltaModel(p=2.0, delta=0.0), samples=10000, seed=0)
        assert abs(ch.C1 - 1.0) < 1e-12
        assert abs(ch.C2 - 1.0) < 1e-12

    def test_linear_with_viscosities(self):
        ch = estimate_characteristics(PDeltaModel(p=2.0, delta=0.3, mu0=0.5, mu=1.0), samples=10000, seed=0)
        assert abs(ch.C1 - 1.5) < 1e-11
        assert abs(ch.C2 - 1.5) < 1e-11
        assert abs(ch.C3 - 3.0) < 1e-7

    def test_mu0_does_not_decrease_c1(self):
        base = estimate_characteristics(PDeltaModel(p=1.5), samples=15000, seed=1)
        prev = base.C1
        for mu0 in (1.0, 10.0):
            ch = estimate_characteristics(PDeltaModel(p=1.5, mu0=mu0), samples=15000, seed=1)
            assert ch.C1 >= prev - 1e-12
            prev = ch.C1

    def test_shear_thinning_positive(self):
        ch = estimate_characteristics(PDeltaModel(p=1.5, delta=0.0), samples=100000, seed=2)
        assert 0.0 < ch.C1 <= 1.0 + 1e-12
        assert ch.C1 <= ch.C2
        assert ch.C3 > 0

    def test_seed_stability(self):
        a = estimate_characteristics(PDeltaModel(p=1.5), samples=50000, seed=3)
        b = estimate_characteristics(PDeltaModel(p=1.5), samples=50000, seed=12345)
        assert abs(a.C1 - b.C1) < 0.05 * a.C1
        assert abs(a.C2 - b.C2) < 0.05 * a.C2

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_characteristics(PDeltaModel(p=1.5), samples=100, seed=0)

    def test_dim3(self):
        ch = estimate_characteristics(PDeltaModel(p=1.8), samples=10000, seed=0, dim=3)
        assert ch.C1 > 0 and ch.dim == 3

    def test_witnesses_recorded(self):
        ch = estimate_characteristics(PDeltaModel(p=1.5), samples=10000, seed=0)
        a, b = ch.witness_C1
        assert a.shape == (2, 2) and b.shape == (2, 2)
        assert ch.non_rigorous

    def test_chunking_leaves_results_unchanged(self, monkeypatch):
        # 20000 random pairs plus the structured block span several chunks
        m = PDeltaModel(p=1.6, delta=0.05)
        chunked = estimate_characteristics(m, samples=20000, seed=7).to_json()
        sweep = inequality_sweep(m, samples=20000, seed=7)
        monkeypatch.setattr(constitutive, "_CHUNK", 10**9)
        assert estimate_characteristics(m, samples=20000, seed=7).to_json() == chunked
        assert inequality_sweep(m, samples=20000, seed=7) == sweep

    def test_characteristics_invariants(self):
        with pytest.raises(ValueError):
            Characteristics(2.0, 1.0, 1.0, (0, 0), (0, 0), (0, 0), 1, 0)  # C1 > C2


def test_inequality_sweep_rejects_bad_dimension():
    with pytest.raises(ValueError, match="dimension"):
        inequality_sweep(PDeltaModel(p=1.5), samples=10000, seed=0, dim=0)


class TestModulus:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_frobenius_matches_linalg(self, dim):
        a = np.random.default_rng(dim).standard_normal((7, 5, dim, dim)) * np.logspace(-3, 3, 5)[:, None, None]
        ref = np.linalg.norm(a, "fro", axis=(-2, -1))
        assert np.allclose(frobenius(a), ref, rtol=1e-14, atol=0.0)

    def test_symmetric_part_of_antisymmetric_is_zero(self):
        a = np.random.default_rng(5).standard_normal((50, 3, 3))
        w = a - np.swapaxes(a, -1, -2)
        assert np.all(frobenius(symmetrize(w)) == 0.0)


def test_inequality_sweep_self_consistent():
    rep = inequality_sweep(PDeltaModel(p=1.5, delta=0.1), samples=20000, seed=9)
    assert rep["violations_monotonicity"] == 0
    assert rep["violations_C1"] == 0
    assert rep["violations_C2"] == 0
    assert rep["violations_C3"] == 0


def test_inequality_sweep_fresh_sample_tolerant():
    # constants estimated on one sample hold on a fresh one within a few percent
    m = PDeltaModel(p=1.5, delta=0.1)
    ch = estimate_characteristics(m, samples=100000, seed=10)
    loose = Characteristics(
        ch.C1 * 0.95, ch.C2 * 1.05, ch.C3 * 0.95,
        ch.witness_C1, ch.witness_C2, ch.witness_C3, ch.samples, ch.seed,
    )
    rep = inequality_sweep(m, samples=50000, seed=11, chars=loose)
    assert rep["violations_monotonicity"] == 0
    assert rep["violations_C1"] == 0
    assert rep["violations_C2"] == 0


def test_degenerate_sample_error():
    from pdeltaflow.constitutive import _growth_ratios

    m = PDeltaModel(p=1.5)
    a = np.ones((5, 2, 2))
    with pytest.raises(DegenerateSampleError):
        _growth_ratios(m, a, a.copy())


def test_s_bdd_counting_measure():
    # ||S(Dw)||_p' <= C2 || |Dw| + delta ||_p^(p-1) over a finite sample set
    m = PDeltaModel(p=1.6, delta=0.2)
    ch = estimate_characteristics(m, samples=20000, seed=12)
    rng = np.random.default_rng(13)
    dw = random_sym(rng, 500) * 10.0 ** rng.uniform(-2, 2, 500)[:, None, None]
    sv = eval_stress(m, dw)
    pprime = m.p / (m.p - 1.0)
    lhs = np.mean(frobenius(sv) ** pprime) ** (1.0 / pprime)
    rhs = ch.C2 * np.mean((frobenius(dw) + m.delta) ** m.p) ** ((m.p - 1.0) / m.p)
    assert lhs <= rhs * (1 + 1e-12)
