import functools
import tracemalloc

import mpmath
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

    def test_empty_batch_and_zero_under_raising_errstate(self):
        # the weight's floor is taken over the batch: an empty one still evaluates, and S(0) forms no 0**(p-2)
        m = PDeltaModel(p=1.5, delta=0.0)
        with np.errstate(all="raise"):
            empty = eval_stress(m, np.empty((0, 2, 2)))
            zero = eval_stress(m, np.zeros((2, 2)))
        assert empty.shape == (0, 2, 2)
        assert np.array_equal(zero, np.zeros((2, 2)))

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

    @pytest.mark.parametrize("p", [1.05, 1.2, 1.8])
    def test_series_band_against_high_precision_quadrature(self, p):
        # t/a in (3e-3, 3e-2): the antiderivative cancels there to ~1e-11 relative, the series holds ~1e-16
        x = np.geomspace(3e-3, 3e-2, 13)[:-1]
        for a in (0.3, 1.7, 4e3):
            got = young_int(a, x * a, p)
            with mpmath.workdps(50):
                for t, val in zip(x * a, got):
                    ref = mpmath.quad(lambda s: (a + s) ** (mpmath.mpf(p) - 2) * s, [0, t])
                    assert abs(val - ref) <= 1e-13 * ref, (a, t)

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
        ch = estimate_characteristics(PDeltaModel(p=2.0, delta=0.0))
        assert (ch.C1, ch.C2, ch.C3) == (1.0, 1.0, 2.0)

    def test_linear_with_viscosities(self):
        # S(A) = (mu0 + mu) A: the closed forms give mu0 + mu, mu0 + mu and 2 (mu0 + mu) exactly
        for delta in (0.0, 0.3):
            for dim in (2, 3):
                ch = estimate_characteristics(PDeltaModel(p=2.0, delta=delta, mu0=0.5, mu=1.0), dim=dim)
                assert (ch.C1, ch.C2, ch.C3) == (1.5, 1.5, 3.0)

    def test_mu0_does_not_decrease_c1(self):
        # the sampled constants: with mu0 > 0 and p < 2 there is no C2 to estimate
        base = inequality_sweep(PDeltaModel(p=1.5), samples=15000, seed=1)
        prev = base["C1"]
        for mu0 in (1.0, 10.0):
            ch = inequality_sweep(PDeltaModel(p=1.5, mu0=mu0), samples=15000, seed=1)
            assert ch["C1"] >= prev - 1e-12
            prev = ch["C1"]

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.999])
    def test_mu0_below_p2_has_no_c2(self, p):
        with pytest.raises(ValueError, match="no finite growth constant C2"):
            estimate_characteristics(PDeltaModel(p=p, delta=0.01, mu0=0.5))

    def test_shear_thinning_positive(self):
        ch = estimate_characteristics(PDeltaModel(p=1.5, delta=0.0))
        assert 0.0 < ch.C1 <= 1.0 + 1e-12
        assert ch.C1 <= ch.C2
        assert ch.C3 > 0

    def test_seed_stability(self):
        a = inequality_sweep(PDeltaModel(p=1.5), samples=50000, seed=3)
        b = inequality_sweep(PDeltaModel(p=1.5), samples=50000, seed=12345)
        assert abs(a["C1"] - b["C1"]) < 0.05 * a["C1"]
        assert abs(a["C2"] - b["C2"]) < 0.05 * a["C2"]

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            inequality_sweep(PDeltaModel(p=1.5), samples=100, seed=0)

    def test_dim3(self):
        ch = estimate_characteristics(PDeltaModel(p=1.8), dim=3)
        assert ch.C1 > 0 and ch.dim == 3

    def test_witnesses_recorded(self):
        ch = estimate_characteristics(PDeltaModel(p=1.5))
        a, b = ch.witness_C1
        assert a.shape == (2, 2) and b.shape == (2, 2)
        assert ch.non_rigorous

    def test_chunking_leaves_results_unchanged(self, monkeypatch):
        # 20000 random pairs plus the structured block span several chunks
        m = PDeltaModel(p=1.6, delta=0.05)
        sweep = inequality_sweep(m, samples=20000, seed=7)
        monkeypatch.setattr(constitutive, "_CHUNK", 10**9)
        assert inequality_sweep(m, samples=20000, seed=7) == sweep

    def test_characteristics_invariants(self):
        with pytest.raises(ValueError):
            Characteristics(2.0, 1.0, 1.0, (0, 0), (0, 0), (0, 0))  # C1 > C2


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
    ch = inequality_sweep(m, samples=100000, seed=10)
    wit = estimate_characteristics(m)
    loose = Characteristics(
        ch["C1"] * 0.95, ch["C2"] * 1.05, ch["C3"] * 0.95,
        wit.witness_C1, wit.witness_C2, wit.witness_C3,
    )
    rep = inequality_sweep(m, samples=50000, seed=11, chars=loose)
    assert rep["violations_monotonicity"] == 0
    assert rep["violations_C1"] == 0
    assert rep["violations_C2"] == 0


def test_degenerate_sample_error():
    from pdeltaflow.constitutive import _growth_ratios

    m = PDeltaModel(p=1.5)
    a = np.ones((3, 5))  # five 2x2 pairs as component rows
    with pytest.raises(DegenerateSampleError):
        _growth_ratios(m, a, a.copy())


def test_s_bdd_counting_measure():
    # ||S(Dw)||_p' <= C2 || |Dw| + delta ||_p^(p-1) over a finite sample set
    m = PDeltaModel(p=1.6, delta=0.2)
    ch = estimate_characteristics(m)
    rng = np.random.default_rng(13)
    dw = random_sym(rng, 500) * 10.0 ** rng.uniform(-2, 2, 500)[:, None, None]
    sv = eval_stress(m, dw)
    pprime = m.p / (m.p - 1.0)
    lhs = np.mean(frobenius(sv) ** pprime) ** (1.0 / pprime)
    rhs = ch.C2 * np.mean((frobenius(dw) + m.delta) ** m.p) ** ((m.p - 1.0) / m.p)
    assert lhs <= rhs * (1 + 1e-12)


def _full_matrices(*components):
    """The (n, d, d) matrices of pairs held as component rows: the diagonal, then the upper triangle row by row."""
    out = []
    for c in components:
        dim = {3: 2, 6: 3}[len(c)]
        entries = [(i, i) for i in range(dim)] + list(zip(*np.triu_indices(dim, 1)))
        m = np.empty((c.shape[1], dim, dim))
        for row, (i, j) in zip(c, entries):
            m[:, i, j] = m[:, j, i] = row
        out.append(m)
    return out


def _reference_ratios(model, a, b):
    """The growth ratios of the sampled pairs through eval_stress, norms taken where used."""
    diff = a - b
    dd = frobenius(diff)
    keep = np.flatnonzero(dd > 1e-12 * (frobenius(a) + frobenius(b) + 1.0))
    a, b, diff, dd = a[keep], b[keep], diff[keep], dd[keep]
    ds = eval_stress(model, a) - eval_stress(model, b)
    mono = np.sum(ds * diff, axis=(-1, -2))
    w = (model.delta + frobenius(b) + dd) ** (model.p - 2.0)
    return {
        "idx": keep,
        "mono": mono,
        "ds_norm": frobenius(ds),
        "dd": dd,
        "r1": mono / (w * dd**2),
        "r2": frobenius(ds) / (w * dd),
        "r3": mono / young_int(model.delta + frobenius(b), dd, model.p),
    }


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_chunk_ratios_match_eval_stress_bitwise(p, delta):
    model = PDeltaModel(p=p, delta=delta, mu0=0.3)
    a, b = constitutive._sample_pairs(np.random.default_rng(21), 10_000, 2)
    got = constitutive._chunk_ratios(model, a, b)
    keep = got.pop("keep")
    got = {"idx": np.flatnonzero(keep)} | {key: val[keep] for key, val in got.items()}
    want = _reference_ratios(model, *_full_matrices(a, b))
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_sample_pairs_are_component_rows():
    a, b = constitutive._sample_pairs(np.random.default_rng(4), 10_000, 3)
    assert a.shape == b.shape == (6, 10_000 + 3 * (3 * 289 + 2 * 17))
    for c, full in zip((a, b), _full_matrices(a, b)):
        assert np.array_equal(constitutive._components(full, np.empty_like(c)), c)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("model", [PDeltaModel(p=1.2), PDeltaModel(p=1.3, mu0=0.5), PDeltaModel(p=1.6, delta=0.05, mu0=0.2)])
def test_dim3_characteristics_match_full_matrix_oracle(model, seed):
    # numpy's einsum sums a 3x3 with fused multiply-adds, which the component sums do not
    # reproduce, so dim 3 agrees to roundoff, not bitwise.  A pair's stress difference cancels by
    # (|A| + |B|) / |A - B| (2e4 for the pairs B = A (1 + 1e-4)), so the bound is 1e-14 relative
    # times that factor of the extremizing pair.
    ch = inequality_sweep(model, 20_000, seed=seed, dim=3)
    a, b = _full_matrices(*constitutive._sample_pairs(np.random.default_rng(seed), 20_000, 3))
    want = _reference_ratios(model, a, b)
    assert ch["pairs_checked"] == want["r1"].size
    for got, key, pick in ((ch["C1"], "r1", np.argmin), (ch["C2"], "r2", np.argmax), (ch["C3"], "r3", np.argmin)):
        i = pick(want[key])
        j = want["idx"][i]
        cond = (frobenius(a[j]) + frobenius(b[j])) / want["dd"][i]
        assert abs(got - want[key][i]) <= 1e-14 * cond * abs(want[key][i]), key


@pytest.mark.parametrize("kwargs", [{"samples": 1e5}, {"samples": 20000.5}, {"samples": True}, {"dim": 2.0}])
def test_non_integer_sample_arguments_are_rejected(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        inequality_sweep(PDeltaModel(p=1.5), **({"samples": 20_000} | kwargs))


def test_random_sym_draws_are_symmetrized_gaussians():
    want = symmetrize(np.random.default_rng(3).standard_normal((500, 3, 3)))
    want = want / frobenius(want)[:, None, None]
    assert np.array_equal(random_sym(np.random.default_rng(3), 500, 3), want)


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def test_default_characteristics_pinned_bitwise():
    # the certified pipeline's tensor (p = 1.8, delta = 0.01), sampled at the default sample size
    rep = inequality_sweep(PDeltaModel(p=1.8, delta=0.01), 100_000, seed=0)
    assert _hex([rep["C1"], rep["C2"], rep["C3"]]) == ["0x1.999cc587c930dp-1", "0x1.42a596ff2b2dfp+0", "0x1.999c12998dcedp+0"]
    assert rep["pairs_checked"] == 102652


def test_sweep_report_pinned_bitwise():
    rep = inequality_sweep(PDeltaModel(p=1.3, mu0=0.5), samples=20_000, seed=0)
    floats = {k: float.hex(v) for k, v in rep.items() if isinstance(v, float)}
    assert floats == {
        "p": "0x1.4cccccccccccdp+0",
        "delta": "0x0.0p+0",
        "mu0": "0x1.0000000000000p-1",
        "mu": "0x1.0000000000000p+0",
        "C1": "0x1.340b389f2994ap-2",
        "C2": "0x1.556d9b8759a34p+9",
        "C3": "0x1.340961a78c016p-1",
        "min_monotonicity_ratio": "0x1.b4baf90de744fp-1",
        "tolerance": "0x1.b7cdfd9d7bdbbp-34",
    }
    assert {k: v for k, v in rep.items() if not isinstance(v, float)} == {
        "dim": 2,
        "pairs_checked": 22652,
        "violations_monotonicity": 0,
        "violations_C1": 0,
        "violations_C2": 0,
        "violations_C3": 0,
        "seed": 0,
    }


def test_estimator_memory_peak():
    # a sampler on full (n, 2, 2) matrices peaks at 18.1 MB; component rows take about 12.6 MB
    model = PDeltaModel(p=1.8, delta=0.01)
    tracemalloc.start()
    try:
        inequality_sweep(model, 100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


# -- the reduced search of estimate_characteristics ----------------------------------------------

_PS = [1.2, 1.5, 1.8, 2.0]


@functools.cache
def _pairs(seed, dim):
    """The sampled pairs of inequality_sweep (10^5 in d = 2, 2*10^4 in d = 3), drawn once per seed and dim."""
    return constitutive._sample_pairs(np.random.default_rng(seed), {2: 100_000, 3: 20_000}[dim], dim)


@pytest.mark.parametrize("p", _PS)
@pytest.mark.parametrize("delta", [0.0, 0.01, 0.1, 1.0])
def test_reduced_constants_dominate_the_sample(p, delta):
    model = PDeltaModel(p=p, delta=delta)
    for dim in (2, 3):
        ch = estimate_characteristics(model, dim=dim)
        for seed in (0, 1):
            r = constitutive._growth_ratios(model, *_pairs(seed, dim))
            assert ch.C1 <= np.min(r["r1"]) * (1 + 1e-12)
            assert ch.C2 >= np.max(r["r2"]) * (1 - 1e-12)
            assert ch.C3 <= np.min(r["r3"]) * (1 + 1e-12)


@pytest.mark.parametrize("p", _PS)
def test_reduced_constants_are_invariant_in_delta_and_dim(p):
    ref = estimate_characteristics(PDeltaModel(p=p, delta=0.01))
    for delta in (1e-6, 0.1, 1.0, 100.0, 1e300):
        for dim in (2, 3):
            ch = estimate_characteristics(PDeltaModel(p=p, delta=delta), dim=dim)
            for c in ("C1", "C2", "C3"):
                assert abs(getattr(ch, c) - getattr(ref, c)) <= 1e-12 * getattr(ref, c), (delta, dim, c)


@pytest.mark.parametrize("p", _PS)
@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_reduced_constants_reach_the_radial_limits(p, delta):
    # inf C1 = p - 1 and inf C3 = 2 (p - 1), approached as t/b -> 0 with A - B parallel to B
    ch = estimate_characteristics(PDeltaModel(p=p, delta=delta, mu=2.5))
    assert ch.C1 == 2.5 * (p - 1.0)
    assert ch.C3 == 2.5 * 2.0 * (p - 1.0)


@pytest.mark.parametrize("p", _PS)
@pytest.mark.parametrize("delta", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_reduced_witnesses_rescore_to_their_constants(p, delta, dim):
    # _chunk_ratios forms S(A) - S(B) from the matrices, which cancels by cond = (|A| + |B|) / |A - B|:
    # about 2e8 for the C1 and C3 witnesses at t/b = 1e-8, about 2 for the C2 witness.  The C1 and C3
    # witnesses' ratios lie (2 - p) / 2 * 1e-8 (relative) above their infima, inside that bound
    model = PDeltaModel(p=p, delta=delta)
    ch = estimate_characteristics(model, dim=dim)
    for c, key in (("C1", "r1"), ("C2", "r2"), ("C3", "r3")):
        a, b = getattr(ch, f"witness_{c}")
        assert a.shape == b.shape == (dim, dim)
        assert np.array_equal(a, a.T) and np.array_equal(b, b.T)
        rows = lambda m: constitutive._components(m[None], np.empty((dim * (dim + 1) // 2, 1)))
        got = constitutive._chunk_ratios(model, rows(a), rows(b))[key][0]
        cond = (frobenius(a) + frobenius(b)) / frobenius(a - b)
        assert abs(got - getattr(ch, c)) <= (1e-9 + 1e-14 * cond) * getattr(ch, c), c


def test_reduced_characteristics_pinned_bitwise():
    # the certified pipeline's tensor (p = 1.8, delta = 0.01); B = 1e12 delta E in the witnesses,
    # A = (1 + 1e-8) B for C1 and C3 and A = -u* B for C2, u* = x* - 1 = 0.48249
    ch = estimate_characteristics(PDeltaModel(p=1.8, delta=0.01))
    assert _hex([ch.C1, ch.C2, ch.C3]) == ["0x1.999999999999ap-1", "0x1.42bcc10329cdbp+0", "0x1.999999999999ap+0"]
    b = np.diag([1e10, 0.0])
    for c in ("C1", "C3"):
        assert np.array_equal(getattr(ch, f"witness_{c}")[0], np.diag([1e10 + 100.0, 0.0]))
        assert np.array_equal(getattr(ch, f"witness_{c}")[1], b)
    assert np.array_equal(ch.witness_C2[1], b)
    assert _hex(ch.witness_C2[0]) == ["-0x1.1f9596d2b7ae2p+32", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]


def _reduced_ratios(p, delta, b, t, theta):
    """r1, r2, r3 at mu0 = 0, mu = 1 of the pairs |B| = b, |A-B| = t at the angle theta between B and A-B.

    An oracle independent of estimate_characteristics.  S(A) - S(B) = (fa - fb) B + fa (A - B) with
    f(a) = (delta + a)**(p-2), so the monotonicity term is fa t**2 + (fa - fb) b t c.  fa / fb is
    taken through log1p of (a - b) / (delta + b), a - b as (2bc + t) t / (a + b), and fa - fb
    through expm1: no difference of near-equal numbers is formed.  The ratios are stacked as
    (3, ...).  Where delta + a < 1e-6 (delta + b) (A near 0 with delta << b) the two terms of
    fa + (fa - fb) b c / t cancel by up to fa / fb; the ratios are nan there.
    """
    c, s = np.cos(theta), np.sin(theta)
    a = np.hypot(b + t * c, t * s)
    rel = (2.0 * b * c + t) * t / ((a + b) * (delta + b))  # (a - b) / (delta + b)
    q = (p - 2.0) * np.log1p(rel)
    fb = (delta + b) ** (p - 2.0)
    fa, dfa = fb * np.exp(q), fb * np.expm1(q)
    d = dfa * b / t
    mono = fa + d * c  # (S(A) - S(B)):(A - B) / t**2
    w = (delta + b + t) ** (p - 2.0)
    r = np.stack([mono / w, np.hypot(d + fa * c, fa * s) / w, mono * t * t / young_int(delta + b, t, p)])
    return np.where(rel < 1e-6 - 1.0, np.nan, r)


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8, 1.95, 2.0])
def test_reduced_ratios_stay_within_the_closed_forms(p):
    # the limit delta / b -> 0 over (log10 t/b, angle) at b = 1, and the interior at delta = 1 over
    # (log10 b/delta, log10 t/delta, angle) with the line B = 0
    ch = estimate_characteristics(PDeltaModel(p=p))
    limit = np.meshgrid(0.0, 1.0, 10.0 ** np.linspace(-8.0, 6.0, 1401), np.linspace(0.0, np.pi, 181), indexing="ij")
    b = np.concatenate([[0.0], 10.0 ** np.linspace(-6.0, 6.0, 25)])
    interior = np.meshgrid(1.0, b, 10.0 ** np.linspace(-8.0, 8.0, 33), np.linspace(0.0, np.pi, 25), indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.concatenate([_reduced_ratios(p, *(x.ravel() for x in grid)) for grid in (limit, interior)], axis=1)
    assert np.count_nonzero(np.isnan(r[0])) < 0.01 * r.shape[1]
    assert np.nanmin(r[0]) >= ch.C1 * (1 - 1e-12)
    assert np.nanmax(r[1]) <= ch.C2 * (1 + 1e-12)
    assert np.nanmin(r[2]) >= ch.C3 * (1 - 1e-12)
    # the sup of r2 is reached: the limit grid's best point lies within its spacing of x*
    assert np.nanmax(r[1]) >= ch.C2 * (1 - 1e-4)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_growth_constant_matches_a_high_precision_maximum(p):
    # max over x > 1 of h_p(x) = (1 + (x-1)**(p-1)) (1+x)**(2-p) / x, by a bracketed root of its
    # numerical derivative at 50 digits
    with mpmath.workdps(50):
        q = mpmath.mpf(p)
        h = lambda x: (1 + (x - 1) ** (q - 1)) * (1 + x) ** (2 - q) / x
        x_star = mpmath.findroot(lambda x: mpmath.diff(h, x), (mpmath.mpf("1.01"), mpmath.mpf(2)), solver="anderson")
        ref = h(x_star)
    c2 = estimate_characteristics(PDeltaModel(p=p)).C2
    assert abs(c2 - ref) <= 1e-14 * ref
