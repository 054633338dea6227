import dataclasses
import functools

import numpy as np
import pytest

from pdeltaflow import counterexample
from pdeltaflow.constitutive import frobenius, symmetrize
from pdeltaflow.counterexample import (
    FamilyError,
    RangeError,
    build_family,
    construct_u_n,
    counterexample_scan,
    find_y_n,
)
from pdeltaflow.discretization import DiscreteSpace, level_norm, norm_sym_grad_p

from conftest import evaluate_P_n, gradient_matrices


@pytest.fixture(scope="module")
def family3():
    return build_family(3, p=1.5, q=3.0, base_n=8, width0=0.32)


class TestBuildFamily:
    def test_ratios_strictly_increasing(self, family3):
        assert all(a < b for a, b in zip(family3.ratios[:-1], family3.ratios[1:]))

    def test_members_normalized(self, family3):
        for c in family3.members:
            assert abs(norm_sym_grad_p(family3.space.velocity_field(c), 1.5) - 1.0) < 1e-12

    def test_members_are_zero_boundary(self, family3):
        for c in family3.members:
            assert np.abs(c[family3.space.boundary_vel_dofs]).max() == 0.0

    def test_scaling_leaves_ratio_unchanged(self, family3):
        c = family3.members[1]
        f1 = family3.space.velocity_field(c)
        f2 = family3.space.velocity_field(3.7 * c)
        r1 = norm_sym_grad_p(f1, 3.0) / norm_sym_grad_p(f1, 1.5)
        r2 = norm_sym_grad_p(f2, 3.0) / norm_sym_grad_p(f2, 1.5)
        assert abs(r1 - r2) < 1e-12 * r1

    def test_degenerate_norm_pair(self):
        with pytest.raises(FamilyError):
            build_family(3, p=1.5, q=1.5)

    def test_level_floor(self):
        with pytest.raises(ValueError):
            build_family(2)

    @pytest.mark.parametrize("width0", [0.0, -0.32])
    def test_width0_must_be_positive(self, width0):
        with pytest.raises(ValueError, match="width0"):
            build_family(3, base_n=4, width0=width0)


class TestFindYn:
    def test_closed_form(self):
        assert abs(find_y_n(8, 2.0, 1.0, 3.0) - 2.0) < 1e-14

    def test_root_property(self):
        for n, c2, f1, q in ((10, 2.0, 1.0, 3.0), (100, 1.5, 0.3, 4.0)):
            y = find_y_n(n, c2, f1, q)
            assert abs(c2 / n * y ** (q - 1.0) - f1) < 1e-12

    def test_vanishing_f1(self):
        assert find_y_n(10, 2.0, 0.0, 3.0) == 0.0

    def test_increasing_in_n(self):
        ys = [find_y_n(n, 2.0, 1.0, 3.0) for n in (4, 8, 16, 32)]
        assert all(a < b for a, b in zip(ys[:-1], ys[1:]))


class TestConstructUn:
    def test_low_endpoint(self, family3):
        n, R = 16.0, 1.0
        lo = family3.space.velocity_field(family3.members[0])
        y_lo = norm_sym_grad_p(lo, 3.0) * (R / level_norm(lo, 1.5, 3.0, n))
        field, theta, y = construct_u_n(family3, n, R, y_lo)
        assert theta < 1e-6
        assert abs(y - y_lo) < 1e-8 * y_lo
        assert abs(norm_sym_grad_p(field, 3.0) - y_lo) < 1e-8 * y_lo  # the field itself, not the bisection's read

    def test_midpoint_target(self, family3):
        n, R = 16.0, 1.0
        lo = family3.space.velocity_field(family3.members[0])
        hi = family3.space.velocity_field(family3.members[-1])
        y_lo = norm_sym_grad_p(lo, 3.0) * (R / level_norm(lo, 1.5, 3.0, n))
        y_hi = norm_sym_grad_p(hi, 3.0) * (R / level_norm(hi, 1.5, 3.0, n))
        target = 0.5 * (y_lo + y_hi)
        field, theta, y = construct_u_n(family3, n, R, target)
        assert abs(y - target) <= 1e-8 * target
        assert abs(norm_sym_grad_p(field, 3.0) - target) <= 1e-8 * target
        assert abs(level_norm(field, 1.5, 3.0, n) - R) <= 1e-10 * R

    def test_out_of_range(self, family3):
        with pytest.raises(RangeError):
            construct_u_n(family3, 16.0, 1.0, 100.0)


def test_default_n32_record_holds_the_first_crossing_reached():
    # on the default family the sphere's q-norm equals y_32 = 4 for every theta in [0.5, 1]
    family = build_family(4, p=1.5, q=3.0, base_n=8, width0=0.32)
    y_n = find_y_n(32, 2.0, 1.0, 3.0)
    field, theta, y = construct_u_n(family, 32.0, 1.0, y_n)
    assert abs(y - y_n) <= counterexample.BISECT_RTOL * y_n
    assert abs(norm_sym_grad_p(field, 3.0) - y_n) <= counterexample.BISECT_RTOL * y_n
    assert abs(counterexample._sphere_y(family, 1.0, 32.0, 1.0) - y_n) <= counterexample.BISECT_RTOL * y_n
    rec = counterexample_scan(family, [32], R=1.0, F1=1.0, G1=1.0, c2=2.0)["records"][0]
    assert {k: v for k, v in vars(rec).items() if k not in ("theta", "level_norm", "norm_Du_p")} == {
        "n": 32.0,
        "branch": "step2",
        "y_n": 4.0,
        "y_achieved": 4.0,
        "P_n": float.fromhex("-0x1.042f7be8d614cp+0"),
        "margin": float.fromhex("0x1.042f7be8d614cp+0"),
        "member_mix": "theta=0.500000",
        "sign": "negative",
    }


# float.hex of (theta, y_achieved, level_norm, norm_Du_p, P_n) per record of the
# default n grid, on the 3-level family from mesh 6 on the unit square
DEFAULT_GRID_RECORDS = {
    2.0: ("0x1.0000000000000p+0", "0x1.51cb453b9536dp+0", "0x1.0000000000000p+0", "0x1.4d435ccceba32p-2", "0x1.e6cbdaaa10180p-7"),
    4.0: ("0x1.0000000000000p+0", "0x1.bdb8cdadbe121p+0", "0x1.0000000000000p+0", "0x1.b7be4bb51179bp-2", "-0x1.1f152af5213b0p-3"),
    8.0: ("0x1.5e82ba9000000p-2", "0x1.fffffffbb4c39p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.12cf180000000p-31"),
    12.0: ("0x1.cfbe52d000000p-2", "0x1.3988e142f1a99p+1", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.cc4709f193e20p-3"),
    16.0: ("0x1.1460266000000p-1", "0x1.6a09e669d7a61p+1", "0x1.fffffffffffffp-1", "0x1.fffffffffffffp-1", "-0x1.a82799983f4e0p-2"),
    24.0: ("0x1.67e8cee000000p-1", "0x1.bb67ae866bd06p+1", "0x1.fffffffffffffp-1", "0x1.fffffffffffffp-1", "-0x1.76cf5d093b8a0p-1"),
    32.0: ("0x1.e000000000000p-1", "0x1.0000000000001p+2", "0x1.0000000000000p+0", "0x1.ff21e77470336p-1", "-0x1.00a68056ff658p+0"),
    64.0: ("0x1.0000000000000p+0", "0x1.037aff3742409p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.01ab3ee9bc62ap+1"),
    128.0: ("0x1.0000000000000p+0", "0x1.037aff3742409p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.44509eac2071ep+1"),
    256.0: ("0x1.0000000000000p+0", "0x1.037aff3742409p+2", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.65a34e8d52798p+1"),
}
DEFAULT_N_GRID = [2, 4, 8, 12, 16, 24, 32, 64, 128, 256]


def test_default_grid_scan_is_pinned_bitwise():
    scan = counterexample_scan(build_family(3, base_n=6), DEFAULT_N_GRID)
    fields = ("theta", "y_achieved", "level_norm", "norm_Du_p", "P_n")
    assert {r.n: tuple(getattr(r, k).hex() for k in fields) for r in scan["records"]} == DEFAULT_GRID_RECORDS


def test_family_norms_are_pinned_bitwise():
    # the members' norm ratios and the top member's (||Du||_p, ||Du||_q), each a power sum over zero-strain points
    family = build_family(3, base_n=6)
    assert [r.hex() for r in family.ratios] == ["0x1.9bcea12fc9d53p+0", "0x1.46dc704c03b40p+1", "0x1.037aff3742409p+2"]
    assert [r.hex() for r in counterexample._path_cache(family).top] == ["0x1.0000000000001p+0", "0x1.037aff374240ap+2"]


class TestEvaluatePn:
    def test_zero_field(self, family3):
        z = family3.space.zero_velocity()
        assert evaluate_P_n(z, 10, 1.0, 1.0, 1.5, 3.0) == 0.0

    def test_affine_in_g1(self, family3):
        f = family3.space.velocity_field(family3.members[0])
        v1 = evaluate_P_n(f, 10, 1.0, 1.0, 1.5, 3.0)
        v2 = evaluate_P_n(f, 10, 3.0, 1.0, 1.5, 3.0)
        ndu = norm_sym_grad_p(f, 1.5)
        assert abs((v2 - v1) - 2.0 * ndu**1.5) < 1e-12


class TestScan:
    def test_negativity_and_margins(self, family3):
        scan = counterexample_scan(family3, [4, 12, 16, 24, 48], R=1.0, F1=1.0, G1=1.0, c2=2.0)
        assert scan["N0"] is not None
        margins = [r.margin for r in scan["records"] if r.n >= scan["N0"]]
        assert all(m > 0 for m in margins)
        assert all(a < b for a, b in zip(margins[:-1], margins[1:]))

    def test_sphere_constraint(self, family3):
        scan = counterexample_scan(family3, [12, 24], R=1.0)
        for r in scan["records"]:
            assert abs(r.level_norm - 1.0) <= 1e-8

    def test_step2_margin_formula(self, family3):
        # when the p-part of the level norm binds, the margin is exactly
        # (1 - 1/c2) F1 y_n - G1 R^p
        scan = counterexample_scan(family3, [12], R=1.0, F1=1.0, G1=1.0, c2=2.0)
        rec = scan["records"][0]
        assert rec.branch == "step2"
        assert abs(rec.norm_Du_p - 1.0) < 1e-8
        assert abs(rec.margin - (0.5 * rec.y_n - 1.0)) < 1e-6

    def test_c2_validation(self, family3):
        with pytest.raises(ValueError):
            counterexample_scan(family3, [10], c2=1.0)

    @pytest.mark.parametrize(
        "bad",
        [{"F1": 0.0}, {"R": -1.0}, {"R": 0.0}, {"G1": -1.0}, {"G1": 0.0}, {"n_values": []}, {"n_values": [-1]}, {"n_values": [0]}],
    )
    def test_bad_inputs_raise_before_any_work(self, family3, monkeypatch, bad):
        def no_work(*args):
            raise AssertionError("the scan started before checking its inputs")

        monkeypatch.setattr(counterexample, "_discrete_f", no_work)
        with pytest.raises(ValueError):
            counterexample_scan(family3, **{"n_values": [2, 4, 8], **bad})

    def test_signs_and_N0_do_not_depend_on_the_bisection_tolerance(self, monkeypatch):
        # P_8 is 0 analytically: its raw value is a bisection residue whose
        # sign flips between these tolerances, so it must be classed as zero
        family = build_family(3, base_n=6)
        outcomes = []
        for rel_tol in (1e-9, 2.2e-10):
            monkeypatch.setattr(counterexample, "construct_u_n", functools.partial(construct_u_n, rel_tol=rel_tol))
            scan = counterexample_scan(family, [2, 4, 8, 12])
            outcomes.append((scan["N0"], [r.sign for r in scan["records"]]))
        assert outcomes[0] == outcomes[1] == (12.0, ["positive", "negative", "zero", "negative"])


def _mix(family, theta):
    return (1 - theta) * family.members[0] + theta * family.members[-1]


def _direct_norm(space, coeffs, r):
    """||Du||_r from a fresh gradient evaluation, written out in full."""
    mag = frobenius(symmetrize(gradient_matrices(space.velocity_gradients(coeffs))))
    return float(np.sum(space.qw * mag**r)) ** (1.0 / r)


class TestCachedBisection:
    def test_gram_matches_direct_strain(self, family3):
        gram = counterexample._path_cache(family3).gram
        keep = gram[0]
        dropped = np.ones(family3.space.qw.size, dtype=bool)
        dropped[keep] = False
        for theta in (0.0, 0.3, 0.5, 1.0):
            g = gradient_matrices(family3.space.velocity_gradients(_mix(family3, theta)))
            direct = (frobenius(symmetrize(g)) ** 2).ravel()
            cached = counterexample._strain_sq(gram, theta)
            assert np.abs(cached - direct[keep]).max() <= 1e-13 * direct.max()
            assert np.all(direct[dropped] == 0.0)

    def test_records_match_direct_oracle(self, family3):
        R, F1, G1, p, q = 1.3, 1.0, 0.7, family3.p, family3.q
        scan = counterexample_scan(family3, [4, 12, 16, 24, 48, 256], R=R, F1=F1, G1=G1, c2=2.0)
        assert {r.branch for r in scan["records"]} == {"step1-fallback", "step2", "step1"}
        space = family3.space
        for rec in scan["records"]:
            c = _mix(family3, rec.theta)
            ln = max(rec.n ** (-2.0 / (2.0 * q - 1.0)) * _direct_norm(space, c, q), _direct_norm(space, c, p))
            c = c * (R / ln)
            y, norm_p = _direct_norm(space, c, q), _direct_norm(space, c, p)
            oracle = {
                "y_achieved": y,
                "level_norm": max(rec.n ** (-2.0 / (2.0 * q - 1.0)) * y, norm_p),
                "norm_Du_p": norm_p,
                "P_n": G1 * norm_p**p + y**q / rec.n - F1 * y,
            }
            for key, want in oracle.items():
                assert abs(getattr(rec, key) - want) <= 1e-14 * abs(want), (rec.n, key)

    def test_gradient_evaluations_do_not_grow_with_bisection_steps(self, family3, monkeypatch):
        grads, steps = [], []
        sphere_y, construct = counterexample._sphere_y, construct_u_n

        def counted(method):
            def gradients(self, coeffs):
                grads.append(1)
                return method(self, coeffs)

            return gradients

        def counted_sphere_y(*args):
            steps.append(1)
            return sphere_y(*args)

        for name in ("velocity_gradients", "sym_gradients"):
            monkeypatch.setattr(DiscreteSpace, name, counted(getattr(DiscreteSpace, name)))
        monkeypatch.setattr(counterexample, "_sphere_y", counted_sphere_y)
        counts = []
        for rel_tol in (1e-6, 1e-9, 1e-14):
            monkeypatch.setattr(
                counterexample, "construct_u_n", lambda *a, rel_tol=rel_tol: construct(*a, rel_tol=rel_tol)
            )
            grads.clear()
            steps.clear()
            fresh = dataclasses.replace(family3, _gram=None)  # the cache is built inside the scan
            scan = counterexample_scan(fresh, [8, 12, 16, 24])
            assert all(r.branch == "step2" for r in scan["records"])
            counts.append((len(grads), len(steps)))
        assert counts[0][1] < counts[1][1] < counts[2][1]
        assert counts[0][0] == counts[1][0] == counts[2][0] > 0

    def test_scan_scores_each_theta_once_and_the_top_member_once(self, monkeypatch):
        family = build_family(3, base_n=6)  # a cold family: its caches are built inside the scan
        visited, strained, top = [], [], []
        sphere_y, strain_sq = counterexample._sphere_y, counterexample._strain_sq

        def counted_sphere_y(fam, theta, n, R):
            visited.append(theta)
            return sphere_y(fam, theta, n, R)

        def counted_strain_sq(gram, theta):
            strained.append(theta)
            return strain_sq(gram, theta)

        def counted(method):
            def gradients(self, coeffs):
                top.append(coeffs is family.members[-1])
                return method(self, coeffs)

            return gradients

        for name in ("velocity_gradients", "sym_gradients"):
            monkeypatch.setattr(DiscreteSpace, name, counted(getattr(DiscreteSpace, name)))
        monkeypatch.setattr(counterexample, "_sphere_y", counted_sphere_y)
        monkeypatch.setattr(counterexample, "_strain_sq", counted_strain_sq)
        scan = counterexample_scan(family, DEFAULT_N_GRID)
        assert sum(r.branch != "step2" for r in scan["records"]) == 5
        assert len(visited) > len(set(visited))  # the n values share path points
        assert sorted(strained) == sorted(set(visited))
        assert sum(top) == 1
