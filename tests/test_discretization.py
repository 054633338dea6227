import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from pdeltaflow import assembly, discretization
from pdeltaflow.discretization import (
    ExponentRangeError,
    DiscreteSpace,
    Field,
    RectDomain,
    build_space,
    critical_exponent,
    divergence_values,
    estimate_dual_norm,
    estimate_korn,
    estimate_sobolev,
    load_field,
    norm_grad_p,
    norm_Lp,
    norm_sym_grad_p,
    norm_W1p,
    prolong_velocity,
    save_field,
)

from conftest import asymmetric_divfree, gradient_matrices, mandel, mandel_skew


class TestBuildSpace:
    def test_degenerate_mesh_rejected(self, unit_domain):
        with pytest.raises(ValueError):
            build_space(unit_domain, 1, 4)
        for quad_degree in (1, 0, -3):  # below the P2 stiffness integrand's degree
            with pytest.raises(ValueError):
                build_space(unit_domain, 4, 4, quad_degree=quad_degree)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            RectDomain(0.0, 0.0, -1.0, 1.0)

    def test_dof_counts(self, unit_domain):
        for n in (2, 4, 8):
            s = build_space(unit_domain, n, n)
            nv = (n + 1) ** 2
            ne = 2 * n * (n + 1) + n * n
            assert s.n_p1 == nv
            assert s.n_p2 == nv + ne

    def test_quadrature_exactness(self, unit_domain):
        s = build_space(unit_domain, 2, 2)
        for a in range(9):
            for b in range(9 - a):
                val = s.integrate(s.qpts[..., 0] ** a * s.qpts[..., 1] ** b)
                exact = 1.0 / ((a + 1) * (b + 1))
                assert abs(val - exact) <= 1e-13 * max(1.0, exact)

    def test_header_roundtrip(self, space4, tmp_path):
        f = space4.interpolate_velocity((lambda x, y: x * y, lambda x, y: x - y))
        path = tmp_path / "field.txt"
        save_field(path, f)
        g = load_field(path, space4)
        assert np.array_equal(f.coeffs, g.coeffs)
        assert g.role == "velocity"

    def test_header_roundtrip_translated(self, tmp_path):
        s = build_space(RectDomain(0.3, -0.2, 1.7, 0.4), 5, 3, quad_degree=6)
        p = Field(s, "scalar", np.arange(s.n_p1, dtype=float))
        path = tmp_path / "p.txt"
        save_field(path, p)
        q = load_field(path, s, role="scalar")
        assert np.array_equal(p.coeffs, q.coeffs)
        assert q.role == "scalar"

    @pytest.mark.parametrize(
        "domain, nx, ny, quad_degree",
        [((0.0, 0.0, 2.0, 1.0), 4, 4, 8), ((0.0, 0.0, 1.0, 1.0), 4, 4, 6), ((0.0, 0.0, 1.0, 1.0), 4, 2, 8)],
    )
    def test_header_mismatch_rejected(self, space4, tmp_path, domain, nx, ny, quad_degree):
        path = tmp_path / "field.txt"
        save_field(path, space4.zero_velocity())
        with pytest.raises(ValueError):
            load_field(path, build_space(RectDomain(*domain), nx, ny, quad_degree=quad_degree))

    def test_header_role_mismatch_rejected(self, space4, tmp_path):
        path = tmp_path / "field.txt"
        save_field(path, space4.zero_velocity())
        with pytest.raises(ValueError):
            load_field(path, space4, role="pressure")

    def test_header_with_inf_sup_still_loads(self, space4, tmp_path):
        # fields written before the header lost its inf_sup key load as they are
        assert "inf_sup" not in space4.header()
        f = space4.interpolate_velocity((lambda x, y: x * y, lambda x, y: x - y))
        path = tmp_path / "field.txt"
        save_field(path, f)
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head["inf_sup"] = 0.1767767
        path.write_text("\n".join([json.dumps(head, sort_keys=True)] + lines[1:]) + "\n")
        g = load_field(path, space4, role="velocity")
        assert np.array_equal(f.coeffs, g.coeffs)


class TestTriangleRule:
    """The 16-point symmetric rule that serves quad_degree 7 and 8 (the default)."""

    @staticmethod
    def _bary(pts):
        return np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts])

    @pytest.mark.parametrize("degree", [7, 8])
    def test_sixteen_inner_points_with_positive_weights(self, degree):
        pts, w = discretization._triangle_rule(degree)
        assert pts.shape == (16, 2) and w.shape == (16,)
        assert (w > 0.0).all()
        assert abs(w.sum() - 0.5) <= 1e-15
        assert (self._bary(pts) > 0.0).all()

    def test_invariant_under_barycentric_permutations(self):
        pts, w = discretization._triangle_rule(8)
        bary = self._bary(pts)
        for perm in itertools.permutations(range(3)):
            dist = np.abs(bary[:, None, perm] - bary[None, :, :]).max(axis=-1)  # (moved point, point)
            match = dist.argmin(axis=1)
            assert dist.min(axis=1).max() <= 1e-15
            assert sorted(match) == list(range(16))
            assert np.array_equal(w[match], w)

    def test_exact_to_degree_eight_and_not_nine(self):
        pts, w = discretization._triangle_rule(8)
        x, y = pts[:, 0], pts[:, 1]

        def error(i, j):
            return abs(w @ (x**i * y**j) - math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2))

        errors = [error(i, j) for i in range(9) for j in range(9 - i)]
        assert len(errors) == 45 and max(errors) <= 1e-15
        assert max(error(i, 9 - i) for i in range(10)) > 1e-10

    def test_default_space_uses_sixteen_points(self, unit_domain):
        assert build_space(unit_domain, 4, 4).nq == 16
        assert build_space(unit_domain, 4, 4, quad_degree=9).nq == 36  # the collapsed rule, m = 6


def _lbb_constant(space, vel_dofs=None):
    """Dense discrete LBB constant of the pairing of the velocity dofs vel_dofs (the free ones) with P1.

    beta_h^2 is the smallest eigenvalue of S = C K^-1 C^T against the
    mean-zero pressure mass M - m m^T / |Omega| (m = M 1).  Both forms vanish
    on constants, so pinning pressure dof 0 keeps one representative per
    class and leaves the mass positive definite.
    """
    vel = space.free_vel_dofs if vel_dofs is None else vel_dofs
    c = assembly.div_coupling(space)[:, vel]
    k = assembly.full_grad_stiffness(space)[vel][:, vel]
    s = c @ spla.splu(k.tocsc()).solve(c.T.toarray())
    m = assembly.p1_mass(space).toarray()
    mt = m - np.outer(m.sum(axis=1), m.sum(axis=1)) / space.domain.measure
    lam = sla.eigh(s[1:, 1:], mt[1:, 1:], eigvals_only=True, subset_by_index=[0, 0])[0]
    return float(np.sqrt(max(lam, 0.0)))


class TestInfSup:
    """The Taylor-Hood pairing's discrete LBB constant (Boffi-Brezzi-Fortin 2013, ch. 8)."""

    def test_unit_square_flat_in_h(self, unit_domain):
        betas = [_lbb_constant(build_space(unit_domain, n, n)) for n in (2, 4, 8, 16)]
        assert all(0.36 <= b <= 0.37 for b in betas), betas
        assert max(betas) - min(betas) < 0.005

    def test_translated_square(self, space8):
        beta = _lbb_constant(build_space(RectDomain(3.0, -2.0, 4.0, -1.0), 8, 8))
        assert abs(beta - _lbb_constant(space8)) <= 1e-9

    def test_thin_rectangle(self):
        # the constant depends on the domain: a 16:1 rectangle gives about a sixth of the square's
        beta = _lbb_constant(build_space(RectDomain(0.0, 0.0, 4.0, 0.25), 5, 2))
        assert abs(beta - 0.0564) <= 1e-3

    def test_vertex_velocities_unstable(self, space4):
        # negative control: P1 velocities (the free vertex dofs) against P1 pressures,
        # 18 unknowns against 24, leave pressure modes that no velocity sees
        verts = space4.interior_p2[space4.interior_p2 < space4.n_verts]
        vel = np.concatenate([verts, verts + space4.n_p2])
        assert vel.size == 18 and space4.n_p1 - 1 == 24
        assert _lbb_constant(space4, vel) < 1e-6


class TestMesh:
    def test_numbering_oracle_3x2(self, unit_domain):
        # the numbering of the per-cell loop and edge dictionary it replaced
        s = build_space(unit_domain, 3, 2)
        cells = [[0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6],
                 [4, 5, 9], [4, 9, 8], [5, 6, 10], [5, 10, 9], [6, 7, 11], [6, 11, 10]]
        cell_mids = [[12, 13, 14], [14, 15, 16], [17, 18, 19], [19, 20, 13], [21, 22, 23], [23, 24, 18],
                     [15, 25, 26], [26, 27, 28], [20, 29, 30], [30, 31, 25], [24, 32, 33], [33, 34, 29]]
        edge_verts = [[0, 1], [1, 5], [0, 5], [4, 5], [0, 4], [1, 2], [2, 6], [1, 6], [5, 6], [2, 3], [3, 7], [2, 7],
                      [6, 7], [5, 9], [4, 9], [8, 9], [4, 8], [6, 10], [5, 10], [9, 10], [7, 11], [6, 11], [10, 11]]
        boundary_p2 = [0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 16, 17, 21, 22, 27, 28, 31, 32, 34]
        segments = [[0, 12, 1], [1, 17, 2], [2, 21, 3], [8, 27, 9], [9, 31, 10], [10, 34, 11],
                    [0, 16, 4], [4, 28, 8], [3, 22, 7], [7, 32, 11]]
        assert s.cells.tolist() == cells
        assert s.cell_p2.tolist() == [c + m for c, m in zip(cells, cell_mids)]
        assert s.edge_verts.tolist() == edge_verts
        assert s.boundary_p2.tolist() == boundary_p2
        assert s.boundary_seg_dofs.tolist() == segments

    @pytest.fixture(
        scope="class",
        params=[((0.0, 0.0, 1.0, 1.0), 2, 2), ((0.0, 0.0, 1.0, 1.0), 3, 2), ((0.3, -0.2, 1.7, 0.4), 5, 7)],
        ids=["2x2", "3x2", "translated5x7"],
    )
    def mesh(self, request):
        domain, nx, ny = request.param
        return build_space(RectDomain(*domain), nx, ny)

    def test_edge_dofs_at_midpoints(self, mesh):
        s = mesh
        for k in range(3):  # local edge k joins local vertices k and k + 1
            a, b = s.verts[s.cells[:, k]], s.verts[s.cells[:, (k + 1) % 3]]
            assert np.abs(s.p2_coords[s.cell_p2[:, 3 + k]] - 0.5 * (a + b)).max() <= 1e-15
        assert np.unique(s.cell_p2[:, 3:]).tolist() == list(range(s.n_verts, s.n_p2))

    def test_boundary_dofs_found_by_coordinates(self, mesh):
        s, dom = mesh, mesh.domain
        x, y = s.p2_coords[:, 0], s.p2_coords[:, 1]
        tol = 1e-12
        on_rim = (np.abs(x - dom.x0) < tol) | (np.abs(x - dom.x1) < tol) | (np.abs(y - dom.y0) < tol) | (np.abs(y - dom.y1) < tol)
        assert s.boundary_p2.tolist() == np.flatnonzero(on_rim).tolist()
        assert s.interior_p2.tolist() == np.flatnonzero(~on_rim).tolist()
        assert np.unique(s.boundary_seg_dofs).tolist() == s.boundary_p2.tolist()

    def test_segments_and_outward_normals(self, mesh):
        s, dom = mesh, mesh.domain
        a, m, b = (s.p2_coords[s.boundary_seg_dofs[:, k]] for k in range(3))
        assert np.abs(m - 0.5 * (a + b)).max() <= 1e-15
        assert np.allclose(np.linalg.norm(b - a, axis=1), s.boundary_lengths, rtol=1e-14, atol=0.0)
        assert np.all(np.einsum("sc,sc->s", b - a, s.boundary_normals) == 0.0)
        out, inside = m + 1e-3 * s.boundary_normals, m - 1e-3 * s.boundary_normals
        within = lambda p: (dom.x0 < p[:, 0]) & (p[:, 0] < dom.x1) & (dom.y0 < p[:, 1]) & (p[:, 1] < dom.y1)
        assert not within(out).any() and within(inside).all()
        perimeter = 2.0 * ((dom.x1 - dom.x0) + (dom.y1 - dom.y0))
        assert abs(s.boundary_lengths.sum() - perimeter) <= 1e-14 * perimeter
        assert len(s.boundary_lengths) == 2 * (s.nx + s.ny)

    def test_flux_of_position_is_twice_the_area(self):
        s = build_space(RectDomain(0.5, -0.3, 2.5, 0.7), 4, 3)  # 2 x 1, translated, nx != ny
        pos = s.interpolate_velocity((lambda x, y: x, lambda x, y: y)).coeffs
        assert abs(s.boundary_flux(pos) - 2.0 * s.domain.measure) <= 1e-13


class TestField:
    def test_role_validation(self, space4):
        with pytest.raises(ValueError):
            Field(space4, "velocity", np.zeros(3))
        with pytest.raises(ValueError):
            Field(space4, "other", np.zeros(space4.n_p1))

    def test_pressure_mean_zero(self, space4):
        f = space4.pressure_field(np.ones(space4.n_p1) * 3.0)
        assert abs(space4.integrate(space4.p1_values(f.coeffs))) < 1e-13


class TestNorms:
    def test_zero_field(self, space8):
        assert norm_Lp(space8.zero_velocity(), 1.7) == 0.0

    def test_constant_scalar(self, space8):
        one = space8.interpolate_scalar(lambda x, y: 1.0 + 0 * x)
        for p in (1.0, 1.5, 2.0, 3.7):
            assert abs(norm_Lp(one, p) - 1.0) < 1e-13

    def test_linear_scalar(self, space8):
        fx = space8.interpolate_scalar(lambda x, y: x)
        assert abs(norm_Lp(fx, 2.0) - 1.0 / np.sqrt(3.0)) < 1e-13

    def test_rigid_rotation_has_zero_sym_grad(self, space8):
        rot = space8.interpolate_velocity((lambda x, y: y, lambda x, y: -x))
        assert norm_sym_grad_p(rot, 2.0) < 1e-13

    def test_diagonal_strain(self, space8):
        v = space8.interpolate_velocity((lambda x, y: x, lambda x, y: -y))
        assert abs(norm_sym_grad_p(v, 2.0) - np.sqrt(2.0)) < 1e-13
        assert abs(norm_grad_p(v, 2.0) - np.sqrt(2.0)) < 1e-13

    def test_homogeneity(self, space8):
        rng = np.random.default_rng(0)
        u = space8.velocity_field(rng.standard_normal(space8.n_vel))
        for p in (1.0, 1.4, 2.0, 3.0):
            n1 = norm_Lp(u, p)
            n2 = norm_Lp(space8.velocity_field(-2.5 * u.coeffs), p)
            assert abs(n2 - 2.5 * n1) < 1e-10 * n1

    def test_triangle_inequality(self, space8):
        rng = np.random.default_rng(1)
        for p in (1.0, 1.5, 2.0, 4.0):
            u = space8.velocity_field(rng.standard_normal(space8.n_vel))
            v = space8.velocity_field(rng.standard_normal(space8.n_vel))
            w = space8.velocity_field(u.coeffs + v.coeffs)
            for norm in (norm_Lp, norm_sym_grad_p, norm_W1p):
                assert norm(w, p) <= norm(u, p) + norm(v, p) + 1e-10 * (norm(u, p) + norm(v, p))

    def test_quadratic_field_exact_l2(self, space4):
        # |u|^2 of a quadratic velocity is degree 4, inside the rule's exactness
        g = space4.interpolate_velocity((lambda x, y: x * y, lambda x, y: x**2 - y**2))
        exact = np.sqrt(1.0 / 9.0 + 2.0 * (1.0 / 5.0 - 1.0 / 9.0))  # int x^2y^2 + (x^2-y^2)^2
        assert abs(norm_Lp(g, 2.0) - exact) < 1e-12


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestPosPow:
    """``_pos_pow``: a ** r with the lanes at or below the floor skipped and set to +0.0."""

    @staticmethod
    def _moduli(zeros, seed=3, shape=(96, 16)):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 50.0, shape) * 10.0 ** rng.integers(-8, 3, shape)
        if zeros == "cells":  # the moduli vanish cell by cell
            a[rng.random(shape[0]) < 0.6] = 0.0
        elif zeros == "scattered":
            a[rng.random(shape) < 0.5] = 0.0
        elif zeros == "all":
            a[:] = 0.0
        return a

    @pytest.mark.parametrize("zeros", ["cells", "scattered", "all", "none"])
    @pytest.mark.parametrize("r", [0.5, 0.9, 1.0, 1.5, 1.8, 2.0, 3.0, 18.0])
    def test_bitwise_the_plain_power(self, zeros, r):
        a = self._moduli(zeros)
        out = discretization._pos_pow(a, r)
        assert out.shape == a.shape and _bits(out) == _bits(a**r)

    @pytest.mark.parametrize("expo", [-0.2, -0.5, -0.9])
    def test_negative_exponent_vanishes_below_the_floor(self, expo):
        a = self._moduli("cells", seed=4)
        a.ravel()[:6] = (1e-300, 5e-301, 1e-310, 5e-324, 1.1e-300, 1e-299)  # at, below and just above the floor
        with np.errstate(divide="ignore"):
            old = np.where(a > 1e-300, a**expo, 0.0)
        assert _bits(discretization._pos_pow(a, expo, 1e-300)) == _bits(old)

    def test_zero_lanes_are_positive_zero_and_raise_nothing(self):
        a = self._moduli("cells")
        with np.errstate(all="raise"):  # 0 ** -0.5 would divide by zero
            out = discretization._pos_pow(a, -0.5, 1e-300)
            zeros = discretization._pos_pow(np.zeros((4, 16)), 1.8)
        assert np.all(out[a == 0.0] == 0.0) and not np.signbit(out[a == 0.0]).any()
        assert _bits(zeros) == _bits(np.zeros((4, 16)))

    def test_dense_moduli_take_the_plain_power(self, monkeypatch):
        a = self._moduli("none")
        monkeypatch.setattr(np, "zeros_like", lambda *args, **kw: pytest.fail("dense moduli were scattered"))
        assert _bits(discretization._pos_pow(a, 1.8)) == _bits(a**1.8)

    def test_nan_lane_stays_nan(self):
        a = self._moduli("cells")
        a[0, 0], a[-1, -1] = np.nan, 0.0
        assert _bits(discretization._pos_pow(a, 1.8)) == _bits(a**1.8)

    @pytest.mark.parametrize("zeros", ["cells", "none"])
    def test_masked_division_is_bitwise_the_old_one(self, zeros):
        den = self._moduli(zeros)
        num = np.random.default_rng(5).standard_normal(den.shape)
        old = np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)
        assert _bits(discretization._over(num, den)) == _bits(old)


def test_power_sums_of_a_compact_bump_are_pinned(space8):
    # |Du| of a compactly supported bump vanishes on 2/3 of the quadrature points
    mag = discretization.mandel_norm(space8.sym_gradients(discretization._bump_velocity(space8, (0.4, 0.55), 0.25).coeffs))
    assert np.mean(mag == 0.0) > 0.5
    norms = ("0x1.33021f08b2d70p+4", "0x1.d9bdaa34b5080p+4", "0x1.02398809882c0p+6")
    assert tuple(space8.lr_norm(r, mag).hex() for r in (1.8, 3.0, 18.0)) == norms


def test_sobolev_objective_at_its_starts_is_pinned(space8, monkeypatch):
    # the objective's value and squared gradient norm at the Gaussian bump start, and at a compact bump
    starts = {}

    def capture(objective, cands, witness, iters):
        starts.update({name: x for name, x, _ in cands})

    monkeypatch.setattr(discretization, "_ascend", capture)
    estimate_sobolev(space8, 1.8, 4.0)
    compact = discretization._bump_velocity(space8, (0.4, 0.55), 0.25).coeffs
    pins = {
        "bump": ("-0x1.808c7972b8a10p+0", "0x1.287ccba16b6e2p-5"),
        "compact": ("-0x1.1197f5ce41bb0p+1", "0x1.cfe7e4b8e7838p-12"),
    }
    for name, x in (("bump", starts["bump"]), ("compact", compact)):
        val, grad = discretization._sobolev_objective(space8, 1.8, 4.0)(x)
        g = grad()
        assert (val.hex(), float(g @ g).hex()) == pins[name]


class TestKorn:
    def test_p2_identity(self, space8):
        # |grad u|^2 = 2 |Du|^2 - (div u)^2 for zero-boundary fields, exactly
        rng = np.random.default_rng(2)
        for _ in range(5):
            c = np.zeros(space8.n_vel)
            c[space8.free_vel_dofs] = rng.standard_normal(space8.free_vel_dofs.size)
            u = space8.velocity_field(c)
            lhs = norm_grad_p(u, 2.0) ** 2
            rhs = 2.0 * norm_sym_grad_p(u, 2.0) ** 2 - space8.integrate(divergence_values(space8, c) ** 2)
            assert abs(lhs - rhs) < 1e-11 * max(lhs, 1.0)

    def test_p2_estimate_below_sqrt2(self, space8):
        est = estimate_korn(space8, 2.0)
        assert est.value <= np.sqrt(2.0) + 1e-6
        assert est.value >= 1.0

    def test_divfree_field_achieves_sqrt2(self, space16):
        ux, uy = asymmetric_divfree()
        u = space16.interpolate_velocity((ux, uy))
        ratio = norm_grad_p(u, 2.0) / norm_sym_grad_p(u, 2.0)
        assert abs(ratio - np.sqrt(2.0)) < 1e-2

    def test_ratio_at_least_one(self, space8):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = space8.velocity_field(rng.standard_normal(space8.n_vel))
            assert norm_grad_p(u, 1.6) >= norm_sym_grad_p(u, 1.6) * (1 - 1e-12)

    def test_p2_is_exact(self, space8):
        est = estimate_korn(space8, 2.0)
        assert abs(est.value - np.sqrt(2.0)) <= 1e-12
        assert est.converged and est.iters == 0 and est.start == "exact"

    def test_divfree_start_beats_power_witness(self, space8):
        # 1.45383 is what the fixed-step normalized ascent reached here in 120 iterations; the
        # L-BFGS ascent passes it within the default budget, and a capped run is not converged
        est = estimate_korn(space8, 1.8)
        assert est.value >= 1.45383 and est.start == "divfree"
        assert est.stop == "cap" and not est.converged and est.iters == discretization.ASCENT_ITERS
        assert est.evaluations >= est.iters + 1
        wit = est.witness
        assert abs(norm_grad_p(wit, 1.8) / norm_sym_grad_p(wit, 1.8) - est.value) <= 1e-12 * est.value
        assert np.all(wit.coeffs[wit.space.boundary_vel_dofs] == 0.0)

    def test_p_not_2_estimate(self, space4):
        est = estimate_korn(space4, 1.5, iters=60)
        assert est.value >= 1.0
        assert est.witness.role == "velocity"

    def test_exponent_validation(self, space4):
        with pytest.raises(ValueError):
            estimate_korn(space4, 2.5)


class TestSobolev:
    def test_identity_target_bounded_by_one(self, space8):
        est = estimate_sobolev(space8, 1.5, 1.5, iters=60)
        assert est.value <= 1.0 + 1e-9

    def test_critical_exponent_arithmetic(self):
        assert abs(critical_exponent(1.6, 2) - 8.0) < 1e-12
        assert critical_exponent(2.0, 2) == np.inf

    def test_range_error(self, space4):
        with pytest.raises(ExponentRangeError):
            estimate_sobolev(space4, 1.6, 9.0)

    def test_refinement_monotone(self, space4, space8):
        coarse = estimate_sobolev(space4, 1.5, 4.0, iters=60)
        start = prolong_velocity(space4, space8, coarse.witness)
        fine = estimate_sobolev(space8, 1.5, 4.0, iters=60, starts=[start])
        assert fine.value >= coarse.value * (1 - 1e-9)

    def test_constant_winner_is_flagged_degenerate(self):
        # on a 2x1 rectangle the constant field's ratio |Omega|^(1/r - 1/s) is below one
        space = build_space(RectDomain(0.0, 0.0, 2.0, 1.0), 8, 8)
        emb = discretization.estimate_embedding_constants(space, 1.8, 1.8, iters=40)
        for key, r in (("sob_p_to_pstar", emb.targets["pstar_used"]), ("sob_s_to_2pprime", emb.targets["two_pprime"])):
            assert abs(getattr(emb, key) - 2.0 ** (1.0 / r - 1.0 / 1.8)) <= 1e-14
            assert emb.to_json()["ascent"][key]["start"] == "constant"
            assert emb.to_json()["ascent"][key]["degenerate"] is True
            assert emb.to_json()["ascent"][key]["stop"] is None
            assert emb.to_json()["ascent"][key]["evaluations"] == 2
        korn = emb.to_json()["ascent"]["korn_p"]
        assert korn["start"] == "divfree" and 1 <= korn["iters"] <= 40 and korn["degenerate"] is False
        assert korn["evaluations"] >= korn["iters"] + 1
        assert korn["stop"] in ("cap", "line_search", "flat") and emb.converged["korn_p"] == (korn["stop"] != "cap")

    def test_constant_winner_runs_no_ascent(self, monkeypatch):
        space = build_space(RectDomain(0.0, 0.0, 2.0, 1.0), 8, 8)
        calls = []
        gradients = DiscreteSpace.velocity_gradients

        def counted(self, coeffs):
            calls.append(1)
            return gradients(self, coeffs)

        monkeypatch.setattr(DiscreteSpace, "velocity_gradients", counted)
        est = estimate_sobolev(space, 1.8, 4.5)
        assert est.start == "constant" and est.iters == 0 and not est.converged
        assert len(calls) == 2  # one objective call each for the constant and the bump
        assert abs(est.value - 2.0 ** (1.0 / 4.5 - 1.0 / 1.8)) <= 1e-14
        const = np.concatenate([np.ones(space.n_p2), np.zeros(space.n_p2)])
        assert np.array_equal(est.witness.coeffs, const / np.linalg.norm(const))

    def test_bump_winner_evaluates_no_point_twice(self, monkeypatch):
        # on an 8x2 rectangle the bump beats the constant, and the ascent
        # starts from the scored bump without evaluating it again
        space = build_space(RectDomain(0.0, 0.0, 8.0, 2.0), 8, 8)
        make = discretization._sobolev_objective
        seen = []

        def recording(*args):
            objective = make(*args)

            def wrapped(x):
                seen.append(x.tobytes())
                return objective(x)

            return wrapped

        monkeypatch.setattr(discretization, "_sobolev_objective", recording)
        est = estimate_sobolev(space, 1.8, critical_exponent(1.8))
        assert est.start == "bump" and est.iters >= 1
        assert est.evaluations == len(seen) == len(set(seen))

    def test_large_exponents_stay_finite(self, space4):
        # p = 1.001 gives s = 500.5 and 2p' = 2002: unscaled powers of a unit vector underflow to log(0)
        est = estimate_sobolev(space4, 500.5, 2002.0, iters=10)
        assert np.isfinite(est.value) and est.value >= 1.0 - 1e-9

    def test_constant_normalization(self, space8):
        # on the unit square the constant field realizes ratio 1
        est = estimate_sobolev(space8, 1.8, 4.5, iters=60)
        assert est.value >= 1.0 - 1e-9

    @pytest.mark.parametrize("k", [-150, -10, 0, 10, 150])
    @pytest.mark.parametrize("s, r", [(1.8, 4.5), (500.5, 2002.0)])
    def test_objective_scales_as_lr_norm(self, space8, s, r, k):
        # one overflow rule: the objective's value is the log-ratio of the two lr_norm values
        x = 10.0**k * np.random.default_rng(12).standard_normal(space8.n_vel)
        v = np.linalg.norm(space8.velocity_values(x), axis=-1)
        g = discretization.mandel_norm(space8.velocity_gradients(x))
        expected = np.log(space8.lr_norm(r, v)) - np.log(space8.lr_norm(s, v, g))
        assert abs(discretization._sobolev_objective(space8, s, r)(x)[0] - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize(
    "domain, p, values, converged, ascent",
    [
        (
            RectDomain(),
            1.8,
            ("0x1.75d3411fa36b3p+0", "0x1.0000000000000p+0", "0x1.ffffffffffffcp-1"),
            (False, False, False),
            (("divfree", 40, 43, "cap", False), ("constant", 0, 2, None, True), ("constant", 0, 2, None, True)),
        ),
        (
            RectDomain(0.0, 0.0, 8.0, 2.0),
            1.6,
            ("0x1.741370d68d8a4p+0", "0x1.87872054ef121p-2", "0x1.306fe0a31b714p-2"),
            (False, False, False),
            (("divfree", 40, 41, "cap", False), ("bump", 40, 44, "cap", False), ("constant", 0, 2, None, True)),
        ),
    ],
    ids=["unit-square", "rectangle-8x2"],
)
def test_embedding_estimates_are_pinned(domain, p, values, converged, ascent):
    # the bitwise values, flags and ascent records of the three estimates on 8x8 meshes
    from pdeltaflow.certifier import compute_s

    emb = discretization.estimate_embedding_constants(build_space(domain, 8, 8), p, compute_s(p, 2))
    keys = ("korn_p", "sob_p_to_pstar", "sob_s_to_2pprime")
    assert tuple(float.hex(getattr(emb, k)) for k in keys) == values
    assert emb.converged == dict(zip(keys, converged))
    fields = ("start", "iters", "evaluations", "stop", "degenerate")
    assert emb.to_json()["ascent"] == {k: dict(zip(fields, a)) for k, a in zip(keys, ascent)}


class TestRatioAscent:
    """The L-BFGS ascent on a Rayleigh quotient, whose maximum is known."""

    @staticmethod
    def _rayleigh(n=30, seed=11):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.linspace(1.0, 4.0, n)
        a = (q * lam) @ q.T
        grads = []

        def objective(x):
            ax, xx = a @ x, x @ x
            val = 0.5 * (np.log(x @ ax) - np.log(xx))

            def grad():
                grads.append(1)
                return ax / (x @ ax) - x / xx

            return val, grad

        return objective, grads, 0.5 * np.log(lam[-1])

    def test_reaches_the_maximum_before_the_cap(self):
        objective, grads, top = self._rayleigh()
        x0 = np.random.default_rng(12).standard_normal(30)
        x0 /= np.linalg.norm(x0)
        x, val, stop, iters, evals = discretization._ratio_ascent(x0, objective(x0), objective, 500)
        assert stop in ("line_search", "flat") and iters < 500
        assert abs(val - top) <= 1e-10 and abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert len(grads) == iters + 1  # the gradient is built at accepted points only
        assert evals >= iters  # the start's evaluation is the caller's

    def test_cap_and_flat_stops(self):
        objective, _, top = self._rayleigh()
        x0 = np.random.default_rng(13).standard_normal(30)
        x0 /= np.linalg.norm(x0)
        first = objective(x0)
        _, val, stop, iters, _ = discretization._ratio_ascent(x0, first, objective, 3)
        assert stop == "cap" and iters == 3 and first[0] < val < top

        def flat(x):
            return 0.0, lambda: np.zeros_like(x)

        assert discretization._ratio_ascent(x0, flat(x0), flat, 10)[2:] == ("flat", 0, 0)


@pytest.mark.parametrize("iters", [0, -3, True, 2.5])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda space, iters: estimate_korn(space, 1.8, iters=iters),
        lambda space, iters: estimate_sobolev(space, 1.8, 4.5, iters=iters),
        lambda space, iters: estimate_dual_norm(space, np.zeros(space.n_vel), 1.8, iters=iters),
        lambda space, iters: discretization.estimate_embedding_constants(space, 1.8, 1.8, iters=iters),
    ],
    ids=["korn", "sobolev", "dual_norm", "embedding"],
)
def test_iteration_budget_is_a_positive_integer(space4, estimate, iters):
    # one range rule, run by every estimator before any work
    with pytest.raises(ValueError, match="iters must be an integer >= 1"):
        estimate(space4, iters)


def test_one_iteration_default():
    import inspect

    from pdeltaflow.cli import DEFAULT_CONFIG

    for fn in (estimate_korn, estimate_sobolev, discretization.estimate_embedding_constants):
        assert inspect.signature(fn).parameters["iters"].default == discretization.ASCENT_ITERS == 40
    assert DEFAULT_CONFIG["embedding"]["iters"] == discretization.ASCENT_ITERS


def test_korn_estimate_imports_no_scipy_optimize():
    # scipy.optimize adds about 15 MB of resident memory to every run that imports it
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(discretization.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, pdeltaflow.cli\n"
        "from pdeltaflow.discretization import RectDomain, build_space, estimate_korn\n"
        "estimate_korn(build_space(RectDomain(), 4, 4), 1.8)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestObjectiveGradients:
    """Central differences of each ascent objective against its gradient closure."""

    @staticmethod
    def _check(x0, objective, seed):
        rng = np.random.default_rng(seed)
        x = x0 / np.linalg.norm(x0) + 0.1 * rng.standard_normal(x0.size)
        d = rng.standard_normal(x.size)
        h = 1e-5
        _, grad = objective(x)
        fd = (objective(x + h * d)[0] - objective(x - h * d)[0]) / (2 * h)
        assert abs(fd - grad() @ d) <= 1e-6 * abs(fd)

    @staticmethod
    def _constant(space):
        return np.concatenate([np.ones(space.n_p2), np.zeros(space.n_p2)])

    def test_korn(self, space4):
        # the Korn objective takes |Du| and |grad u| from one Mandel-plus-skew GEMM, and its gradient from one load
        dom = space4.domain
        swirl = discretization._bump_velocity(space4, dom.centre, 0.32 * min(dom.x1 - dom.x0, dom.y1 - dom.y0))
        self._check(swirl.coeffs[space4.free_vel_dofs], discretization._korn_objective(space4, 1.5), 7)

    def test_sobolev(self, space4):
        self._check(self._constant(space4), discretization._sobolev_objective(space4, 1.5, 4.0), 8)

    def test_sobolev_scaled_path(self, space4):
        # a tiny multiple takes the objective's rescaled branch: same value, gradient scaled by 1/c
        x0, objective = self._constant(space4), discretization._sobolev_objective(space4, 1.5, 4.0)
        x = x0 / np.linalg.norm(x0) + 0.1 * np.random.default_rng(9).standard_normal(x0.size)
        c = 1e-100  # unscaled, |u|^4 would underflow to 0
        (val, grad), (val_c, grad_c) = objective(x), objective(c * x)
        assert abs(val_c - val) <= 1e-12 * abs(val)
        assert np.allclose(c * grad_c(), grad(), rtol=1e-10, atol=1e-12 * np.abs(grad()).max())


class TestDualNorm:
    def test_zero_load(self, space4):
        est = estimate_dual_norm(space4, np.zeros(space4.n_vel), 1.8)
        assert est.value == 0.0

    def test_p2_exact(self, space8):
        # for p = 2 the dual norm is sqrt(F K^-1 F) attained in one solve
        rng = np.random.default_rng(4)
        load = np.zeros(space8.n_vel)
        load[space8.free_vel_dofs] = rng.standard_normal(space8.free_vel_dofs.size)
        est = estimate_dual_norm(space8, load, 2.0)
        import scipy.sparse.linalg as spla

        free = space8.free_vel_dofs
        k = assembly.sym_grad_stiffness(space8)[free][:, free].tocsc()
        x = spla.splu(k).solve(load[free])
        assert abs(est.value - np.sqrt(load[free] @ x)) < 1e-9 * est.value

    def test_lower_bound_property(self, space8):
        rng = np.random.default_rng(5)
        load = np.zeros(space8.n_vel)
        load[space8.free_vel_dofs] = rng.standard_normal(space8.free_vel_dofs.size)
        est = estimate_dual_norm(space8, load, 1.6, iters=8)
        phi = est.witness
        assert abs(float(load @ phi.coeffs) / norm_sym_grad_p(phi, 1.6) - est.value) < 1e-12 * est.value

    def test_converged_flag(self, space8):
        rng = np.random.default_rng(5)
        load = np.zeros(space8.n_vel)
        load[space8.free_vel_dofs] = rng.standard_normal(space8.free_vel_dofs.size)
        assert not estimate_dual_norm(space8, load, 1.6, iters=1).converged
        assert estimate_dual_norm(space8, load, 2.0, iters=1).converged

    def test_stops_on_its_own_test(self, space32):
        # f = (0.1 sin(pi y), 0.05 x): the iterates agree to 1e-10 well before the budget of 15
        x, y = space32.qpts[..., 0], space32.qpts[..., 1]
        load = assembly.velocity_load(space32, np.stack([0.1 * np.sin(np.pi * y), 0.05 * x], axis=-1))
        est = estimate_dual_norm(space32, load, 1.8)
        assert est.converged and est.iters < 15
        free, weight, vals = space32.free_vel_dofs, np.ones_like(space32.qw), []
        for _ in range(15):  # the same fixed point with no stopping test
            c, _ = assembly.solve_saddle(space32, assembly.sym_grad_stiffness(space32, weight), load)
            dn_pt = discretization.mandel_norm(space32.sym_gradients(c))
            vals.append(float(load[free] @ c[free]) / space32.lr_norm(1.8, dn_pt))
            weight = np.maximum(dn_pt, 1e-10 * dn_pt.max()) ** (1.8 - 2.0)
        assert est.value == max(vals[: est.iters])  # the same iterates, stopped early
        # the iterates change by a factor of about 0.04 per step, so the tail past a change of
        # 1e-10 relative is about 4e-12 relative (4.0e-12 here)
        assert abs(est.value - max(vals)) <= 1e-11 * max(vals)


class TestDiscreteDivergence:
    def test_projection_oracle(self, space8):
        # the L2 projection of div v onto the pressure space, by p1_mass_solve;
        # div(x^2, 0) = 2x is linear, so the projection equals the interpolant;
        # oracle: explicit mass-matrix solve of the assembled load
        v = space8.interpolate_velocity((lambda x, y: x**2, lambda x, y: 0 * y))
        b = assembly.p1_load(space8, divergence_values(space8, v.coeffs))
        proj = space8.p1_mass_solve(b)
        assert np.abs(proj - 2.0 * space8.verts[:, 0]).max() < 1e-12
        ref = spla.spsolve(assembly.p1_mass(space8).tocsc(), b)
        assert np.abs(proj - ref).max() < 1e-12


class TestEvaluation:
    def test_prolongation_exact(self, space4, space8):
        rng = np.random.default_rng(6)
        u = space4.velocity_field(rng.standard_normal(space4.n_vel))
        pu = prolong_velocity(space4, space8, u)
        pts = rng.uniform(0.0, 1.0, (200, 2))
        assert np.abs(space4.eval_velocity(u.coeffs, pts) - space8.eval_velocity(pu.coeffs, pts)).max() < 1e-12

    def test_nodal_evaluation(self, space4):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(space4.n_vel)
        vals = space4.eval_velocity(c, space4.p2_coords)
        assert np.abs(np.concatenate([vals[:, 0], vals[:, 1]]) - c).max() < 1e-12


class TestTwoShapeEvaluation:
    """Oracle: dense per-cell formulas from each cell's own vertex Jacobian.

    A translated, non-square rectangle with hx != hy guards the analytic
    shape Jacobians and the even/odd cell convention of the tables.
    """

    @pytest.fixture(scope="class")
    def case(self):
        from pdeltaflow.discretization import _p2_basis, _triangle_rule

        s = build_space(RectDomain(0.3, -0.2, 1.7, 0.4), 5, 3)
        ref_pts, ref_w = _triangle_rule(s.quad_degree)
        _, ref_grads = _p2_basis(ref_pts)
        v = s.verts[s.cells]  # (C, 3, 2)
        jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        grads = np.einsum("qma,cab->cqmb", ref_grads, np.linalg.inv(jac))  # (C, Q, 6, 2)
        qw = np.abs(np.linalg.det(jac))[:, None] * ref_w
        rng = np.random.default_rng(11)
        data = {
            "x": rng.standard_normal(s.n_vel),
            "w": rng.uniform(0.5, 2.0, s.qw.shape),
            "b": rng.standard_normal(s.qw.shape + (2,)),
            "g1": rng.standard_normal(s.qw.shape),
            "S": rng.standard_normal(s.qw.shape + (2, 2)),
        }
        return s, grads, qw, data

    @staticmethod
    def _close(a, b):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @staticmethod
    def _dense(s, loc):
        out = np.zeros((s.n_vel, s.n_vel))
        np.add.at(out, (s.cell_vel[:, :, None], s.cell_vel[:, None, :]), loc)
        return out

    @staticmethod
    def _vec_load(s, loc):
        out = np.zeros(s.n_vel)
        np.add.at(out, s.cell_vel, loc.reshape(s.n_cells, 12))
        return out

    def test_weights_and_points(self, case):
        s, _, qw, _ = case
        self._close(s.qw, qw)
        assert abs(s.integrate(np.ones_like(s.qw)) - s.domain.measure) < 1e-14
        self._close(s.integrate(s.qpts[..., 0] * s.qpts[..., 1]), 0.5 * (1.7**2 - 0.3**2) * 0.5 * (0.4**2 - 0.2**2))

    def test_values_and_gradients(self, case):
        s, grads, _, d = case
        c = d["x"].reshape(2, s.n_p2)[:, s.cell_p2]  # (2, C, 6)
        self._close(s.velocity_values(d["x"]), np.einsum("qm,icm->cqi", s.p2_vals, c))
        g = np.einsum("cqma,icm->cqia", grads, c)
        ms = s.velocity_gradients(d["x"])
        self._close(ms, mandel_skew(g))
        self._close(gradient_matrices(ms), g)
        self._close(s.sym_gradients(d["x"]), mandel(g))
        self._close(np.einsum("cqa,cqa->cq", ms, ms), np.einsum("cqij,cqij->cq", g, g))

    def test_loads(self, case):
        s, grads, qw, d = case
        sl = np.einsum("cq,cqea,cqia->cei", qw, d["S"], grads)
        self._close(assembly.stress_load(s, mandel_skew(d["S"])), self._vec_load(s, sl))
        sym = 0.5 * (d["S"] + np.swapaxes(d["S"], -1, -2))
        sl = np.einsum("cq,cqea,cqia->cei", qw, sym, grads)  # <sym S, grad phi> = <sym S, D phi>
        self._close(assembly.stress_load(s, mandel(sym)), self._vec_load(s, sl))
        vl = np.einsum("cq,cqe,qi->cei", qw, d["b"], s.p2_vals)
        self._close(assembly.velocity_load(s, d["b"]), self._vec_load(s, vl))

    def test_stiffnesses(self, case):
        s, grads, qw, d = case
        w = qw * d["w"]
        t1 = np.einsum("cq,cqma,cqia->cim", w, grads, grads)
        x = np.einsum("cq,cqma,cqib->cmaib", w, grads, grads)
        full = np.zeros((s.n_cells, 12, 12))
        sym = np.zeros((s.n_cells, 12, 12))
        for e in range(2):
            full[:, e * 6:(e + 1) * 6, e * 6:(e + 1) * 6] = t1
            for c in range(2):
                sym[:, e * 6:(e + 1) * 6, c * 6:(c + 1) * 6] = 0.5 * x[:, :, e, :, c].transpose(0, 2, 1) + 0.5 * (e == c) * t1
        self._close(assembly.full_grad_stiffness(s, d["w"]).toarray(), self._dense(s, full))
        self._close(assembly.sym_grad_stiffness(s, d["w"]).toarray(), self._dense(s, sym))

    @staticmethod
    def _transport_loc(s, grads, qw, d):
        v, b = s.p2_vals, d["b"]
        bdot = np.einsum("cqia,cqa->cqi", grads, b)
        a1 = np.einsum("cq,qm,cqi->cim", qw, v, bdot)
        y = np.einsum("cq,qm,cqe,cqid->cimed", qw, v, b, grads)
        mg = np.einsum("cq,cq,qm,qi->cim", qw, d["g1"], v, v)
        loc = np.zeros((s.n_cells, 12, 12))
        for e in range(2):
            for c in range(2):
                loc[:, e * 6:(e + 1) * 6, c * 6:(c + 1) * 6] = -0.5 * y[:, :, :, e, c] - (e == c) * (0.5 * a1 + mg)
        return loc

    def test_transport(self, case):
        s, grads, qw, d = case
        loc = self._transport_loc(s, grads, qw, d)
        self._close(assembly.modulus_stiffness(s, np.zeros_like(s.qw), d["b"], d["g1"]).toarray(), self._dense(s, loc))

    def test_modulus_stiffness(self, case):
        """A general symmetric modulus per point, on both shapes, plus the transport form."""
        s, grads, qw, d = case
        dphi = np.zeros((s.n_cells, s.nq, 2, 6, 2, 2))  # D phi_(e,m) = sym(e_e x grad N_m)
        for e in range(2):
            dphi[:, :, e, :, e, :] = 0.5 * grads
            dphi[:, :, e, :, :, e] += 0.5 * grads
        dphi = dphi.reshape(s.n_cells, s.nq, 12, 2, 2)
        comp = np.stack([dphi[..., 0, 0], dphi[..., 1, 1], np.sqrt(2.0) * dphi[..., 0, 1]], axis=-1)
        m = np.random.default_rng(12).standard_normal(s.qw.shape + (3, 3))
        m += np.swapaxes(m, -1, -2)
        loc = np.einsum("cq,cqab,cqra,cqsb->crs", qw, m, comp, comp)
        self._close(assembly.modulus_stiffness(s, m).toarray(), self._dense(s, loc))
        loc += self._transport_loc(s, grads, qw, d)
        self._close(assembly.modulus_stiffness(s, m, d["b"], d["g1"]).toarray(), self._dense(s, loc))

    def test_div_coupling(self, case):
        s, grads, qw, _ = case
        loc = np.einsum("cq,qr,cqmb->crbm", qw, s.p1_vals, grads).reshape(s.n_cells, 3, 12)
        ref = np.zeros((s.n_p1, s.n_vel))
        np.add.at(ref, (s.cell_p1[:, :, None], s.cell_vel[:, None, :]), loc)
        self._close(assembly.div_coupling(s).toarray(), ref)


def test_embedding_constants_normalized(space8):
    from pdeltaflow.discretization import estimate_embedding_constants

    emb = estimate_embedding_constants(space8, 1.8, 1.8, iters=40)
    assert emb.korn_p >= 1.0
    assert emb.sob_p_to_pstar >= 1.0 - 1e-9
    assert emb.sob_s_to_2pprime >= 1.0 - 1e-9
