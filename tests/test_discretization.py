import numpy as np
import pytest

from pdeltaflow import assembly, discretization
from pdeltaflow.discretization import (
    ExponentRangeError,
    DiscreteSpace,
    Field,
    RectDomain,
    build_space,
    critical_exponent,
    discrete_divergence,
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

from conftest import asymmetric_divfree


class TestBuildSpace:
    def test_coarse_space_stable(self, unit_domain):
        s = build_space(unit_domain, 2, 2)
        assert s.inf_sup > 1e-6

    def test_degenerate_mesh_rejected(self, unit_domain):
        with pytest.raises(ValueError):
            build_space(unit_domain, 1, 4)

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

    def test_infsup_matches_dense_svd(self, unit_domain):
        # oracle: dense singular values of the scaled coupling on the coarse mesh
        s = build_space(unit_domain, 2, 2)
        free = s.free_vel_dofs
        b = assembly.div_coupling(s)[:, free].toarray()
        kdiag = assembly.full_grad_stiffness(s).diagonal()[free]
        mlump = np.asarray(assembly.p1_mass(s).sum(axis=1)).ravel()
        scaled = np.diag(1 / np.sqrt(mlump)) @ b @ np.diag(1 / np.sqrt(kdiag))
        svals = np.sort(np.linalg.svd(scaled, compute_uv=False))
        assert abs(svals[1] - s.inf_sup) < 1e-10

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
        p = s.scalar_field(np.arange(s.n_p1, dtype=float))
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
        assert est.start == "constant" and est.iters == 0 and est.converged
        assert len(calls) == 2  # one objective call each for the constant and the bump
        assert abs(est.value - 2.0 ** (1.0 / 4.5 - 1.0 / 1.8)) <= 1e-14
        const = np.concatenate([np.ones(space.n_p2), np.zeros(space.n_p2)])
        assert np.array_equal(est.witness.coeffs, const / np.linalg.norm(const))

    def test_large_exponents_stay_finite(self, space4):
        # p = 1.001 gives s = 500.5 and 2p' = 2002: unscaled powers of a unit vector underflow to log(0)
        est = estimate_sobolev(space4, 500.5, 2002.0, iters=10)
        assert np.isfinite(est.value) and est.value >= 1.0 - 1e-9

    def test_constant_normalization(self, space8):
        # on the unit square the constant field realizes ratio 1
        est = estimate_sobolev(space8, 1.8, 4.5, iters=60)
        assert est.value >= 1.0 - 1e-9


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
        x, val, stop, iters, evals = discretization._ratio_ascent(x0, objective, 500)
        assert stop in ("line_search", "flat") and iters < 500
        assert abs(val - top) <= 1e-10 and abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert len(grads) == iters + 1  # the gradient is built at accepted points only
        assert evals >= iters + 1

    def test_cap_and_flat_stops(self):
        objective, _, top = self._rayleigh()
        x0 = np.random.default_rng(13).standard_normal(30)
        first = objective(x0 / np.linalg.norm(x0))[0]
        _, val, stop, iters, _ = discretization._ratio_ascent(x0, objective, 3)
        assert stop == "cap" and iters == 3 and first < val < top

        def flat(x):
            return 0.0, lambda: np.zeros_like(x)

        assert discretization._ratio_ascent(x0, flat, 10)[2:] == ("flat", 0, 1)


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
        # the Korn objective takes |Du| from Mandel components and its gradient from grad u and grad u^T
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


class TestDiscreteDivergence:
    def test_divergence_free(self, space8):
        v = space8.interpolate_velocity((lambda x, y: x, lambda x, y: -y))
        assert np.abs(discrete_divergence(v).coeffs).max() < 1e-12

    def test_constant_divergence(self, space8):
        v = space8.interpolate_velocity((lambda x, y: x, lambda x, y: y))
        assert np.abs(discrete_divergence(v).coeffs - 2.0).max() < 1e-12

    def test_projection_oracle(self, space8):
        # div(x^2, 0) = 2x is linear, so the projection equals the interpolant;
        # oracle: explicit mass-matrix solve of the assembled load
        v = space8.interpolate_velocity((lambda x, y: x**2, lambda x, y: 0 * y))
        proj = discrete_divergence(v)
        assert np.abs(proj.coeffs - 2.0 * space8.verts[:, 0]).max() < 1e-12
        import scipy.sparse.linalg as spla

        b = assembly.p1_load(space8, divergence_values(space8, v.coeffs))
        ref = spla.spsolve(assembly.p1_mass(space8).tocsc(), b)
        assert np.abs(proj.coeffs - ref).max() < 1e-12


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
        self._close(s.velocity_gradients(d["x"]), np.einsum("cqma,icm->cqia", grads, c))

    def test_loads(self, case):
        s, grads, qw, d = case
        sl = np.einsum("cq,cqea,cqia->cei", qw, d["S"], grads)
        self._close(assembly.stress_load(s, d["S"]), self._vec_load(s, sl))
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

    def test_transport(self, case):
        s, grads, qw, d = case
        v, b = s.p2_vals, d["b"]
        bdot = np.einsum("cqia,cqa->cqi", grads, b)
        a1 = np.einsum("cq,qm,cqi->cim", qw, v, bdot)
        y = np.einsum("cq,qm,cqe,cqid->cimed", qw, v, b, grads)
        mg = np.einsum("cq,cq,qm,qi->cim", qw, d["g1"], v, v)
        loc = np.zeros((s.n_cells, 12, 12))
        for e in range(2):
            for c in range(2):
                loc[:, e * 6:(e + 1) * 6, c * 6:(c + 1) * 6] = -0.5 * y[:, :, :, e, c] - (e == c) * (0.5 * a1 + mg)
        self._close(assembly.transport_matrix(s, b, d["g1"]).toarray(), self._dense(s, loc))

    def test_rank_one(self, case):
        s, grads, qw, d = case
        a = 0.5 * (d["S"] + np.swapaxes(d["S"], -1, -2))
        proj = np.einsum("cqea,cqma->cqem", a, grads).reshape(s.n_cells, s.nq, 12)  # A : D phi_(e,m)
        loc = np.einsum("cq,cqr,cqs->crs", qw * d["w"], proj, proj)
        self._close(assembly.rank_one_stiffness(s, d["w"], a).toarray(), self._dense(s, loc))

    def test_div_coupling(self, case):
        s, grads, qw, _ = case
        loc = np.einsum("cq,qr,cqmb->crbm", qw, s.p1_vals, grads).reshape(s.n_cells, 3, 12)
        ref = np.zeros((s.n_p1, s.n_vel))
        np.add.at(ref, (s.cell_p1[:, :, None], s.cell_vel[:, None, :]), loc)
        self._close(assembly.div_coupling(s).toarray(), ref)


class TestStabilityGuard:
    def test_infsup_threshold_aborts(self, unit_domain):
        from pdeltaflow.discretization import DiscreteSpace, SpaceBuildError

        with pytest.raises(SpaceBuildError):
            DiscreteSpace(unit_domain, 4, 4, infsup_tol=1.0)


def test_embedding_constants_normalized(space8):
    from pdeltaflow.discretization import estimate_embedding_constants

    emb = estimate_embedding_constants(space8, 1.8, 1.8, iters=40)
    assert emb.korn_p >= 1.0
    assert emb.sob_p_to_pstar >= 1.0 - 1e-9
    assert emb.sob_s_to_2pprime >= 1.0 - 1e-9
