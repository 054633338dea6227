import numpy as np
import pytest

from pdeltaflow import assembly
from pdeltaflow.certifier import check_smallness, compute_constants, weighted_shear_norm
from pdeltaflow.constitutive import PDeltaModel
from pdeltaflow.discretization import build_space, divergence_values, norm_Lp, norm_sym_grad_p
from pdeltaflow.lifting import BoundaryData, lift
from pdeltaflow.solver import (
    CertificationRequired,
    SolverConfig,
    SolverError,
    _data_scale,
    apply_P,
    apply_S,
    apply_T,
    apply_penalty,
    continuation_solve,
    convective_identity_diagnostics,
    default_config,
    make_instance,
    penalty_norm,
    recover_pressure,
    solve_regularized,
)

from conftest import asymmetric_divfree, manufactured_case, tangential_g2


@pytest.fixture(scope="module")
def inst8(pipeline8):
    return make_instance(pipeline8["model"], pipeline8["space"], lift_field=pipeline8["lift"])


def _random_zero_boundary(space, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    c = np.zeros(space.n_vel)
    c[space.free_vel_dofs] = scale * rng.standard_normal(space.free_vel_dofs.size)
    return space.velocity_field(c)


class TestConfig:
    def test_default_config(self):
        cfg = default_config(1.8)
        assert cfg.q == 3.0
        assert cfg.n_schedule == (10, 40, 160, 640, 2560, 10240, 40960)
        cfg24 = default_config(2.4, levels=3)
        assert cfg24.q == 3.4 and len(cfg24.n_schedule) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(q=3.0, n_schedule=(10, 10))
        with pytest.raises(ValueError):
            SolverConfig(q=3.0, n_schedule=(10,), picard_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(q=3.0, n_schedule=(10,), damping=0.0)


class TestOperators:
    def test_apply_S_zero(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        u = space8.zero_velocity()
        phi = _random_zero_boundary(space8, 0)
        assert apply_S(inst, u, phi) == 0.0

    def test_apply_S_stokes_form(self, space8):
        # p = 2, mu0 = 0, mu = 1, g = 0: <Du, Dphi> as a bilinear form
        m = PDeltaModel(p=2.0, delta=0.3)
        inst = make_instance(m, space8)
        u = _random_zero_boundary(space8, 1)
        phi = _random_zero_boundary(space8, 2)
        k = assembly.sym_grad_stiffness(space8)
        ref = float(u.coeffs @ (k @ phi.coeffs))
        assert abs(apply_S(inst, u, phi) - ref) < 1e-12 * max(abs(ref), 1.0)

    def test_apply_S_linear_in_phi(self, inst8):
        space = inst8.space
        u = _random_zero_boundary(space, 3)
        a = _random_zero_boundary(space, 4)
        b = _random_zero_boundary(space, 5)
        ab = space.velocity_field(2.0 * a.coeffs - 0.5 * b.coeffs)
        lhs = apply_S(inst8, u, ab)
        rhs = 2.0 * apply_S(inst8, u, a) - 0.5 * apply_S(inst8, u, b)
        assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)

    def test_apply_S_second_rule_oracle(self, unit_domain):
        # same mesh with a higher-order rule as the independent evaluation;
        # exact agreement for the polynomial integrand (p = 2), quadrature
        # agreement for the smooth shear-thinning weight
        sa = build_space(unit_domain, 8, 8, quad_degree=8)
        sb = build_space(unit_domain, 8, 8, quad_degree=14)
        ux, uy = asymmetric_divfree()
        u = sa.interpolate_velocity((ux, uy)).coeffs
        phi = sa.interpolate_velocity(
            (lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), lambda x, y: (x * (1 - x) * y * (1 - y)) ** 2)
        ).coeffs
        m2 = PDeltaModel(p=2.0, delta=0.0)
        va = apply_S(make_instance(m2, sa), sa.velocity_field(u), sa.velocity_field(phi))
        vb = apply_S(make_instance(m2, sb), sb.velocity_field(u), sb.velocity_field(phi))
        assert abs(va - vb) < 1e-10 * max(abs(va), 1.0)
        m15 = PDeltaModel(p=1.5, delta=0.2)
        wa = apply_S(make_instance(m15, sa), sa.velocity_field(u), sa.velocity_field(phi))
        wb = apply_S(make_instance(m15, sb), sb.velocity_field(u), sb.velocity_field(phi))
        assert abs(wa - wb) < 1e-4 * max(abs(wa), 1.0)

    def test_apply_T_zero_total_field(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        phi = _random_zero_boundary(space8, 8)
        assert apply_T(inst, space8.zero_velocity(), phi) == 0.0

    def test_apply_T_constant_field(self, space8):
        # u+g = c constant, div g = 0: <c x c, D phi> = 0 for zero-boundary phi
        m = PDeltaModel(p=1.8, delta=0.1)
        lf = lift(BoundaryData(g1=0.0, g2=(lambda x, y: 0.7 + 0 * x, lambda x, y: -0.3 + 0 * x)), space8, 1.8, 1.8)
        inst = make_instance(m, space8, lift_field=lf)
        phi = _random_zero_boundary(space8, 9)
        assert abs(apply_T(inst, space8.zero_velocity(), phi)) < 1e-12

    def test_apply_T_skew_defect_decreases(self, unit_domain):
        m = PDeltaModel(p=1.8, delta=0.1)
        ux, uy = asymmetric_divfree()
        defects = []
        for n in (4, 8, 16):
            s = build_space(unit_domain, n, n)
            inst = make_instance(m, s)
            u = s.interpolate_velocity((ux, uy))
            defects.append(abs(apply_T(inst, u, u)))
        assert defects[0] > defects[1] > defects[2]

    def test_apply_P_zero(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        u = space8.zero_velocity()
        assert apply_P(inst, u, _random_zero_boundary(space8, 10)) == 0.0

    def test_penalty_identity(self, space8):
        u = _random_zero_boundary(space8, 11)
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        q, n = 3.0, 7.0
        # <(1/n)|Du|^{q-2}Du, Du> equals n^-1 ||Du||_q^q
        val = apply_penalty(inst, u, u, q, n)
        assert abs(val - norm_sym_grad_p(u, q) ** q / n) < 1e-12 * max(val, 1.0)
        assert abs(penalty_norm(u, q, n) - norm_sym_grad_p(u, q) ** (q - 1.0) / n) < 1e-14


    def test_oracles_are_the_picard_residual(self, inst8):
        # at a converged level, apply_P + apply_penalty - <pi, div phi> is the
        # residual that the Picard loop drove below picard_tol, tested against phi
        cfg = default_config(1.8, levels=1, picard_tol=1e-9)
        n = cfg.n_schedule[0]
        rec = solve_regularized(inst8, cfg, n)
        assert rec.converged
        space = inst8.space
        bound = cfg.picard_tol * _data_scale(inst8, cfg)
        for seed in range(3):
            phi = _random_zero_boundary(space, 400 + seed)
            press = space.integrate(space.p1_values(rec.pi.coeffs) * divergence_values(space, phi.coeffs))
            val = apply_P(inst8, rec.u, phi) + apply_penalty(inst8, rec.u, phi, cfg.q, n) - press
            assert abs(val) <= bound * np.linalg.norm(phi.coeffs)


class TestMonotoneConsistency:
    def test_pairwise_monotonicity(self, inst8):
        space = inst8.space
        rng = np.random.default_rng(12)
        for k in range(5):
            u = _random_zero_boundary(space, 100 + k, scale=10.0 ** rng.uniform(-1, 1))
            w = _random_zero_boundary(space, 200 + k, scale=10.0 ** rng.uniform(-1, 1))
            diff = space.velocity_field(u.coeffs - w.coeffs)
            val = apply_S(inst8, u, diff) - apply_S(inst8, w, diff)
            scale = norm_sym_grad_p(diff, 2.0) ** 2
            assert val >= -1e-10 * scale

    def test_lower_bound_of_induced_operator(self, inst8, pipeline8):
        chars = pipeline8["chars"]
        m = pipeline8["model"]
        shear = weighted_shear_norm(pipeline8["lift"], m.p, m.delta)
        ux, uy = asymmetric_divfree()
        fields = [inst8.space.interpolate_velocity((ux, uy))]
        fields += [_random_zero_boundary(inst8.space, 300 + k) for k in range(3)]
        for u in fields:
            for scale in (0.1, 1.0, 5.0):
                us = inst8.space.velocity_field(scale * u.coeffs)
                lhs = apply_S(inst8, us, us)
                ndu = norm_sym_grad_p(us, m.p)
                rhs = chars.C3 / m.p * ndu**m.p - (chars.C2 + chars.C3) * shear ** (m.p - 1) * ndu
                assert lhs >= rhs - 1e-8 * max(abs(lhs), 1.0)

    def test_convective_bound(self, inst8, pipeline8):
        emb = pipeline8["emb"]
        lf = pipeline8["lift"]
        m = pipeline8["model"]
        ux, uy = asymmetric_divfree()
        u = inst8.space.interpolate_velocity((ux, uy))
        for scale in (0.2, 1.0, 4.0):
            us = inst8.space.velocity_field(scale * u.coeffs)
            ndu = norm_sym_grad_p(us, m.p)
            lhs = abs(apply_T(inst8, us, us))
            rhs = emb.sob_p_to_pstar * emb.korn_p**2 * (lf.norms["Dg_s"] + 0.5 * lf.norms["div_s"]) * ndu**2
            rhs += emb.sob_s_to_2pprime * (lf.norms["W1s"] ** 2 + emb.korn_p * lf.norms["div_s"] * lf.norms["W1s"]) * ndu
            assert lhs <= rhs


class TestSolveRegularized:
    def test_zero_data_one_iteration(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        rec = solve_regularized(inst, default_config(1.8, levels=1), 10)
        assert rec.iters == 1
        assert rec.converged
        assert np.all(rec.u.coeffs == 0.0)

    def test_penalty_norm_recomputed(self, pipeline8):
        inst = make_instance(pipeline8["model"], pipeline8["space"], lift_field=pipeline8["lift"])
        cfg = default_config(1.8, levels=1, picard_tol=1e-9)
        rec = solve_regularized(inst, cfg, 10)
        assert rec.converged
        direct = norm_sym_grad_p(rec.u, cfg.q) ** (cfg.q - 1.0) / 10.0
        assert abs(rec.penalty_norm - direct) < 1e-13 * max(direct, 1e-300)

    def test_stokes_limit_matches_linear_solver(self, space8):
        # independent oracle: assemble and solve the linear Stokes system
        m = PDeltaModel(p=2.0, delta=0.0)
        rng = np.random.default_rng(13)
        f_vec = np.zeros(space8.n_vel)
        f_vec[space8.free_vel_dofs] = rng.standard_normal(space8.free_vel_dofs.size)
        inst = make_instance(m, space8, f=f_vec)
        cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, include_convective=False)
        rec = solve_regularized(inst, cfg, np.inf)
        assert rec.iters == 1
        k = assembly.sym_grad_stiffness(space8)
        u_ref, _ = assembly.solve_saddle(space8, k, f_vec, np.zeros(space8.n_p1))
        assert np.abs(rec.u.coeffs - u_ref).max() < 1e-10


def test_solve_saddle_matches_dense_mean_row_oracle(space4):
    # nonsymmetric matrix, nonzero Dirichlet values and compatible divergence
    # data, against the system bordered by the pressure-mean row
    s = space4
    rng = np.random.default_rng(3)
    b_vals = s.velocity_values(rng.standard_normal(s.n_vel))
    g1_vals = rng.standard_normal((s.n_cells, s.nq))
    a = assembly.sym_grad_stiffness(s) + assembly.transport_matrix(s, b_vals, g1_vals)
    rhs = rng.standard_normal(s.n_vel)
    u_data = rng.standard_normal(s.n_vel)
    div_rhs = assembly.div_coupling(s) @ u_data
    u, lam = assembly.solve_saddle(s, a, rhs, div_rhs, fixed_vals=u_data)

    free, fixed = s.free_vel_dofs, s.boundary_vel_dofs
    ad, c = a.toarray(), assembly.div_coupling(s).toarray()
    mean = s.pressure_mean_vector()
    nf, npr = free.size, s.n_p1
    sys = np.zeros((nf + npr + 1, nf + npr + 1))
    sys[:nf, :nf] = ad[np.ix_(free, free)]
    sys[:nf, nf:nf + npr] = c[:, free].T
    sys[nf:nf + npr, :nf] = c[:, free]
    sys[nf:nf + npr, -1] = mean
    sys[-1, nf:nf + npr] = mean
    r = np.concatenate([
        rhs[free] - ad[np.ix_(free, fixed)] @ u_data[fixed],
        div_rhs - c[:, fixed] @ u_data[fixed],
        [0.0],
    ])
    sol = np.linalg.solve(sys, r)
    u_ref = u_data.copy()
    u_ref[free] = sol[:nf]
    assert np.abs(sol[-1]) < 1e-10  # compatible data: no defect in the mean row
    assert np.abs(u - u_ref).max() < 1e-10
    assert np.abs(s.pressure_field(lam).coeffs - s.pressure_field(sol[nf:nf + npr]).coeffs).max() < 1e-10


def _oracle_system(s):
    """The nonsymmetric saddle system of the dense-oracle test: (a, rhs, div_rhs, u_data)."""
    rng = np.random.default_rng(3)
    b_vals = s.velocity_values(rng.standard_normal(s.n_vel))
    g1_vals = rng.standard_normal((s.n_cells, s.nq))
    a = assembly.sym_grad_stiffness(s) + assembly.transport_matrix(s, b_vals, g1_vals)
    rhs = rng.standard_normal(s.n_vel)
    u_data = rng.standard_normal(s.n_vel)
    return a, rhs, assembly.div_coupling(s) @ u_data, u_data


class TestFactorReuse:
    def test_stale_factor_is_refined(self, space4):
        s = space4
        a, rhs, div_rhs, u_data = _oracle_system(s)
        u_ref, lam_ref = assembly.solve_saddle(s, a, rhs, div_rhs, fixed_vals=u_data)
        near = a.copy()
        near.data *= 1.0 + 1e-3 * np.random.default_rng(5).standard_normal(near.nnz)
        held = assembly.FactorHolder()
        assembly.solve_saddle(s, near, rhs, div_rhs, fixed_vals=u_data, factor=held)
        lu = held.lu
        u, lam = assembly.solve_saddle(s, a, rhs, div_rhs, fixed_vals=u_data, factor=held)
        assert held.factorizations == 1 and held.lu is lu and held.refinements > 0
        assert np.abs(u - u_ref).max() < 1e-10
        assert np.abs(lam - lam_ref).max() < 1e-10

    def test_unrelated_factor_is_replaced(self, space4):
        s = space4
        a, rhs, div_rhs, u_data = _oracle_system(s)
        u_ref, lam_ref = assembly.solve_saddle(s, a, rhs, div_rhs, fixed_vals=u_data)
        weight = 10.0 ** np.random.default_rng(6).uniform(-2.0, 2.0, (s.n_cells, s.nq))
        held = assembly.FactorHolder()
        assembly.solve_saddle(s, assembly.sym_grad_stiffness(s, weight), rhs, div_rhs, fixed_vals=u_data, factor=held)
        lu = held.lu
        u, lam = assembly.solve_saddle(s, a, rhs, div_rhs, fixed_vals=u_data, factor=held)
        assert held.factorizations == 2 and held.lu is not lu
        assert np.abs(u - u_ref).max() < 1e-10
        assert np.abs(lam - lam_ref).max() < 1e-10

    def test_singular_system_raises(self, space4, monkeypatch):
        s = space4
        _, rhs, div_rhs, _ = _oracle_system(s)
        zero = assembly.sym_grad_stiffness(s)
        zero.data[:] = 0.0
        with pytest.raises(RuntimeError):
            assembly.solve_saddle(s, zero, rhs, div_rhs)
        stiffness = assembly.sym_grad_stiffness

        def zero_stiffness(space, weight=None):
            k = stiffness(space, weight)
            k.data[:] = 0.0
            return k

        monkeypatch.setattr(assembly, "sym_grad_stiffness", zero_stiffness)
        f_vec = np.zeros(s.n_vel)
        f_vec[s.free_vel_dofs] = 1.0
        inst = make_instance(PDeltaModel(p=1.8, delta=0.1), s, f=f_vec)
        cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, include_convective=False)
        with pytest.raises(SolverError):
            solve_regularized(inst, cfg, np.inf)

    def test_continuation_matches_fresh_factors(self, pipeline8, monkeypatch):
        m, lf = pipeline8["model"], pipeline8["lift"]
        g1c, g2c, g3c = compute_constants(
            pipeline8["chars"], pipeline8["emb"], lf, 0.0, m.p, pipeline8["s"], m.delta
        )
        rep = check_smallness(g1c, g2c, g3c, m.p, s=pipeline8["s"])
        inst = make_instance(m, pipeline8["space"], lift_field=lf, report=rep)
        cfg = default_config(pipeline8["s"], levels=4, picard_tol=1e-9)
        held = continuation_solve(inst, cfg)
        solve = assembly.solve_saddle

        def fresh_solve(*args, factor=None, **kw):
            return solve(*args, **kw)

        monkeypatch.setattr(assembly, "solve_saddle", fresh_solve)
        fresh = continuation_solve(inst, cfg)
        assert sum(r.factorizations for r in held.records) < sum(r.iters for r in held.records)
        assert sum(r.refinements for r in held.records) > 0
        for a, b in zip(held.records, fresh.records):
            assert a.iters == b.iters
            for key in ("penalty_norm", "norm_Du_p", "norm_Du_q"):
                assert abs(a.row()[key] - b.row()[key]) <= 1e-10 * abs(b.row()[key])
        assert np.abs(held.pi.coeffs - fresh.pi.coeffs).max() <= 1e-8 * np.abs(fresh.pi.coeffs).max()


class TestContinuation:
    def test_refuses_uncertified(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        with pytest.raises(CertificationRequired):
            continuation_solve(inst, default_config(1.8, levels=1))

    def test_certified_small_data_run(self, pipeline8):
        m, lf = pipeline8["model"], pipeline8["lift"]
        g1c, g2c, g3c = compute_constants(
            pipeline8["chars"], pipeline8["emb"], lf, 0.0, m.p, pipeline8["s"], m.delta
        )
        rep = check_smallness(g1c, g2c, g3c, m.p, s=pipeline8["s"])
        assert rep.satisfied
        inst = make_instance(m, pipeline8["space"], lift_field=lf, report=rep)
        cfg = default_config(pipeline8["s"], levels=4, picard_tol=1e-9)
        res = continuation_solve(inst, cfg)
        assert res.converged and res.bound_ok and res.penalty_ok
        assert all(r.norm_Du_p <= rep.R * 1.05 for r in res.records)
        assert all(a > b for a, b in zip(res.diffs[:-1], res.diffs[1:]))  # Cauchy-decreasing

    def test_one_saddle_solve_per_picard_step(self, pipeline8, monkeypatch):
        m, lf = pipeline8["model"], pipeline8["lift"]
        g1c, g2c, g3c = compute_constants(
            pipeline8["chars"], pipeline8["emb"], lf, 0.0, m.p, pipeline8["s"], m.delta
        )
        rep = check_smallness(g1c, g2c, g3c, m.p, s=pipeline8["s"])
        inst = make_instance(m, pipeline8["space"], lift_field=lf, report=rep)
        cfg = default_config(pipeline8["s"], levels=4, picard_tol=1e-9)
        calls = []
        solve = assembly.solve_saddle

        def counting_solve(*args, **kw):
            calls.append(1)
            return solve(*args, **kw)

        monkeypatch.setattr(assembly, "solve_saddle", counting_solve)
        res = continuation_solve(inst, cfg)
        assert len(calls) == sum(r.iters for r in res.records)
        pi, _ = recover_pressure(inst, res.u, cfg=cfg, n=res.records[-1].n)
        assert np.abs(res.pi.coeffs - pi.coeffs).max() <= 1e-8 * np.abs(pi.coeffs).max()

    def test_zero_schedule_zero_data(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        rep = check_smallness(1.0, 0.0, 0.0, m.p)
        inst = make_instance(m, space8, report=rep)
        res = continuation_solve(inst, SolverConfig(q=3.0, n_schedule=(1,)))
        assert np.all(res.u.coeffs == 0.0)
        assert np.all(np.abs(res.pi.coeffs) < 1e-12)


class TestPressure:
    def test_stokes_manufactured_pressure(self, unit_domain):
        case = manufactured_case(2.0, 0.0, 0.0, 1.0, amp=0.3, convective=False)
        errs = []
        for n in (8, 16):
            s = build_space(unit_domain, n, n)
            inst = make_instance(case["model"], s, f=case["f"])
            cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, include_convective=False)
            rec = solve_regularized(inst, cfg, np.inf)
            pi, rel = recover_pressure(inst, rec.u, cfg=cfg)
            pex = s.interpolate_scalar(case["pi"])
            pex = s.pressure_field(pex.coeffs)
            errs.append(norm_Lp(s.scalar_field(pi.coeffs - pex.coeffs), 2.0))
            assert rel < 1e-9
        assert errs[1] < errs[0] / 2

    def test_mean_zero_normalization(self, pipeline8):
        inst = make_instance(pipeline8["model"], pipeline8["space"], lift_field=pipeline8["lift"])
        rec = solve_regularized(inst, default_config(1.8, levels=1), 10)
        space = pipeline8["space"]
        assert abs(space.integrate(space.p1_values(rec.pi.coeffs))) < 1e-12


class TestManufacturedConvergence:
    @pytest.mark.parametrize("p,delta", [(1.8, 0.1), (2.0, 0.0)])
    def test_velocity_error_decreases(self, unit_domain, p, delta):
        case = manufactured_case(p, delta, 0.0, 1.0, amp=0.3)
        errs = []
        for n in (4, 8, 16):
            s = build_space(unit_domain, n, n)
            inst = make_instance(case["model"], s, f=case["f"])
            cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, picard_tol=1e-10)
            rec = solve_regularized(inst, cfg, np.inf)
            assert rec.converged
            uex = s.interpolate_velocity(case["u"])
            errs.append(norm_Lp(s.velocity_field(rec.u.coeffs - uex.coeffs), 2.0))
        assert errs[0] > errs[1] > errs[2]
        order = np.log2(errs[1] / errs[2])
        assert order >= 1.5


class TestConvectiveIdentities:
    def test_zero_field(self, inst8):
        d = convective_identity_diagnostics(inst8, inst8.space.zero_velocity())
        assert d["skew"] == 0.0 and d["regroup"] == 0.0

    def test_regroup_matches_direct_analytic(self, unit_domain, space32, model18):
        # exactly divergence-free analytic input, evaluated pointwise: the
        # regrouping agrees with the direct form to quadrature precision
        import sympy as sy

        x, y = sy.symbols("x y")
        psi = (x * (1 - x) * y * (1 - y)) ** 2 * sy.exp(2 * x - y) * 30
        comps = (sy.diff(psi, y), -sy.diff(psi, x))
        vals = [sy.lambdify((x, y), e, "numpy") for e in comps]
        grads = [sy.lambdify((x, y), sy.diff(e, v), "numpy") for e in comps for v in (x, y)]
        lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.3)), space32, 1.8, 1.8)
        inst = make_instance(model18, space32, lift_field=lf)
        xq, yq = space32.qpts[..., 0], space32.qpts[..., 1]
        uv = np.stack([vals[0](xq, yq), vals[1](xq, yq)], axis=-1)
        gu = np.stack(
            [
                np.stack([grads[0](xq, yq), grads[1](xq, yq)], axis=-1),
                np.stack([grads[2](xq, yq), grads[3](xq, yq)], axis=-1),
            ],
            axis=-2,
        )
        d = convective_identity_diagnostics(inst, (uv, gu))
        assert d["regroup_rel"] < 1e-9

    def test_regroup_interpolant_defect_small(self, inst8):
        ux, uy = asymmetric_divfree()
        u = inst8.space.interpolate_velocity((ux, uy))
        d = convective_identity_diagnostics(inst8, u)
        assert d["regroup"] < 1e-3  # interpolation-level defect on 8x8

    def test_defects_decrease_under_refinement(self, unit_domain):
        m = PDeltaModel(p=1.8, delta=0.01)
        ux, uy = asymmetric_divfree()
        rows = []
        for n in (8, 16, 32):
            s = build_space(unit_domain, n, n)
            lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.3)), s, 1.8, 1.8)
            inst = make_instance(m, s, lift_field=lf)
            u = s.interpolate_velocity((ux, uy))
            d = convective_identity_diagnostics(inst, u)
            rows.append([d["skew"], d["transport_grad"], d["transport_grad_T"], d["regroup"]])
        for prev, cur in zip(rows[:-1], rows[1:]):
            for a, b in zip(prev, cur):
                assert b <= a / 2.0 or b < 1e-12
