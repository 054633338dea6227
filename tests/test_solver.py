import gc
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdeltaflow import assembly, solver
from pdeltaflow.certifier import check_smallness, compute_constants, weighted_shear_norm
from pdeltaflow.constitutive import PDeltaModel, _stress_factor
from pdeltaflow.discretization import (
    DiscreteSpace,
    Field,
    RectDomain,
    _over,
    build_space,
    divergence_values,
    mandel_norm,
    norm_Lp,
    norm_sym_grad_p,
)
from pdeltaflow.lifting import BoundaryData, lift
from pdeltaflow.solver import (
    CertificationRequired,
    SolverConfig,
    SolverError,
    _data_scale,
    _linearize,
    _state,
    continuation_solve,
    convective_identity_diagnostics,
    default_config,
    make_instance,
    recover_pressure,
    solve_regularized,
)

from conftest import asymmetric_divfree, mandel_skew, manufactured_case, tangential_g2, weak_form


@pytest.fixture(scope="module")
def inst8(pipeline8):
    return make_instance(pipeline8["model"], pipeline8["space"], lift_field=pipeline8["lift"])


def _certified_instance(pipeline8):
    """A fresh instance of the certified 8x8 pipeline, with its satisfied smallness report."""
    m, lf, s = pipeline8["model"], pipeline8["lift"], pipeline8["s"]
    g1c, g2c, g3c = compute_constants(pipeline8["chars"], pipeline8["emb"], lf, 0.0, m.p, s, m.delta)
    return make_instance(m, pipeline8["space"], lift_field=lf, report=check_smallness(g1c, g2c, g3c, m.p, s=s))


def _assert_same_records(recs, refs):
    """Bitwise-equal level records: monitors, histories, solve counts, velocities and multipliers."""
    assert len(recs) == len(refs)
    for a, b in zip(recs, refs):
        keys = ("n", "iters", "residual", "converged", "penalty_norm", "norm_Du_p", "norm_Du_q", "level_norm")
        assert [getattr(a, k) for k in keys] == [getattr(b, k) for k in keys]
        assert a.residual_history == b.residual_history
        assert (a.factorizations, a.refinements, a.fallbacks) == (b.factorizations, b.refinements, b.fallbacks)
        assert np.array_equal(a.u.coeffs, b.u.coeffs) and np.array_equal(a.pi.coeffs, b.pi.coeffs)


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
            SolverConfig(q=3.0, n_schedule=(10,), picard_max=0)
        with pytest.raises(TypeError):  # the step is the full solve; there is no damping
            SolverConfig(q=3.0, n_schedule=(10,), damping=0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"picard_tol": float("nan")},
            {"picard_max": float("nan")},
            {"picard_max": 2.5},
            {"picard_max": True},
            {"q": float("inf")},
            {"q": float("nan")},
        ],
    )
    def test_rejects_nan_infinite_and_fractional_values(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**{"q": 3.0, "n_schedule": (10,), **bad})


class TestOperators:
    def test_apply_S_zero(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        u = space8.zero_velocity()
        phi = _random_zero_boundary(space8, 0)
        assert weak_form(inst, solver._stress_term, u, phi) == 0.0

    def test_apply_S_stokes_form(self, space8):
        # p = 2, mu0 = 0, mu = 1, g = 0: <Du, Dphi> as a bilinear form
        m = PDeltaModel(p=2.0, delta=0.3)
        inst = make_instance(m, space8)
        u = _random_zero_boundary(space8, 1)
        phi = _random_zero_boundary(space8, 2)
        k = assembly.sym_grad_stiffness(space8)
        ref = float(u.coeffs @ (k @ phi.coeffs))
        assert abs(weak_form(inst, solver._stress_term, u, phi) - ref) < 1e-12 * max(abs(ref), 1.0)

    def test_apply_S_linear_in_phi(self, inst8):
        space = inst8.space
        u = _random_zero_boundary(space, 3)
        a = _random_zero_boundary(space, 4)
        b = _random_zero_boundary(space, 5)
        ab = space.velocity_field(2.0 * a.coeffs - 0.5 * b.coeffs)
        lhs = weak_form(inst8, solver._stress_term, u, ab)
        rhs = 2.0 * weak_form(inst8, solver._stress_term, u, a) - 0.5 * weak_form(inst8, solver._stress_term, u, b)
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
        va = weak_form(make_instance(m2, sa), solver._stress_term, sa.velocity_field(u), sa.velocity_field(phi))
        vb = weak_form(make_instance(m2, sb), solver._stress_term, sb.velocity_field(u), sb.velocity_field(phi))
        assert abs(va - vb) < 1e-10 * max(abs(va), 1.0)
        m15 = PDeltaModel(p=1.5, delta=0.2)
        wa = weak_form(make_instance(m15, sa), solver._stress_term, sa.velocity_field(u), sa.velocity_field(phi))
        wb = weak_form(make_instance(m15, sb), solver._stress_term, sb.velocity_field(u), sb.velocity_field(phi))
        assert abs(wa - wb) < 1e-4 * max(abs(wa), 1.0)

    def test_apply_T_zero_total_field(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        phi = _random_zero_boundary(space8, 8)
        assert weak_form(inst, solver._transport_term, space8.zero_velocity(), phi) == 0.0

    def test_apply_T_constant_field(self, space8):
        # u+g = c constant, div g = 0: <c x c, D phi> = 0 for zero-boundary phi
        m = PDeltaModel(p=1.8, delta=0.1)
        lf = lift(BoundaryData(g1=0.0, g2=(lambda x, y: 0.7 + 0 * x, lambda x, y: -0.3 + 0 * x)), space8, 1.8, 1.8)
        inst = make_instance(m, space8, lift_field=lf)
        phi = _random_zero_boundary(space8, 9)
        assert abs(weak_form(inst, solver._transport_term, space8.zero_velocity(), phi)) < 1e-12

    def test_apply_T_skew_defect_decreases(self, unit_domain):
        m = PDeltaModel(p=1.8, delta=0.1)
        ux, uy = asymmetric_divfree()
        defects = []
        for n in (4, 8, 16):
            s = build_space(unit_domain, n, n)
            inst = make_instance(m, s)
            u = s.interpolate_velocity((ux, uy))
            defects.append(abs(weak_form(inst, solver._transport_term, u, u)))
        assert defects[0] > defects[1] > defects[2]

    def test_apply_P_zero(self, space8):
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        u = space8.zero_velocity()
        phi = _random_zero_boundary(space8, 10)
        cfg = SolverConfig(q=3.0, n_schedule=(10,), penalty=False)
        assert float(solver._momentum(inst, cfg, np.inf, _state(inst, cfg, u.coeffs)) @ phi.coeffs) == 0.0

    def test_penalty_identity(self, space8):
        u = _random_zero_boundary(space8, 11)
        m = PDeltaModel(p=1.8, delta=0.1)
        inst = make_instance(m, space8)
        q, n = 3.0, 7.0
        # <(1/n)|Du|^{q-2}Du, Du> equals n^-1 ||Du||_q^q
        val = weak_form(inst, solver._penalty_term, u, u, q, n)
        assert abs(val - norm_sym_grad_p(u, q) ** q / n) < 1e-12 * max(val, 1.0)
        assert abs(solver._penalty_of(norm_sym_grad_p(u, q), q, n) - norm_sym_grad_p(u, q) ** (q - 1.0) / n) < 1e-14


    def test_oracles_are_the_picard_residual(self, inst8):
        # at a converged level, the momentum residual (stress, penalty, transport,
        # load) - <pi, div phi> is what the Picard loop drove below picard_tol, tested against phi
        cfg = default_config(1.8, levels=1, picard_tol=1e-9)
        n = cfg.n_schedule[0]
        rec = solve_regularized(inst8, cfg, n)
        assert rec.converged
        space = inst8.space
        bound = cfg.picard_tol * _data_scale(inst8, cfg)
        state = _state(inst8, cfg, rec.u.coeffs)
        for seed in range(3):
            phi = _random_zero_boundary(space, 400 + seed)
            press = space.integrate(space.p1_values(rec.pi.coeffs) * divergence_values(space, phi.coeffs))
            val = float(solver._momentum(inst8, cfg, n, state) @ phi.coeffs) - press
            assert abs(val) <= bound * np.linalg.norm(phi.coeffs)


class TestMonotoneConsistency:
    def test_pairwise_monotonicity(self, inst8):
        space = inst8.space
        rng = np.random.default_rng(12)
        for k in range(5):
            u = _random_zero_boundary(space, 100 + k, scale=10.0 ** rng.uniform(-1, 1))
            w = _random_zero_boundary(space, 200 + k, scale=10.0 ** rng.uniform(-1, 1))
            diff = space.velocity_field(u.coeffs - w.coeffs)
            val = weak_form(inst8, solver._stress_term, u, diff) - weak_form(inst8, solver._stress_term, w, diff)
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
                lhs = weak_form(inst8, solver._stress_term, us, us)
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
            lhs = abs(weak_form(inst8, solver._transport_term, us, us))
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

    @pytest.mark.parametrize(
        "q, history, norms",
        [
            (
                3.0,
                ("0x1.a25b6b60c1d35p-13", "0x1.f97531b42b667p-34"),
                ("0x1.351a6ed335b2ap-11", "0x1.7dd5eb1a497cbp-11", "0x1.351a6ed335b2ap-11", "0x1.c79ec0710d1d6p-25"),
            ),
            (
                2.0,
                ("0x1.67be33627a010p-13", "0x1.566e0d498f892p-34"),
                ("0x1.21cd2aca70cbep-11", "0x1.2dbe4637e8444p-11", "0x1.21cd2aca70cbep-11", "0x1.e2ca09f30d3a0p-15"),
            ),
        ],
    )
    def test_cold_penalty_level_is_pinned(self, pipeline8, q, history, norms):
        # u = 0 at the cold start, so the first penalty weights see only zero strains; a fresh instance holds no LU
        inst = make_instance(pipeline8["model"], pipeline8["space"], lift_field=pipeline8["lift"])
        rec = solve_regularized(inst, SolverConfig(q=q, n_schedule=(10,)), 10.0)
        assert tuple(h.hex() for h in rec.residual_history) == history
        assert tuple(getattr(rec, k).hex() for k in ("norm_Du_p", "norm_Du_q", "level_norm", "penalty_norm")) == norms

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
    a = assembly.sym_grad_stiffness(s) + assembly.modulus_stiffness(s, np.zeros_like(s.qw), b_vals, g1_vals)
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
    a = assembly.sym_grad_stiffness(s) + assembly.modulus_stiffness(s, np.zeros_like(s.qw), b_vals, g1_vals)
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
        stiffness = assembly.modulus_stiffness

        def zero_stiffness(space, modulus, b_vals=None, g1_vals=None):
            k = stiffness(space, modulus, b_vals, g1_vals)
            k.data[:] = 0.0
            return k

        monkeypatch.setattr(assembly, "modulus_stiffness", zero_stiffness)
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
                assert abs(getattr(a, key) - getattr(b, key)) <= 1e-10 * abs(getattr(b, key))
        assert np.abs(held.pi.coeffs - fresh.pi.coeffs).max() <= 1e-8 * np.abs(fresh.pi.coeffs).max()


def _natural_block(s, a, c=None):
    """The free-dof block in the free system's own numbering (free velocity dofs, then the rows of C)."""
    free = s.free_vel_dofs
    blk = a.tocsr()[free][:, free]
    if c is not None:
        c_f = c.tocsr()[:, free]
        blk = sp.bmat([[blk, c_f.T], [c_f, None]])
    return blk.tocsc()


def _lu_fill(lu):
    return lu.L.nnz + lu.U.nnz


class TestDissectionOrder:
    @pytest.mark.parametrize(
        "domain, nx, ny",
        [(RectDomain(), 20, 20), (RectDomain(x0=-0.7, x1=0.3, y0=1.2, y1=2.2), 20, 20), (RectDomain(x1=4.0, y1=0.25), 16, 2)],
    )
    def test_order_is_a_permutation_of_the_free_block(self, domain, nx, ny):
        s = build_space(domain, nx, ny)
        a, _, _, _ = _oracle_system(s)
        c = assembly.div_coupling(s)[1:]
        for border in (None, c):
            k, perm = assembly._free_block(s, a, border is not None)
            n = s.free_vel_dofs.size + (0 if border is None else s.n_p1 - 1)
            assert np.array_equal(np.sort(perm), np.arange(n))
            natural = _natural_block(s, a, border)
            assert (k != natural[perm][:, perm]).nnz == 0

    def test_middle_mesh_line_is_numbered_last(self, unit_domain):
        s = build_space(unit_domain, 20, 20)
        _, perm = assembly._free_block(s, assembly.sym_grad_stiffness(s), False)
        inner = s.interior_p2
        x = s.p2_coords[np.concatenate([inner, inner]), 0][perm]
        on_line = np.isclose(x, 0.5)
        assert on_line.sum() == 2 * 39  # the 39 interior P2 nodes on x = 1/2, two components each
        assert on_line[-on_line.sum():].all()

    @pytest.mark.parametrize("n", [16, 20])
    def test_fill_at_most_colamd_on_the_square(self, unit_domain, n):
        s = build_space(unit_domain, n, n)
        a, _, _, _ = _oracle_system(s)
        for border in (None, assembly.div_coupling(s)[1:]):
            k, _ = assembly._free_block(s, a, border is not None)
            nd = spla.splu(k, permc_spec="NATURAL", diag_pivot_thresh=1e-3)
            assert _lu_fill(nd) <= _lu_fill(spla.splu(_natural_block(s, a, border)))

    @pytest.mark.parametrize("nx, ny, bordered, worst", [(16, 2, 1.25, 1.35), (32, 4, 1.05, 1.37)])
    def test_fill_on_a_thin_strip_is_pinned(self, nx, ny, bordered, worst):
        """On the 4 x 0.25 strip the order fills more than COLAMD (1.22 / 1.32 at 16x2, 1.02 / 1.34 at 32x4)."""
        s = build_space(RectDomain(x1=4.0, y1=0.25), nx, ny)
        a, _, _, _ = _oracle_system(s)
        for border, bound in ((assembly.div_coupling(s)[1:], bordered), (None, worst)):
            k, _ = assembly._free_block(s, a, border is not None)
            nd = spla.splu(k, permc_spec="NATURAL", diag_pivot_thresh=1e-3)
            assert _lu_fill(nd) <= bound * _lu_fill(spla.splu(_natural_block(s, a, border)))

    def test_saddle_solve_leaves_no_reference_cycle(self, unit_domain):
        """A fresh space's order, block and factor are freed by reference counts alone."""
        gc.collect()
        gc.disable()
        try:
            s = build_space(unit_domain, 6, 6)
            a, rhs, div_rhs, u_data = _oracle_system(s)
            held = assembly.FactorHolder()
            assembly.solve_saddle(s, a, rhs, div_rhs, fixed_vals=u_data, factor=held)
            assembly.solve_saddle(s, 1.01 * a, rhs, div_rhs, fixed_vals=u_data, factor=held)
            assert held.factorizations == 1
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.fixture(scope="module")
def manufactured20(unit_domain):
    """The cold-started 20x20 manufactured solve, with (fresh LUs, GMRES iterations, residual target met) per solve."""
    case = manufactured_case(1.8, 0.1, 0.0, 1.0, amp=0.3)
    inst = make_instance(case["model"], build_space(unit_domain, 20, 20), f=case["f"])
    cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, picard_tol=1e-10)
    factor_solve, solves = assembly._factor_solve, []

    def counting(k, rhs, held):
        made, swept = held.factorizations, held.refinements
        x = factor_solve(k, rhs, held)
        met = np.linalg.norm(rhs - k @ x) <= assembly.REFINE_RTOL * np.linalg.norm(rhs)
        solves.append((held.factorizations - made, held.refinements - swept, met))
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_factor_solve", counting)
        rec = solve_regularized(inst, cfg, np.inf)
    return rec, solves


def _newton_case(space):
    """p = 1.6, delta = 0.01 with a lift carrying nonzero divergence and boundary data, and a load."""
    lf = lift(BoundaryData(g1=lambda x, y: 0.5 * np.cos(np.pi * x), g2=tangential_g2(0.3)), space, 1.6, 1.6)
    f_vec = np.random.default_rng(21).standard_normal(space.n_vel)
    return make_instance(PDeltaModel(p=1.6, delta=0.01), space, lift_field=lf, f=f_vec)


class TestNewton:
    @pytest.mark.parametrize(
        "penalty,convective", [(False, False), (True, False), (False, True), (True, True)],
        ids=["stress", "penalty", "convective", "all"],
    )
    def test_tangent_matches_finite_differences(self, space4, penalty, convective):
        inst = _newton_case(space4)
        assert np.abs(inst.g1_vals).max() > 0.1 and np.abs(inst.g_sym).max() > 0.1
        cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=penalty, include_convective=convective)
        n = 0.5  # a strong penalty, so its tangent is not lost under the stress's
        u = _random_zero_boundary(space4, 31).coeffs
        w = _random_zero_boundary(space4, 32).coeffs

        def r0(c):
            return solver._momentum(inst, cfg, n, _state(inst, cfg, c))

        jac, rhs = _linearize(inst, cfg, n, u)
        assert np.allclose(rhs, jac @ u - r0(u), rtol=0.0, atol=1e-12 * np.abs(rhs).max())
        h = 1e-5
        fd = (r0(u + h * w) - r0(u - h * w)) / (2.0 * h)
        assert np.linalg.norm(jac @ w - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("tangent", [True, False], ids=["newton", "picard"])
    @pytest.mark.parametrize(
        "penalty,convective", [(False, False), (True, False), (False, True), (True, True)],
        ids=["stress", "penalty", "convective", "all"],
    )
    def test_one_assembly_per_linearization(self, space4, monkeypatch, penalty, convective, tangent):
        inst = _newton_case(space4)
        cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=penalty, include_convective=convective)
        u = _random_zero_boundary(space4, 31).coeffs
        assemble, calls = assembly._assemble, []

        def counting(*args):
            calls.append(args[2:])
            return assemble(*args)

        monkeypatch.setattr(assembly, "_assemble", counting)
        _linearize(inst, cfg, 0.5, u, tangent=tangent)
        assert calls == [("vel", "vel")]

    def test_frozen_modulus_is_the_isotropic_weight(self, space4):
        inst = _newton_case(space4)
        cfg = SolverConfig(q=3.0, n_schedule=(1,))
        n = 0.5
        u = _random_zero_boundary(space4, 31).coeffs
        du = space4.sym_gradients(u)
        weight = _stress_factor(inst.model, mandel_norm(du + inst.g_sym)) + mandel_norm(du) ** (cfg.q - 2.0) / n
        mod = solver._modulus(inst, cfg, n, _state(inst, cfg, u), tangent=False)
        assert mod.shape == du.shape[:-1]
        assert np.array_equal(mod, weight)

    @pytest.mark.parametrize("n", [0.5, np.inf])
    @pytest.mark.parametrize("tangent", [True, False], ids=["newton", "picard"])
    @pytest.mark.parametrize("seed", [31, None], ids=["strained", "at_rest"])
    def test_modulus_matches_the_broadcast_oracle_bitwise(self, space4, n, tangent, seed):
        inst = _newton_case(space4)
        cfg = SolverConfig(q=3.0, n_schedule=(1,))
        u = np.zeros(space4.n_vel) if seed is None else _random_zero_boundary(space4, seed).coeffs
        du = space4.sym_gradients(u)
        # the modulus from du alone: broadcast outer products and a strided diagonal
        a = du + inst.g_sym
        mag = mandel_norm(a)
        nu = _stress_factor(inst.model, mag)
        if np.isfinite(n):
            mag_u = mandel_norm(du)
            weight_u = mag_u ** (cfg.q - 2.0)
            nu += weight_u / n
        ref = nu
        if tangent:
            ref = (_over(_stress_factor(inst.model, mag, slope=True), mag)[..., None] * a)[..., :, None] * a[..., None, :]
            if np.isfinite(n):
                ref += ((cfg.q - 2.0) / n * _over(weight_u, mag_u**2)[..., None] * du)[..., :, None] * du[..., None, :]
            ref.reshape(nu.shape + (9,))[..., ::4] += nu[..., None]
        mod = solver._modulus(inst, cfg, n, _state(inst, cfg, u), tangent)
        assert mod.shape == ref.shape and np.array_equal(mod, ref)

    def test_rising_step_is_retaken_frozen(self, space8, monkeypatch):
        case = manufactured_case(1.8, 0.1, 0.0, 1.0, amp=0.3)
        inst = make_instance(case["model"], space8, f=case["f"])
        cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, picard_tol=1e-10)
        clean = solve_regularized(make_instance(case["model"], space8, f=case["f"]), cfg, np.inf)
        assert clean.fallbacks == 0
        linearize, saddle = solver._linearize, assembly.solve_saddle
        calls, solves = [], []

        def spoiled(inst, cfg, n, u, tangent=True, **kw):
            a_mat, rhs = linearize(inst, cfg, n, u, tangent=tangent, **kw)
            calls.append((u.copy(), tangent))
            if tangent and sum(t for _, t in calls) == 2:  # the second Newton step overshoots
                rhs = rhs + 10.0 * np.abs(rhs).max()
            return a_mat, rhs

        def counting(*args, **kw):
            solves.append(1)
            return saddle(*args, **kw)

        monkeypatch.setattr(solver, "_linearize", spoiled)
        monkeypatch.setattr(assembly, "solve_saddle", counting)
        rec = solve_regularized(inst, cfg, np.inf)
        tangents = [t for _, t in calls]
        assert tangents[:3] == [True, True, False] and all(tangents[3:])
        assert np.array_equal(calls[1][0], calls[2][0])  # retaken from the same iterate
        # the kept second step is the frozen-weight step from the first iterate
        u1, u2 = calls[1][0], calls[3][0]
        a_mat, rhs = linearize(inst, cfg, np.inf, u1, tangent=False)
        frozen, _ = saddle(space8, a_mat, rhs, np.zeros(space8.n_p1))
        assert np.abs(u2 - frozen).max() <= 1e-9 * np.abs(frozen).max()
        assert rec.residual_history[0] == clean.residual_history[0]
        assert rec.fallbacks == 1 and rec.converged
        assert len(solves) == rec.iters + rec.fallbacks == len(calls)

    def test_manufactured_20_converges_in_six_steps(self, manufactured20):
        rec, _ = manufactured20
        assert rec.converged and rec.iters <= 6 and rec.fallbacks == 0
        assert rec.factorizations == 1

    def test_cold_start_factor_serves_step_two(self, manufactured20):
        """The LU of step 1 (uniform viscosity, no transport) preconditions step 2 within the cap."""
        _, solves = manufactured20
        assert [made for made, _, _ in solves[:2]] == [1, 0]
        assert 0 < solves[1][1] <= assembly.GMRES_CAP

    def test_held_factor_solves_meet_the_residual_target(self, manufactured20):
        _, solves = manufactured20
        held = [met for made, _, met in solves if not made]
        assert len(held) == len(solves) - 1 and all(held)

    def test_recover_pressure_refines_the_held_factor(self, space8):
        case = manufactured_case(1.8, 0.1, 0.0, 1.0, amp=0.3)
        inst = make_instance(case["model"], space8, f=case["f"])
        cfg = SolverConfig(q=3.0, n_schedule=(1,), penalty=False, picard_tol=1e-10)
        rec = solve_regularized(inst, cfg, np.inf)
        made = inst.factor.factorizations
        pi, rel = recover_pressure(inst, rec.u, cfg=cfg)
        assert inst.factor.factorizations == made
        a_mat, rhs = _linearize(inst, cfg, np.inf, rec.u.coeffs)
        _, lam = assembly.solve_saddle(space8, a_mat, rhs, np.zeros(space8.n_p1))  # a fresh LU
        fresh = space8.pressure_field(-lam)
        assert np.abs(pi.coeffs - fresh.coeffs).max() <= 1e-10 * np.abs(fresh.coeffs).max()
        assert rel < 1e-9


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

    def test_no_gradient_matrices_from_a_cold_space(self, pipeline8, monkeypatch):
        """Gradients reach every stage as components only, from the space's build on.

        No ``symmetrize`` or ``frobenius`` call is made by the build, the
        lift, the embedding estimates, the continuation, the convective
        diagnostics or the counterexample scan, with every table built inside.
        """
        from pdeltaflow import constitutive
        from pdeltaflow.counterexample import build_family, counterexample_scan
        from pdeltaflow.discretization import estimate_embedding_constants

        m, s = pipeline8["model"], pipeline8["s"]
        g1c, g2c, g3c = compute_constants(pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], 0.0, m.p, s, m.delta)
        rep = check_smallness(g1c, g2c, g3c, m.p, s=s)
        calls = []
        for name in ("symmetrize", "frobenius"):
            real = getattr(constitutive, name)

            def counted(a, _real=real, _name=name):
                calls.append(_name)
                return _real(a)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("pdeltaflow") and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counted)

        space = build_space(RectDomain(), 8, 8)
        lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.01)), space, m.p, s)
        estimate_embedding_constants(space, m.p, s)
        inst = make_instance(m, space, lift_field=lf, report=rep)
        res = continuation_solve(inst, default_config(s))
        assert res.converged
        convective_identity_diagnostics(inst, res.u)
        assert counterexample_scan(build_family(3, base_n=4), [2, 4, 8, 12])["N0"] is not None
        assert calls == []

    def test_handed_state_matches_a_fresh_warm_start(self, pipeline8):
        cfg = default_config(pipeline8["s"], levels=4, picard_tol=1e-9)
        res = continuation_solve(_certified_instance(pipeline8), cfg)
        inst, space, warm, recs = _certified_instance(pipeline8), pipeline8["space"], None, []
        for n in cfg.n_schedule:  # each level evaluates its warm start afresh, from a copy
            recs.append(solve_regularized(inst, cfg, n, warm_start=warm))
            warm = space.velocity_field(recs[-1].u.coeffs.copy())
        _assert_same_records(res.records, recs)
        assert all(r.state is None for r in res.records + recs)  # handed on, not kept; never made for a lone level

    def test_each_run_starts_on_a_fresh_factor(self, pipeline8):
        cfg = default_config(pipeline8["s"], levels=3, picard_tol=1e-9)
        fresh = continuation_solve(_certified_instance(pipeline8), cfg)
        used = _certified_instance(pipeline8)
        solve_regularized(used, cfg, 1.0)  # another level leaves its LU on the instance
        assert used.factor.factorizations == 1
        _assert_same_records(continuation_solve(used, cfg).records, fresh.records)

    def test_symmetric_gradients_once_per_iterate(self, pipeline8, monkeypatch):
        """Each iterate's Du is evaluated once, for its residual, its linearization, its record and the next level.

        The other evaluations are the first iterate's, one per level difference
        and one per retaken step, whose iterate's state went for the solve.
        """
        inst = _certified_instance(pipeline8)
        cfg = default_config(pipeline8["s"])
        sym_gradients, calls = DiscreteSpace.sym_gradients, []

        def counting(space, coeffs):
            calls.append(1)
            return sym_gradients(space, coeffs)

        monkeypatch.setattr(DiscreteSpace, "sym_gradients", counting)
        res = continuation_solve(inst, cfg)
        steps, retaken = sum(r.iters for r in res.records), sum(r.fallbacks for r in res.records)
        assert len(calls) == 1 + steps + 2 * retaken + len(res.diffs)
        assert len(res.diffs) == len(cfg.n_schedule) - 1 == 6

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
            errs.append(norm_Lp(Field(s, "scalar", pi.coeffs - pex.coeffs), 2.0))
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
        d = convective_identity_diagnostics(inst, (uv, mandel_skew(gu)))
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
