"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figures."""

import json
import time

import numpy as np
import pytest

from pdeltaflow import certifier, counterexample, solver
from pdeltaflow.cli import EXIT_OK, main
from pdeltaflow.constitutive import PDeltaModel, inequality_sweep, young_gap
from pdeltaflow.discretization import (
    build_space,
    estimate_embedding_constants,
    norm_Lp,
)
from pdeltaflow.lifting import BoundaryData, lift

from conftest import asymmetric_divfree, manufactured_case, tangential_g2


@pytest.fixture(scope="module")
def certified32(unit_domain, model18, chars18):
    """Certified small-data instance on the 32x32 mesh with the full
    7-level continuation run (shared by the energy and decay criteria)."""
    t0 = time.monotonic()
    space = build_space(unit_domain, 32, 32)
    s = certifier.compute_s(model18.p, 2)
    emb = estimate_embedding_constants(space, model18.p, s)
    lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.01)), space, model18.p, s)
    g1c, g2c, g3c = certifier.compute_constants(chars18, emb, lf, 0.0, model18.p, s, model18.delta)
    report = certifier.check_smallness(g1c, g2c, g3c, model18.p, s=s)
    assert report.satisfied, "acceptance instance must certify"
    inst = solver.make_instance(model18, space, lift_field=lf, report=report)
    cfg = solver.default_config(s, levels=7, picard_tol=1e-9)
    result = solver.continuation_solve(inst, cfg)
    return {
        "space": space,
        "report": report,
        "cfg": cfg,
        "result": result,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_01_inequality_suite():
    t0 = time.monotonic()
    worst = 0
    for p in (1.2, 1.5, 1.8):
        for delta in (0.0, 0.1, 1.0):
            rep = inequality_sweep(PDeltaModel(p=p, delta=delta), samples=100000, seed=42, tol=1e-10)
            total = sum(rep[k] for k in rep if k.startswith("violations_"))
            worst = max(worst, total)
            assert rep["pairs_checked"] >= 100000
            assert total == 0, f"violations for p={p}, delta={delta}"
            assert rep["C1"] > 0 and rep["C3"] > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 (growth/monotonicity suite, 9 models x 1e5 pairs, {elapsed:.1f}s): PASS")


def test_criterion_02_young_grid():
    t0 = time.monotonic()
    grid = np.concatenate([[0.0], np.logspace(-6, 6, 25)])
    points = 0
    worst = np.inf
    for p in np.linspace(1.05, 2.0, 20):
        a, t = np.meshgrid(grid, grid, indexing="ij")
        gap = young_gap(a, t, float(p))
        slack = gap + 1e-10 * (1.0 + t**p)
        worst = min(worst, float(slack.min()))
        points += gap.size
        assert np.all(slack >= 0.0)
    elapsed = time.monotonic() - t0
    assert points >= 10000
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 (integral gap on {points} grid points, {elapsed:.1f}s): PASS")


def test_criterion_03_lifting_manufactured(unit_domain):
    t0 = time.monotonic()
    ge = (lambda x, y: x**2, lambda x, y: -2.0 * x * y)
    errs, berrs = [], []
    for n in (8, 16, 32):
        s = build_space(unit_domain, n, n)
        lf = lift(BoundaryData(g1=0.0, g2=ge), s, 2.0, 2.0)
        assert lf.div_defect <= 1e-8
        exact = s.interpolate_velocity(ge)
        errs.append(norm_Lp(s.velocity_field(lf.g.coeffs - exact.coeffs), 2.0))
        berrs.append(lf.boundary_defect)
    # the quadratic data is exactly representable, so errors sit at the
    # solver's roundoff floor; monotone decrease applies above that floor
    floor = 1e-10
    for seq in (errs, berrs):
        assert all(b <= a or max(a, b) < floor for a, b in zip(seq[:-1], seq[1:]))
        assert seq[-1] < floor

    # companion with non-polynomial data: genuine monotone convergence
    g2 = (lambda x, y: np.sin(np.pi * y) * np.exp(x), lambda x, y: np.cos(np.pi * x) * y**2)
    g1_raw = lambda x, y: np.cos(2 * np.pi * x) * np.sin(np.pi * y)
    perrs = []
    from pdeltaflow.lifting import _compat_defect

    for n in (8, 16, 32):
        s = build_space(unit_domain, n, n)
        raw = BoundaryData(g1=g1_raw, g2=g2)
        shift = _compat_defect(s, raw.g1_values(s), raw.g2_dof_values(s)) / s.domain.measure
        lf = lift(BoundaryData(g1=lambda x, y: g1_raw(x, y) - shift, g2=g2), s, 2.0, 2.0)
        assert lf.div_defect <= 1e-8
        perrs.append(lf.div_defect_pointwise)
    assert perrs[0] > perrs[1] > perrs[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 (manufactured lift, defect {errs[-1]:.1e}, {elapsed:.1f}s): PASS")


def test_criterion_04_certifier_arithmetic(pipeline8):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = float(rng.uniform(1.05, 1.95))
        g1 = float(10 ** rng.uniform(-2, 2))
        g2 = float(10 ** rng.uniform(-2, 2))
        lhs = (2 - p) ** (2 - p) * (p - 1) ** (p - 1) * g1
        g3 = (lhs / g2 ** (p - 1)) ** (1 / (2 - p)) * float(rng.uniform(0.05, 1.0))
        rep = certifier.check_smallness(g1, g2, g3, p)
        assert rep.satisfied
        assert abs((2 - p) * g1 * rep.R ** (p - 1) - g3) <= 1e-10 * max(g3, 1e-300)
    sweep = certifier.scaling_sweep(
        pipeline8["chars"], pipeline8["emb"], pipeline8["lift"], 0.0,
        1.8, 1.8, 0.01, np.logspace(-1, 3, 41),
    )
    assert sweep["transitions"] == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 (radius formula x1000 + single sweep transition, {elapsed:.1f}s): PASS")


def test_criterion_05_weight_optimality():
    for p in (1.2, 1.5, 1.8):
        for g1, g2 in ((1.0, 0.5), (3.0, 0.2), (0.4, 2.0)):
            scan = certifier.weight_optimality_scan(g1, g2, p, resolution=1e-3)
            assert abs(scan["best_theta"] - (p - 1.0)) <= 1.0001e-3
    print("\nACCEPTANCE 5 (split-weight optimum at theta = p-1): PASS")


def test_criterion_06_energy_bound(certified32):
    res = certified32["result"]
    radius = certified32["report"].R
    assert len(res.records) == 7
    for rec in res.records:
        assert rec.converged
        assert rec.norm_Du_p <= radius * 1.05
        assert rec.level_norm <= radius * 1.05
    assert certified32["elapsed"] < 300.0
    print(
        f"\nACCEPTANCE 6 (certified 32x32 run: max |Du|_p {max(r.norm_Du_p for r in res.records):.2e}"
        f" <= 1.05 R = {1.05 * radius:.2e}, {certified32['elapsed']:.0f}s): PASS"
    )


def test_criterion_07_penalty_decay(certified32):
    res = certified32["result"]
    q = certified32["cfg"].q
    radius = certified32["report"].R
    for rec in res.records:
        envelope = rec.n ** (-1.0 / (2.0 * q - 1.0)) * radius ** (q - 1.0) * 1.05
        assert rec.penalty_norm <= envelope
    assert res.penalty_ok
    print("\nACCEPTANCE 7 (penalty norms under the decay envelope at all 7 levels): PASS")


def test_certified32_linear_solves(certified32):
    # Newton steps on the consistent tangent: at most 15 saddle solves over the 7 levels
    records = certified32["result"].records
    solves = sum(r.iters + r.fallbacks for r in records)
    assert solves <= 15
    print(f"\n32x32 continuation: {solves} linear solves, steps per level {[r.iters for r in records]}")


@pytest.mark.parametrize("p,delta", [(1.8, 0.1), (2.0, 0.0)])
def test_criterion_08_manufactured_convergence(unit_domain, p, delta):
    case = manufactured_case(p, delta, 0.0, 1.0, amp=0.3)
    errs = []
    for n in (8, 16, 32):
        s = build_space(unit_domain, n, n)
        inst = solver.make_instance(case["model"], s, f=case["f"])
        cfg = solver.SolverConfig(q=3.0, n_schedule=(1,), penalty=False, picard_tol=1e-10)
        rec = solver.solve_regularized(inst, cfg, np.inf)
        assert rec.converged
        uex = s.interpolate_velocity(case["u"])
        errs.append(norm_Lp(s.velocity_field(rec.u.coeffs - uex.coeffs), 2.0))
    assert errs[0] > errs[1] > errs[2]
    order = float(np.log2(errs[1] / errs[2]))
    assert order >= 1.5
    print(f"\nACCEPTANCE 8 (manufactured p={p}: errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, order {order:.2f}): PASS")


def test_criterion_09_convective_identities(unit_domain, model18):
    ux, uy = asymmetric_divfree()
    rows = []
    for n in (8, 16, 32):
        s = build_space(unit_domain, n, n)
        lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.3)), s, 1.8, 1.8)
        inst = solver.make_instance(model18, s, lift_field=lf)
        u = s.interpolate_velocity((ux, uy))
        d = solver.convective_identity_diagnostics(inst, u)
        rows.append([d["skew"], d["transport_grad"], d["transport_grad_T"], d["regroup"]])
    floor = 1e-12
    for prev, cur in zip(rows[:-1], rows[1:]):
        for a, b in zip(prev, cur):
            assert b <= a / 2.0 or b < floor
    print(f"\nACCEPTANCE 9 (identity defects halve per refinement: {rows[0]} -> {rows[-1]}): PASS")


def test_criterion_10_counterexample():
    t0 = time.monotonic()
    fam = counterexample.build_family(4, p=1.5, q=3.0, base_n=8, width0=0.32)
    scan = counterexample.counterexample_scan(
        fam, [2, 4, 8, 12, 16, 24, 32, 64, 128, 256], R=1.0, F1=1.0, G1=1.0, c2=2.0
    )
    assert scan["N0"] is not None
    tail = [r for r in scan["records"] if r.n >= scan["N0"]]
    assert all(r.P_n < 0 for r in tail)
    margins = [r.margin for r in tail]
    assert all(a < b for a, b in zip(margins[:-1], margins[1:]))
    assert all(abs(r.level_norm - 1.0) <= 1e-8 for r in scan["records"])
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 10 (coercivity failure from N0 = {scan['N0']:.0f}, margins rising, {elapsed:.0f}s): PASS")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "domain": {"nx": 8, "ny": 8},
        "characteristics": {"samples": 10000},
        "embedding": {"iters": 30},
        "certify": {"sweep_lambdas": [0.5, 1.0, 2.0, 4.0]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    pairs = []
    for cmd, name in (("check-tensor", "tensor_report.json"), ("certify", "certificate.json"), ("certify", "sweep.csv")):
        out_a, out_b = tmp_path / f"{cmd}-{name}-a", tmp_path / f"{cmd}-{name}-b"
        assert main([cmd, "--config", str(path), "--out", str(out_a)]) == EXIT_OK
        assert main([cmd, "--config", str(path), "--out", str(out_b)]) == EXIT_OK
        pairs.append(((out_a / name).read_bytes(), (out_b / name).read_bytes()))
    assert all(a == b for a, b in pairs)
    print("\nACCEPTANCE 11 (byte-identical JSON/CSV reports under a fixed seed): PASS")
