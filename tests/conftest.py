import numpy as np
import pytest
import sympy as sy

from pdeltaflow import counterexample, solver
from pdeltaflow.constitutive import PDeltaModel, estimate_characteristics
from pdeltaflow.discretization import RectDomain, build_space, estimate_embedding_constants, sym_grad_norms
from pdeltaflow.lifting import BoundaryData, lift


@pytest.fixture(scope="session")
def unit_domain():
    return RectDomain()


@pytest.fixture(scope="session")
def space4(unit_domain):
    return build_space(unit_domain, 4, 4)


@pytest.fixture(scope="session")
def space8(unit_domain):
    return build_space(unit_domain, 8, 8)


@pytest.fixture(scope="session")
def space16(unit_domain):
    return build_space(unit_domain, 16, 16)


@pytest.fixture(scope="session")
def space32(unit_domain):
    return build_space(unit_domain, 32, 32)


def mandel(m):
    """(D_00, D_11, sqrt(2) D_01) of the symmetric parts D of the 2x2 matrices m."""
    return np.stack([m[..., 0, 0], m[..., 1, 1], (m[..., 0, 1] + m[..., 1, 0]) / np.sqrt(2.0)], axis=-1)


def mandel_skew(m):
    """Gradient components of the 2x2 matrices m: ``mandel(m)``, then (m_01 - m_10) / sqrt(2)."""
    skew = (m[..., 0, 1] - m[..., 1, 0]) / np.sqrt(2.0)
    return np.concatenate([mandel(m), skew[..., None]], axis=-1)


def gradient_matrices(c):
    """The 2x2 matrices [..., i, j] = du_i/dx_j of gradient components c (..., 4); inverts ``mandel_skew``."""
    off = c[..., 2] / np.sqrt(2.0), c[..., 3] / np.sqrt(2.0)
    return np.stack(
        [np.stack([c[..., 0], off[0] + off[1]], axis=-1), np.stack([off[0] - off[1], c[..., 1]], axis=-1)], axis=-2
    )


def evaluate_P_n(field, n, G1, F1, p, q):
    """G1 ||Du||_p^p + (1/n) ||Du||_q^q - F1 ||Du||_q of a field, the counterexample's P_n."""
    return counterexample._P_n(*sym_grad_norms(field, (p, q)), n, G1, F1, p, q)


def weak_form(inst, kernel, u, phi, *args):
    """<kernel at u, phi> for a load kernel of ``solver._momentum``; args follow u (q, n of the penalty).

    ``solver._transport_term`` reads the total velocity values u + g, the
    stress and penalty kernels the Mandel components of Du.
    """
    s = inst.space
    at = s.velocity_values(u.coeffs) + inst.g_vals if kernel is solver._transport_term else s.sym_gradients(u.coeffs)
    return float(kernel(inst, at, *args) @ phi.coeffs)


def tangential_g2(amp):
    """Tangential boundary velocity on the unit square (zero normal flux)."""
    return (
        lambda x, y: amp * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        lambda x, y: -amp * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
    )


def asymmetric_divfree():
    """Divergence-free zero-boundary field without mirror symmetries."""
    x, y = sy.symbols("x y")
    psi = (x * (1 - x) * y * (1 - y)) ** 2 * sy.exp(2 * x - y) * 30
    return (
        sy.lambdify((x, y), sy.diff(psi, y), "numpy"),
        sy.lambdify((x, y), -sy.diff(psi, x), "numpy"),
    )


def manufactured_case(p, delta, mu0, mu, amp=0.3, convective=True):
    """Manufactured divergence-free solution and its matching body force."""
    x, y = sy.symbols("x y")
    psi = amp * sy.sin(sy.pi * x) ** 2 * sy.sin(sy.pi * y) ** 2 / sy.pi
    ue = sy.Matrix([sy.diff(psi, y), -sy.diff(psi, x)])
    pe = sy.sin(sy.pi * x) * sy.cos(sy.pi * y)
    du = sy.Matrix(
        [
            [sy.diff(ue[0], x), (sy.diff(ue[0], y) + sy.diff(ue[1], x)) / 2],
            [(sy.diff(ue[0], y) + sy.diff(ue[1], x)) / 2, sy.diff(ue[1], y)],
        ]
    )
    mag = sy.sqrt(du[0, 0] ** 2 + 2 * du[0, 1] ** 2 + du[1, 1] ** 2)
    stress = mu0 * du + mu * (delta + mag) ** (p - 2) * du
    f0 = -(sy.diff(stress[0, 0], x) + sy.diff(stress[0, 1], y)) + sy.diff(pe, x)
    f1 = -(sy.diff(stress[1, 0], x) + sy.diff(stress[1, 1], y)) + sy.diff(pe, y)
    if convective:
        f0 += ue[0] * sy.diff(ue[0], x) + ue[1] * sy.diff(ue[0], y)
        f1 += ue[0] * sy.diff(ue[1], x) + ue[1] * sy.diff(ue[1], y)
    lam = lambda e: sy.lambdify((x, y), e, "numpy")
    return {
        "u": (lam(ue[0]), lam(ue[1])),
        "pi": lam(pe),
        "f": (lam(f0), lam(f1)),
        "model": PDeltaModel(p=p, delta=delta, mu0=mu0, mu=mu),
    }


@pytest.fixture(scope="session")
def model18():
    return PDeltaModel(p=1.8, delta=0.01)


@pytest.fixture(scope="session")
def chars18(model18):
    return estimate_characteristics(model18)


@pytest.fixture(scope="session")
def pipeline8(space8, model18, chars18):
    """Small certified pipeline shared by certifier and solver tests."""
    emb = estimate_embedding_constants(space8, model18.p, 1.8, iters=60)
    lf = lift(BoundaryData(g1=0.0, g2=tangential_g2(0.01)), space8, model18.p, 1.8)
    return {"model": model18, "space": space8, "chars": chars18, "emb": emb, "lift": lf, "s": 1.8}
