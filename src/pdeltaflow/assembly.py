"""Cell-wise sparse assembly for the mixed Taylor-Hood pairing.

Every routine takes a built space and optional quadrature-point data and
returns scipy sparse matrices / dense load vectors.  Velocity dofs use the
block layout [all x-dofs, all y-dofs]; local blocks are scattered through
index arrays cached on the space, so re-assembly with new coefficient
weights (the Picard loop) only recomputes values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "sym_grad_stiffness",
    "full_grad_stiffness",
    "div_coupling",
    "transport_matrix",
    "p1_mass",
    "velocity_load",
    "stress_load",
    "p1_load",
    "grad_seminorm_gradient",
    "seminorm_pth_power",
    "value_norm_gradient",
    "solve_saddle",
    "infsup_proxy",
]


def _vel_indices(space):
    cache = space._cache
    if "vel_idx" not in cache:
        loc = np.hstack([space.cell_p2, space.cell_p2 + space.n_p2])  # (C, 12)
        rows = np.repeat(loc, 12, axis=1)
        cols = np.tile(loc, (1, 12))
        cache["vel_idx"] = (rows.ravel(), cols.ravel())
    return cache["vel_idx"]


def _div_indices(space):
    cache = space._cache
    if "div_idx" not in cache:
        loc = np.hstack([space.cell_p2, space.cell_p2 + space.n_p2])
        rows = np.repeat(space.cell_p1, 12, axis=1)
        cols = np.tile(loc, (1, 3))
        cache["div_idx"] = (rows.ravel(), cols.ravel())
    return cache["div_idx"]


def _p1_indices(space):
    cache = space._cache
    if "p1_idx" not in cache:
        rows = np.repeat(space.cell_p1, 3, axis=1)
        cols = np.tile(space.cell_p1, (1, 3))
        cache["p1_idx"] = (rows.ravel(), cols.ravel())
    return cache["p1_idx"]


def _weighted(space, weight):
    return space.qw if weight is None else space.qw * weight


def _scatter_vel(space, loc):
    rows, cols = _vel_indices(space)
    n = space.n_vel
    return sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def sym_grad_stiffness(space, weight=None):
    """int w Du : Dphi over velocity dofs."""
    w = _weighted(space, weight)
    g = space.p2_grads
    t1 = np.einsum("cq,cqma,cqia->cmi", w, g, g)
    x = np.einsum("cq,cqma,cqib->cmaib", w, g, g)
    loc = np.zeros((space.n_cells, 12, 12))
    for e in range(2):  # test component
        for c in range(2):  # trial component
            blk = 0.5 * x[:, :, e, :, c].transpose(0, 2, 1)  # (C, i, m)
            if e == c:
                blk = blk + 0.5 * t1.transpose(0, 2, 1)
            loc[:, e * 6:(e + 1) * 6, c * 6:(c + 1) * 6] = blk
    return _scatter_vel(space, loc)


def full_grad_stiffness(space, weight=None):
    """int w grad u : grad phi (component-wise Laplacian)."""
    w = _weighted(space, weight)
    g = space.p2_grads
    t1 = np.einsum("cq,cqma,cqia->cmi", w, g, g)
    loc = np.zeros((space.n_cells, 12, 12))
    for c in range(2):
        loc[:, c * 6:(c + 1) * 6, c * 6:(c + 1) * 6] = t1.transpose(0, 2, 1)
    return _scatter_vel(space, loc)


def div_coupling(space):
    """D[q, u] = int q div(u) coupling pressure tests with velocity trials."""
    cache = space._cache
    if "div_mat" not in cache:
        loc = np.einsum("cq,qr,cqmb->crmb", space.qw, space.p1_vals, space.p2_grads)
        full = np.concatenate([loc[..., 0], loc[..., 1]], axis=2)  # (C, 3, 12)
        rows, cols = _div_indices(space)
        cache["div_mat"] = sp.coo_matrix(
            (full.ravel(), (rows, cols)), shape=(space.n_p1, space.n_vel)
        ).tocsr()
    return cache["div_mat"]


def transport_matrix(space, b_vals, g1_vals):
    """Linearized convective operator against a frozen transport field b.

    Entry[(i,e),(m,c)] = -int (phi_mc x b) : D phi_ie  -  int g1 phi_mc . phi_ie,
    which is the frozen-coefficient form of
    -<(u+g) x b, D phi> - <g1 (u+g), phi> restricted to the unknown u.
    """
    g = space.p2_grads
    v = space.p2_vals
    bdot = np.einsum("cqia,cqa->cqi", g, b_vals)
    a1 = np.einsum("cq,qm,cqi->cim", space.qw, v, bdot)
    y = np.einsum("cq,qm,cqe,cqid->cimed", space.qw, v, b_vals, g)
    mg = np.einsum("cq,cq,qm,qi->cim", space.qw, g1_vals, v, v)
    loc = np.zeros((space.n_cells, 12, 12))
    for e in range(2):
        for c in range(2):
            loc[:, e * 6:(e + 1) * 6, c * 6:(c + 1) * 6] = -0.5 * y[:, :, :, e, c]
            if e == c:
                loc[:, e * 6:(e + 1) * 6, c * 6:(c + 1) * 6] -= 0.5 * a1 + mg
    return _scatter_vel(space, loc)


def p1_mass(space):
    t = np.einsum("cq,qr,qs->crs", space.qw, space.p1_vals, space.p1_vals)
    rows, cols = _p1_indices(space)
    return sp.coo_matrix((t.ravel(), (rows, cols)), shape=(space.n_p1, space.n_p1)).tocsr()


def velocity_load(space, f_vals):
    """<f, phi> for pointwise values f_vals of shape (C, Q, 2)."""
    loc = np.einsum("cq,cqe,qi->cei", space.qw, f_vals, space.p2_vals)
    out = np.zeros(space.n_vel)
    for e in range(2):
        np.add.at(out, space.cell_p2 + e * space.n_p2, loc[:, e, :])
    return out


def stress_load(space, s_vals):
    """<S, D phi> for a symmetric matrix field S of shape (C, Q, 2, 2)."""
    loc = np.einsum("cq,cqea,cqia->cei", space.qw, s_vals, space.p2_grads)
    out = np.zeros(space.n_vel)
    for e in range(2):
        np.add.at(out, space.cell_p2 + e * space.n_p2, loc[:, e, :])
    return out


def p1_load(space, vals):
    loc = np.einsum("cq,cq,qr->cr", space.qw, vals, space.p1_vals)
    out = np.zeros(space.n_p1)
    np.add.at(out, space.cell_p1, loc)
    return out


def _power_weight(mag, expo):
    floor = 1e-300
    with np.errstate(divide="ignore"):
        return np.where(mag > floor, mag**expo, 0.0)


def grad_seminorm_gradient(space, coeffs, p, kind):
    """d/dcoeffs of int |G(u)|^p with G the full or symmetric gradient."""
    g = space.velocity_gradients(coeffs)
    if kind == "sym":
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
    mag = np.sqrt(np.sum(g**2, axis=(-1, -2)))
    r = _power_weight(mag, p - 2.0)[..., None, None] * g
    return p * stress_load(space, r)


def seminorm_pth_power(space, coeffs, p, kind):
    g = space.velocity_gradients(coeffs)
    if kind == "sym":
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
    return space.integrate(np.sqrt(np.sum(g**2, axis=(-1, -2))) ** p)


def value_norm_gradient(space, coeffs, r):
    """d/dcoeffs of int |u|^r."""
    v = space.velocity_values(coeffs)
    mag = np.linalg.norm(v, axis=-1)
    return r * velocity_load(space, _power_weight(mag, r - 2.0)[..., None] * v)


def solve_saddle(space, a_mat, rhs_vel, div_rhs, fixed_vals=None):
    """Solve the constrained system A u + C^T lam = rhs, C u = div_rhs.

    Dirichlet velocity values are supplied on the boundary dofs through
    ``fixed_vals`` (full-length array; only boundary entries are read).
    The multiplier is fixed up to the constant pressure mode, which is
    pinned by dropping pressure dof 0: its constraint row and multiplier
    column leave the system and ``lam[0] = 0``.  Since C^T of a constant
    vanishes on the free velocity dofs, the velocity is unaffected and
    ``space.pressure_field(lam)`` gives the mean-zero multiplier.  The
    dropped row absorbs the compatibility defect of ``div_rhs``.
    Returns ``(u, lam)``.
    """
    free = space.free_vel_dofs
    fixed = space.boundary_vel_dofs
    c_mat = div_coupling(space)

    u_fix = np.zeros(space.n_vel)
    if fixed_vals is not None:
        u_fix[fixed] = fixed_vals[fixed]
    r_vel = rhs_vel[free] - a_mat[free][:, fixed] @ u_fix[fixed]
    r_div = div_rhs[1:] - c_mat[1:, fixed] @ u_fix[fixed]

    c_f = c_mat[1:, free]
    sys = sp.bmat([[a_mat[free][:, free], c_f.T], [c_f, None]], format="csc")
    sol = spla.spsolve(sys, np.concatenate([r_vel, r_div]))
    u = u_fix.copy()
    u[free] = sol[: free.size]
    lam = np.zeros(space.n_p1)
    lam[1:] = sol[free.size:]
    return u, lam


def infsup_proxy(space):
    """Second-smallest singular value of the scaled divergence coupling.

    The coupling is scaled by the lumped pressure mass and the diagonal of
    the zero-boundary vector Laplacian; the smallest singular value is the
    constant-pressure null mode, so the next one is the stability proxy.
    """
    free = space.free_vel_dofs
    b = div_coupling(space)[:, free]
    kdiag = full_grad_stiffness(space).diagonal()[free]
    mlump = np.asarray(p1_mass(space).sum(axis=1)).ravel()
    bs = sp.diags(1.0 / np.sqrt(mlump)) @ b @ sp.diags(1.0 / np.sqrt(kdiag))
    s = (bs @ bs.T).tocsc()
    npress = s.shape[0]
    if npress <= 1500:
        vals = np.linalg.eigvalsh(s.toarray())
        second = vals[1]
    else:
        vals = spla.eigsh(
            s, k=2, sigma=-1e-10, which="LM", v0=np.ones(npress), return_eigenvectors=False
        )
        second = np.sort(vals)[1]
    return float(np.sqrt(max(second, 0.0)))
