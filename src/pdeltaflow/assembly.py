"""Sparse assembly for the mixed Taylor-Hood pairing.

Every routine takes a built space and optional quadrature-point data and
returns scipy sparse matrices / dense load vectors.  Velocity dofs use the
block layout [all x-dofs, all y-dofs].  The mesh has two triangle shapes,
so local matrices are GEMMs of per-cell quadrature weights against the
shape's integrand table, and loads are GEMMs of the point values against
the shape's basis table.  The CSR pattern of each matrix and the map from
local entries to its data are cached on the space, so re-assembly with new
coefficient weights (the Picard loop) only recomputes values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import symmetrize

__all__ = [
    "sym_grad_stiffness",
    "full_grad_stiffness",
    "div_coupling",
    "transport_matrix",
    "p1_mass",
    "velocity_load",
    "stress_load",
    "p1_load",
    "dirichlet_solve",
    "solve_saddle",
    "infsup_proxy",
]


def _assemble(space, loc, rows, cols):
    """CSR matrix of local entries loc (C, R*S), in cell order, on cell_<rows> x cell_<cols>.

    The pattern and the map from local entries to CSR data are built once per space.
    """
    key = ("pattern", rows, cols)
    if key not in space._cache:
        r_dofs, c_dofs = getattr(space, "cell_" + rows), getattr(space, "cell_" + cols)
        shape = (getattr(space, "n_" + rows), getattr(space, "n_" + cols))
        r_idx = np.repeat(r_dofs, c_dofs.shape[1], axis=1).ravel()
        c_idx = np.tile(c_dofs, (1, r_dofs.shape[1])).ravel()
        pat = sp.csr_matrix((np.ones(r_idx.size), (r_idx, c_idx)), shape=shape)
        pat.sum_duplicates()  # sorted column indices, so the keys below increase
        keys = np.repeat(np.arange(shape[0]) * shape[1], np.diff(pat.indptr)) + pat.indices
        space._cache[key] = (pat.indptr, pat.indices, np.searchsorted(keys, r_idx * shape[1] + c_idx), shape)
    indptr, indices, perm, shape = space._cache[key]
    data = np.bincount(perm, weights=loc.ravel(), minlength=indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)


def _table(space, name):
    """Per-shape integrand table (2, K, R*S) of one form, built once per space.

    Rows are the points for sym/full/div and (point, b_0 | b_1 | g1) for transport.
    """
    key = ("table", name)
    if key not in space._cache:
        nq = space.nq
        g = space.grad_table.reshape(2, 12, nq, 2, 2)
        d = symmetrize(g)
        v = space.value_table.reshape(12, nq, 2)
        if name == "transport":
            # -(phi_s x b) : D phi_r = -sum_j b_j phi_s . (D phi_r)_{:, j};  -g1 phi_s . phi_r
            conv = -np.einsum("sqi,krqij->kqjrs", v, d)
            mass = np.broadcast_to(-np.einsum("sqi,rqi->qrs", v, v)[:, None], (2, nq, 1, 12, 12))
            table = np.concatenate([conv, mass], axis=2).reshape(2, 3 * nq, 144)
        elif name == "div":
            table = np.einsum("qa,ksqii->kqas", space.p1_vals, g).reshape(2, nq, 36)
        else:
            a = {"sym": d, "full": g}[name]
            table = np.einsum("krqij,ksqij->kqrs", a, a).reshape(2, nq, 144)
        space._cache[key] = table
    return space._cache[key]


def _weighted(space, weight):
    return space.qw if weight is None else space.qw * weight


def sym_grad_stiffness(space, weight=None):
    """int w Du : Dphi over velocity dofs."""
    return _assemble(space, space.shape_gemm(_weighted(space, weight), _table(space, "sym")), "vel", "vel")


def full_grad_stiffness(space, weight=None):
    """int w grad u : grad phi (component-wise Laplacian)."""
    return _assemble(space, space.shape_gemm(_weighted(space, weight), _table(space, "full")), "vel", "vel")


def div_coupling(space):
    """D[q, u] = int q div(u) coupling pressure tests with velocity trials."""
    cache = space._cache
    if "div_mat" not in cache:
        cache["div_mat"] = _assemble(space, space.shape_gemm(space.qw, _table(space, "div")), "p1", "vel")
    return cache["div_mat"]


def transport_matrix(space, b_vals, g1_vals):
    """Linearized convective operator against a frozen transport field b.

    Entry[(i,e),(m,c)] = -int (phi_mc x b) : D phi_ie  -  int g1 phi_mc . phi_ie,
    which is the frozen-coefficient form of
    -<(u+g) x b, D phi> - <g1 (u+g), phi> restricted to the unknown u.
    """
    w = np.empty((space.n_cells, space.nq, 3))
    w[..., :2] = space.qw[..., None] * b_vals
    w[..., 2] = space.qw * g1_vals
    loc = space.shape_gemm(w.reshape(space.n_cells, -1), _table(space, "transport"))
    return _assemble(space, loc, "vel", "vel")


def p1_mass(space):
    table = (space.p1_vals[:, :, None] * space.p1_vals[:, None, :]).reshape(space.nq, 9)
    return _assemble(space, space.qw @ table, "p1", "p1")


def velocity_load(space, f_vals):
    """<f, phi> for pointwise values f_vals of shape (C, Q, 2)."""
    table = space.value_table * np.repeat(space.cell_qw, 2)
    loc = f_vals.reshape(space.n_cells, -1) @ table.T
    return np.bincount(space.cell_vel.ravel(), weights=loc.ravel(), minlength=space.n_vel)


def stress_load(space, s_vals):
    """<S, grad phi> for a matrix field S of shape (C, Q, 2, 2); <S, D phi> if S is symmetric."""
    table = space.grad_table * np.repeat(space.cell_qw, 4)
    loc = space.shape_gemm(s_vals.reshape(space.n_cells, -1), table.transpose(0, 2, 1))
    return np.bincount(space.cell_vel.ravel(), weights=loc.ravel(), minlength=space.n_vel)


def p1_load(space, vals):
    loc = vals @ (space.p1_vals * space.cell_qw[:, None])
    return np.bincount(space.cell_p1.ravel(), weights=loc.ravel(), minlength=space.n_p1)


def dirichlet_solve(space, a_mat, rhs_vel, fixed_vals=None, c_mat=None, c_rhs=None):
    """Solve A u = rhs_vel on the free velocity dofs with u = fixed_vals on the boundary.

    With a constraint block C (rows against all velocity dofs) the system is
    bordered: A u + C^T lam = rhs_vel, C u = c_rhs.  The boundary values are
    eliminated from both right-hand sides.  Returns ``(u, lam)``: the
    full-length velocity and the multiplier (empty without C).
    """
    free = space.free_vel_dofs
    fixed = space.boundary_vel_dofs
    u = np.zeros(space.n_vel)
    if fixed_vals is not None:
        u[fixed] = fixed_vals[fixed]
    rhs = rhs_vel[free] - a_mat[free][:, fixed] @ u[fixed]
    sys = a_mat[free][:, free]
    if c_mat is not None:
        c_f = c_mat[:, free]
        sys = sp.bmat([[sys, c_f.T], [c_f, None]], format="csc")
        rhs = np.concatenate([rhs, c_rhs - c_mat[:, fixed] @ u[fixed]])
    sol = spla.spsolve(sys.tocsc(), rhs)
    u[free] = sol[: free.size]
    return u, sol[free.size:]


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
    u, lam_pinned = dirichlet_solve(space, a_mat, rhs_vel, fixed_vals, div_coupling(space)[1:], div_rhs[1:])
    lam = np.zeros(space.n_p1)
    lam[1:] = lam_pinned
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
