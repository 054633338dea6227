"""Sparse assembly for the mixed Taylor-Hood pairing.

Every routine takes a built space and optional quadrature-point data and
returns scipy sparse matrices / dense load vectors.  Velocity dofs use the
block layout [all x-dofs, all y-dofs].  The mesh has two triangle shapes,
so local matrices are GEMMs of per-cell quadrature weights against the
shape's integrand table, and loads are GEMMs of the point values against
the shape's basis table.  Gradients are orthonormal components, grad phi
in ``mandel_skew_table`` and D phi (Mandel) in its first three, ``sym_table``;
all integrand tables come from these.  A load on components is one GEMM, and a
stiffness on Du, the Newton tangent's included, is one symmetric 3x3 modulus
per point (``modulus_stiffness``).  The CSR pattern of each matrix
and the map from local entries to its data are cached on the space, so
re-assembly with new coefficients (the Newton loop) only recomputes values.
``solve_saddle`` is the one solve: the Dirichlet problem, or with
divergence data the saddle-point problem bordered by the pinned
divergence coupling.  It gathers its free-dof block the same way, already
in a nested-dissection order of the structured mesh's P2 node lattice,
and factors it in that order.  A later, similar system reuses the
held LU as the preconditioner of a short GMRES; every solve ends on a
checked residual.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "sym_grad_stiffness",
    "full_grad_stiffness",
    "div_coupling",
    "modulus_stiffness",
    "p1_mass",
    "velocity_load",
    "stress_load",
    "p1_load",
    "FactorHolder",
    "solve_saddle",
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

    Rows are the points for full/div/isotropic, (point, b_0 | b_1 | g1) for
    transport and (point, alpha, beta) for modulus, where alpha and beta
    index the Mandel components of ``space.sym_table``; the isotropic row
    of a point is the sum of its three modulus rows with alpha = beta.
    The modulus tables carry the quadrature weights; the others take them
    with their rows.
    """
    key = ("table", name)
    if key not in space._cache:
        nq = space.nq
        sym = space.sym_table.reshape(2, 12, nq, 3)
        v = space.value_table.reshape(12, nq, 2)
        if name == "transport":
            dphi = sym[..., [[0, 2], [2, 1]]] / np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]])  # D phi_r as a matrix
            # -(phi_s x b) : D phi_r = -sum_j b_j phi_s . (D phi_r)_{:, j};  -g1 phi_s . phi_r
            conv = -np.einsum("sqi,krqij->kqjrs", v, dphi)
            mass = np.broadcast_to(-np.einsum("sqi,rqi->qrs", v, v)[:, None], (2, nq, 1, 12, 12))
            table = np.concatenate([conv, mass], axis=2).reshape(2, 3 * nq, 144)
        elif name == "modulus":
            table = np.einsum("q,krqa,ksqb->kqabrs", space.cell_qw, sym, sym).reshape(2, 9 * nq, 144)
        elif name == "isotropic":
            table = np.ascontiguousarray(_table(space, "modulus").reshape(2, nq, 9, 144)[:, :, ::4].sum(axis=2))
        elif name == "div":
            table = np.einsum("qa,ksq->kqas", space.p1_vals, sym[..., 0] + sym[..., 1]).reshape(2, nq, 36)
        else:
            g = space.mandel_skew_table.reshape(2, 12, nq, 4)
            table = np.einsum("krqa,ksqa->kqrs", g, g).reshape(2, nq, 144)
        space._cache[key] = table
    return space._cache[key]


def modulus_stiffness(space, modulus, b_vals=None, g1_vals=None):
    """int (M Dw) . Dphi for a symmetric modulus M (C, Q, 3, 3) on the Mandel components of D.

    A modulus of shape (C, Q) is the isotropic modulus w I, whose GEMM runs
    against the modulus table's diagonal rows (alpha = beta) only.  With
    ``b_vals`` (C, Q, 2) and ``g1_vals`` (C, Q) the convective form
    -int (w x b) : D phi - int g1 w . phi, frozen at b, is added to the
    local blocks, so the sum is assembled once.
    """
    table = _table(space, "modulus" if modulus.ndim == 4 else "isotropic")
    loc = space.shape_gemm(modulus.reshape(space.n_cells, -1), table)
    del modulus  # a caller's temporary modulus goes before the assembly's own temporaries
    if b_vals is not None:
        loc += _transport_blocks(space, b_vals, g1_vals)
    return _assemble(space, loc, "vel", "vel")


def sym_grad_stiffness(space, weight=None):
    """int w Du : Dphi over velocity dofs: the modulus w I."""
    return modulus_stiffness(space, np.ones_like(space.qw) if weight is None else weight)


def full_grad_stiffness(space, weight=None):
    """int w grad u : grad phi (component-wise Laplacian)."""
    w = space.qw if weight is None else space.qw * weight
    return _assemble(space, space.shape_gemm(w, _table(space, "full")), "vel", "vel")


def div_coupling(space):
    """D[q, u] = int q div(u) coupling pressure tests with velocity trials; cached on the space with its transpose."""
    cache = space._cache
    if "div_mat" not in cache:
        mat = _assemble(space, space.shape_gemm(space.qw, _table(space, "div")), "p1", "vel")
        cache["div_mat"], cache["div_mat_t"] = mat, mat.T
    return cache["div_mat"]


def _div_coupling_t(space):
    """The transpose of ``div_coupling``, built once per space."""
    div_coupling(space)
    return space._cache["div_mat_t"]


def _transport_blocks(space, b_vals, g1_vals):
    """Local blocks (C, 144) of the transport form of ``modulus_stiffness``."""
    w = np.empty((space.n_cells, space.nq, 3))
    w[..., :2] = space.qw[..., None] * b_vals
    w[..., 2] = space.qw * g1_vals
    return space.shape_gemm(w.reshape(space.n_cells, -1), _table(space, "transport"))


def p1_mass(space):
    table = (space.p1_vals[:, :, None] * space.p1_vals[:, None, :]).reshape(space.nq, 9)
    return _assemble(space, space.qw @ table, "p1", "p1")


def velocity_load(space, f_vals):
    """<f, phi> for pointwise values f_vals of shape (C, Q, 2)."""
    table = space.value_table * np.repeat(space.cell_qw, 2)
    loc = f_vals.reshape(space.n_cells, -1) @ table.T
    return np.bincount(space.cell_vel.ravel(), weights=loc.ravel(), minlength=space.n_vel)


def stress_load(space, s_vals):
    """<S, D phi> for the Mandel components S (C, Q, 3) of a symmetric S; <S, grad phi> for S's gradient components (C, Q, 4)."""
    basis = space.sym_table if s_vals.shape[-1] == 3 else space.mandel_skew_table
    table = basis * np.repeat(space.cell_qw, basis.shape[-1] // space.nq)
    loc = space.shape_gemm(s_vals.reshape(space.n_cells, -1), table.transpose(0, 2, 1))
    return np.bincount(space.cell_vel.ravel(), weights=loc.ravel(), minlength=space.n_vel)


def p1_load(space, vals):
    loc = vals @ (space.p1_vals * space.cell_qw[:, None])
    return np.bincount(space.cell_p1.ravel(), weights=loc.ravel(), minlength=space.n_p1)


# A solve ends when |rhs - K x| <= REFINE_RTOL |rhs|.  A held factor on
# which GMRES needs more than GMRES_CAP iterations is too stale to keep.
REFINE_RTOL = 1e-12
GMRES_CAP = 30
# A box of the node lattice whose sides are at most ND_LEAF points is not cut.
ND_LEAF = 3


class FactorHolder:
    """The last LU factor of a free-dof system and its last solution, kept for later solves.

    ``factorizations`` counts the fresh factors made through the holder and
    ``refinements`` the GMRES iterations run on a held or a fresh factor.
    """

    def __init__(self):
        self.lu = None
        self.x = None
        self.factorizations = 0
        self.refinements = 0


def _mesh_line(a, b):
    """An even index strictly inside a..b-1 (b - a > 3), at its middle."""
    s = (a + b - 1) // 2
    s -= s % 2
    return s if s > a else s + 2


def _dissection_rank(nx, ny):
    """Rank of every point of the (2 nx + 1) x (2 ny + 1) P2 node lattice in nested-dissection order.

    Point (ix, iy) is number iy (2 nx + 1) + ix.  A box of points is cut
    across its longer side by the mesh line (even index) at its middle.
    No cell holds points on both sides of a mesh line, so the line
    separates the two halves, and its points are numbered after both
    (George, SIAM J. Numer. Anal. 10, 1973).  A box with no side longer
    than ND_LEAF is not cut.  Uncut boxes and separators are numbered with
    the index across their shorter side running fastest.
    """
    w, h = 2 * nx + 1, 2 * ny + 1
    grid = np.arange(w * h).reshape(h, w)
    order = []
    # half-open boxes [x0, x1) x [y0, y1) and whether they may be cut; a
    # stack, not a recursive closure, so no reference cycle outlives the call
    stack = [(0, w, 0, h, True)]
    while stack:
        x0, x1, y0, y1, cut = stack.pop()
        if cut and max(x1 - x0, y1 - y0) > ND_LEAF:
            if x1 - x0 >= y1 - y0:
                s = _mesh_line(x0, x1)
                stack += [(s, s + 1, y0, y1, False), (s + 1, x1, y0, y1, True), (x0, s, y0, y1, True)]
            else:
                s = _mesh_line(y0, y1)
                stack += [(x0, x1, s, s + 1, False), (x0, x1, s + 1, y1, True), (x0, x1, y0, s, True)]
        else:
            box = grid[y0:y1, x0:x1]
            order.append((box if x1 - x0 <= y1 - y0 else box.T).ravel())
    rank = np.empty(w * h, dtype=np.intp)
    rank[np.concatenate(order)] = np.arange(w * h)
    return rank


def _free_order(space, bordered):
    """Nested-dissection order of the free system's unknowns: unknown perm[i] is numbered i.

    The free velocity dofs (x components, then y) sit at their P2 nodes and,
    when ``bordered``, pinned pressure row j (pressure dof j + 1) at vertex
    j + 1.  Unknowns are sorted by their node's ``_dissection_rank``, and at
    one node as x, y, pressure.
    """
    nx = space.nx
    n_border = space.n_p1 - 1 if bordered else 0
    lattice = np.empty((space.n_p2, 2), dtype=np.intp)  # (ix, iy) of every P2 node
    iy, ix = np.divmod(np.arange(space.n_verts), nx + 1)
    lattice[: space.n_verts] = 2 * np.column_stack([ix, iy])
    lattice[space.n_verts:] = lattice[space.edge_verts].sum(axis=1) // 2
    point = lattice[:, 1] * (2 * nx + 1) + lattice[:, 0]
    inner = space.interior_p2
    node = np.concatenate([inner, inner, np.arange(1, n_border + 1)])
    comp = np.repeat([0, 1, 2], [inner.size, inner.size, n_border])
    return np.lexsort((comp, _dissection_rank(nx, space.ny)[point[node]]))


def _free_block(space, a_mat, bordered):
    """Free-dof block of A, bordered when ``bordered``, in CSC and in ``_free_order``.

    The border is the free columns of the divergence coupling without its
    row 0: pressure dof 0 is pinned.  Returns ``(K, perm)``: row and column
    i of K belong to unknown perm[i] of the free system.  The block's
    pattern, its order and the gather from the data of A (and of the
    coupling) are built once per space and kept while A's pattern stays
    the same.
    """
    mats = [a_mat.tocsr()] + ([div_coupling(space)] if bordered else [])
    key = ("free_block", bordered)
    hit = space._cache.get(key)
    if hit is None or not (np.array_equal(mats[0].indptr, hit[0]) and np.array_equal(mats[0].indices, hit[1])):
        # tag every entry with its 1-based position in the concatenated data
        offsets = np.cumsum([0] + [m.nnz for m in mats])
        tagged = [
            sp.csr_matrix((np.arange(o + 1, o + m.nnz + 1, dtype=float), m.indices, m.indptr), shape=m.shape)
            for m, o in zip(mats, offsets)
        ]
        free = space.free_vel_dofs
        blk = tagged[0][free][:, free]
        if bordered:
            c_f = tagged[1][1:, free]
            blk = sp.bmat([[blk, c_f.T], [c_f, None]])
        perm = _free_order(space, bordered)
        blk = blk.tocsr()[perm][:, perm].tocsc()
        hit = space._cache[key] = (
            mats[0].indptr.copy(), mats[0].indices.copy(), blk.indptr, blk.indices, blk.data.astype(np.intp) - 1, perm
        )
    _, _, indptr, indices, gather, perm = hit
    data = np.concatenate([m.data for m in mats])[gather]
    return sp.csc_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2), perm


def _gmres(k, lu, rhs, x):
    """GMRES on K x = rhs from x, right-preconditioned by ``lu.solve``.

    Saad-Schultz (SIAM J. Sci. Stat. Comput. 7, 1986), with Givens
    rotations and Gram-Schmidt run twice.  A cycle ends when its residual
    estimate reaches REFINE_RTOL |rhs| or GMRES_CAP iterations are spent in
    all; a cycle whose true residual misses the target restarts from its x.
    Returns ``(x, whether |rhs - K x| met the target, iterations)``.

    Not ``scipy.sparse.linalg.gmres``: scipy preconditions from the left and
    stops on the preconditioned residual, so its answers can miss the
    true-residual target and each miss costs a fresh LU.  With the same
    cap and tolerance, the cold 20x20 manufactured solve made 3 fresh LUs
    with it instead of 1.
    """
    target = REFINE_RTOL * np.linalg.norm(rhs)
    r = rhs - k @ x
    res = np.linalg.norm(r)
    its = 0
    while res > target and its < GMRES_CAP:
        m = GMRES_CAP - its
        v = np.empty((m + 1, r.size))
        h = np.zeros((m + 1, m))
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        v[0], g[0] = r / res, res
        j = 0
        while j < m and abs(g[j]) > target:
            w = k @ lu.solve(v[j])
            for _ in range(2):
                c = v[: j + 1] @ w
                w -= c @ v[: j + 1]
                h[: j + 1, j] += c
            beta = np.linalg.norm(w)
            for i in range(j):
                h[i, j], h[i + 1, j] = cs[i] * h[i, j] + sn[i] * h[i + 1, j], cs[i] * h[i + 1, j] - sn[i] * h[i, j]
            d = np.hypot(h[j, j], beta)
            if d == 0.0:  # K maps the new direction to zero: no progress from here
                break
            cs[j], sn[j] = h[j, j] / d, beta / d
            h[j, j] = d
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            if beta > 0.0:
                v[j + 1] = w / beta
            j += 1
        if j == 0:
            break
        y = sla.solve_triangular(h[:j, :j], g[:j])
        x = x + lu.solve(y @ v[:j])
        its += j
        r = rhs - k @ x
        res = np.linalg.norm(r)
    return x, res <= target, its


def _factor_solve(k, rhs, held):
    """Solve K x = rhs by GMRES on the held factor, or on a fresh factor of K.

    GMRES (``_gmres``) runs from the held solution.  When it misses
    REFINE_RTOL |rhs| within GMRES_CAP iterations, K is factored afresh,
    ``splu`` in the given order with threshold pivoting, and the new
    factor replaces the held one.  GMRES then polishes the fresh solve
    ``lu.solve(rhs)``; if the polish misses the target, the fresh solve is
    kept.  A singular K raises RuntimeError.
    """
    if held.lu is not None:
        x, ok, its = _gmres(k, held.lu, rhs, held.x)
        held.refinements += its
        if ok:
            held.x = x
            return x
        held.lu = None  # drop the stale factor before the new one is built
    held.lu = spla.splu(k, permc_spec="NATURAL", diag_pivot_thresh=1e-6)
    held.factorizations += 1
    x0 = held.lu.solve(rhs)
    x, ok, its = _gmres(k, held.lu, rhs, x0)
    held.refinements += its
    held.x = x if ok else x0
    return held.x


def solve_saddle(space, a_mat, rhs_vel, div_rhs=None, fixed_vals=None, factor=None):
    """Solve A u = rhs_vel on the free velocity dofs; with ``div_rhs``, A u + C^T lam = rhs_vel, C u = div_rhs.

    C is the divergence coupling.  The boundary values of u are those of
    ``fixed_vals`` (full-length array; only boundary entries are read), zero
    without it, and are eliminated from both right-hand sides.  The
    multiplier is fixed up to the constant pressure mode, which is pinned by
    dropping pressure dof 0: its constraint row and multiplier column leave
    the system and ``lam[0] = 0``.  Since C^T of a constant vanishes on the
    free velocity dofs, the velocity is unaffected and
    ``space.pressure_field(lam)`` gives the mean-zero multiplier.  The
    dropped row absorbs the compatibility defect of ``div_rhs``.  ``factor``
    is a FactorHolder whose LU, from an earlier and similar system,
    preconditions GMRES to ``REFINE_RTOL`` and is replaced by a fresh one
    when too stale; without it the system is factored afresh.  A singular
    system raises RuntimeError.  Returns ``(u, lam)``: the full-length
    velocity and the multiplier (empty without ``div_rhs``).
    """
    free = space.free_vel_dofs
    u = np.zeros(space.n_vel)
    bordered = div_rhs is not None
    if fixed_vals is None:  # u = 0 off the free dofs: no product to subtract
        rhs = rhs_vel[free]
        if bordered:
            rhs = np.concatenate([rhs, div_rhs[1:]])
    else:
        fixed = space.boundary_vel_dofs
        u[fixed] = fixed_vals[fixed]
        rhs = (rhs_vel - a_mat @ u)[free]
        if bordered:
            rhs = np.concatenate([rhs, (div_rhs - div_coupling(space) @ u)[1:]])
    k, perm = _free_block(space, a_mat, bordered)
    sol = np.empty(rhs.size)
    sol[perm] = _factor_solve(k, rhs[perm], FactorHolder() if factor is None else factor)
    u[free] = sol[: free.size]
    lam = sol[free.size:]
    return u, (np.concatenate([[0.0], lam]) if bordered else lam)
