import functools

import numpy as np
import pytest

import finsler_spectra as fs


def unit_square_spec():
    return fs.shape(fs.rectangle(0.0, 0.0, 1.0, 1.0))


def lshape_spec():
    # unit square minus its top-right quarter
    return fs.shape(
        fs.rectangle(0.0, 0.0, 1.0, 1.0),
        fs.rectangle(0.5, 0.5, 1.01, 1.01, mode="subtract"),
    )


def rect21_spec():
    return fs.shape(fs.rectangle(0.0, 0.0, 2.0, 1.0))


def two_disk_spec(r1=1.0, r2=0.75, separation=3.0):
    return fs.shape(
        fs.euclidean_disk((0.0, 0.0), r1),
        fs.euclidean_disk((separation, 0.0), r2),
    )


ALL_NORMS = {
    "euclidean": fs.euclidean(),
    "weighted_quadratic": fs.weighted_quadratic(4.0, 1.0),
    "lq": fs.lq_norm(3.0),
}


@pytest.fixture(scope="session")
def square_64():
    return fs.rasterize(unit_square_spec(), 1.0 / 64)


@pytest.fixture(scope="session")
def square_128():
    return fs.rasterize(unit_square_spec(), 1.0 / 128)


@pytest.fixture(scope="session")
def disk_48():
    return fs.rasterize(fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), 1.0 / 48)


def brute_force_two_wulff(grid, norm, dvals_grid):
    """O(N^2) maximin oracle: max over node pairs of min(d1, d2, polar_dist/2)."""
    pol = fs.polar(norm)
    nodes = np.argwhere(grid.mask)
    pts = grid.node_points(nodes)
    d = dvals_grid[grid.mask]
    best = -np.inf
    for i in range(len(pts)):
        dist = fs.eval_norm(pol, pts - pts[i])
        cand = np.minimum(np.minimum(d, d[i]), 0.5 * dist)
        cand[i] = -np.inf
        best = max(best, float(cand.max()))
    return best


def offset_lshape_spec(dx=0.013, dy=0.007):
    """The L-shape shifted off the lattice, so ring distances are not grid multiples."""
    return fs.shape(
        fs.rectangle(dx, dy, 1.0 + dx, 1.0 + dy),
        fs.rectangle(0.5 + dx, 0.5 + dy, 1.01 + dx, 1.01 + dy, mode="subtract"),
    )


def _row_blocks(n, chunk=512):
    for lo in range(0, n, chunk):
        yield lo, min(lo + chunk, n)


def brute_force_distance(grid, norm):
    """All-pairs d(x) = min over ring nodes y of F_polar(x - y), as a grid array."""
    pol = fs.polar(norm)
    bpts = grid.node_points(grid.boundary_node_indices())
    ipts = grid.node_points(np.argwhere(grid.mask))
    d = np.empty(len(ipts))
    for lo, hi in _row_blocks(len(ipts)):
        d[lo:hi] = fs.eval_norm(pol, ipts[lo:hi, None, :] - bpts[None, :, :]).min(axis=1)
    out = np.zeros((grid.nx, grid.ny))
    out[grid.mask] = d
    return out


def brute_force_sup_rayleigh(field, norm):
    """max over all node pairs (ring nodes valued 0) of |dv| / F_polar(dx), over max|v|."""
    grid = field.tri.grid
    pol = fs.polar(norm)
    bpts = grid.node_points(grid.boundary_node_indices())
    pts = np.concatenate([grid.node_points(np.argwhere(grid.mask)), bpts])
    vals = np.concatenate([field.values, np.zeros(len(bpts))])
    lip_sq = 0.0
    for lo, hi in _row_blocks(len(pts)):
        dist_sq = fs.norms.eval_norm_sq(pol, pts[lo:hi, None, :] - pts[None, :, :])
        dval = vals[lo:hi, None] - vals[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist_sq > 0.0, dval * dval / dist_sq, 0.0)
        lip_sq = max(lip_sq, float(ratio.max()))
    return float(np.sqrt(lip_sq)) / np.abs(field.values).max()


def brute_force_eikonal_fraction(field, norm, tri, grad_tol=0.1, ridge_spread=3.0):
    """eikonal_bulk_fraction with the ridge spread taken row by row over all ring nodes."""
    grid = field.grid
    h = grid.h
    pol = fs.polar(norm)
    bpts = grid.node_points(grid.boundary_node_indices())
    ipts = grid.node_points(np.argwhere(grid.mask))
    dvals = field.d[grid.mask]
    spread = np.zeros(len(ipts))
    for k in range(len(ipts)):
        near = bpts[fs.eval_norm(pol, ipts[k] - bpts) <= dvals[k] + h]
        if len(near) > 1:
            spread[k] = np.hypot(np.ptp(near[:, 0]), np.ptp(near[:, 1]))
    ridge = np.zeros(grid.mask.shape, dtype=bool)
    ridge[grid.mask] = spread > ridge_spread * h
    bad = ridge | grid.boundary_adjacent() | ~grid.mask
    ci, cj = tri.cell_ij[:, 0], tri.cell_ij[:, 1]
    cell_bad = bad[ci, cj] | bad[ci + 1, cj] | bad[ci + 1, cj + 1] | bad[ci, cj + 1]
    good = np.concatenate([~cell_bad, ~cell_bad])
    if not good.any():
        return 1.0
    f = fs.eval_norm(norm, fs.triangle_gradients(field.as_field(tri)))
    return float(np.mean(np.abs(f[good] - 1.0) <= grad_tol))


# Reference copies of the descent's building blocks as they were before the
# lean rewrite (separate Gx, Gy products, ScalarField-wrapped gradients,
# np.linalg.norm, np.clip).  The rewrite must reproduce them bit for bit.

def reference_gradient_matrices(grid):
    """(Gx, Gy) of the criss-cross mesh, assembled as two separate CSR matrices."""
    import scipy.sparse as sp

    def block(rows, plus, minus, h, ntri, ndof):
        mp = plus >= 0
        mm = minus >= 0
        data = np.concatenate([np.full(mp.sum(), 1.0 / h), np.full(mm.sum(), -1.0 / h)])
        ij = (np.concatenate([rows[mp], rows[mm]]), np.concatenate([plus[mp], minus[mm]]))
        return sp.csr_matrix((data, ij), shape=(ntri, ndof))

    mask = grid.mask
    node_index = -np.ones(mask.shape, dtype=np.int64)
    ndof = int(mask.sum())
    node_index[mask] = np.arange(ndof)
    a, b = node_index[:-1, :-1], node_index[1:, :-1]
    c, d = node_index[1:, 1:], node_index[:-1, 1:]
    keep = (a >= 0) | (b >= 0) | (c >= 0) | (d >= 0)
    A, B, C, D = a[keep], b[keep], c[keep], d[keep]
    rows = np.arange(A.size)
    h = grid.h
    Gx = sp.vstack([block(rows, B, A, h, A.size, ndof), block(rows, C, D, h, A.size, ndof)]).tocsr()
    Gy = sp.vstack([block(rows, C, B, h, A.size, ndof), block(rows, D, A, h, A.size, ndof)]).tocsr()
    return Gx, Gy


def reference_triangulation_matrices(grid):
    """(G, GxT, GyT) as triangulate assembled them before it wrote them from the cell corners:
    four COO blocks stacked, then transposed through scipy."""
    import scipy.sparse as sp

    def block(rows, plus, minus, h, ntri, ndof):
        mp = plus >= 0
        mm = minus >= 0
        data = np.concatenate([np.full(mp.sum(), 1.0 / h), np.full(mm.sum(), -1.0 / h)])
        ij = (np.concatenate([rows[mp], rows[mm]]), np.concatenate([plus[mp], minus[mm]]))
        return sp.csr_matrix((data, ij), shape=(ntri, ndof))

    mask = grid.mask
    node_index = -np.ones(mask.shape, dtype=np.int64)
    ndof = int(mask.sum())
    node_index[mask] = np.arange(ndof)
    a, b = node_index[:-1, :-1], node_index[1:, :-1]
    c, d = node_index[1:, 1:], node_index[:-1, 1:]
    keep = (a >= 0) | (b >= 0) | (c >= 0) | (d >= 0)
    A, B, C, D = a[keep], b[keep], c[keep], d[keep]
    ncell = A.size
    rows = np.arange(ncell)
    h = grid.h
    G = sp.vstack([
        block(rows, B, A, h, ncell, ndof),
        block(rows, C, D, h, ncell, ndof),
        block(rows, C, B, h, ncell, ndof),
        block(rows, D, A, h, ncell, ndof),
    ]).tocsr()
    ntri = 2 * ncell
    return G, G[:ntri].T.tocsr(), G[ntri:].T.tocsr()


def reference_newton_arrays(G, area, ndof):
    """(perm, rank, rows, cols, w, band, map) of eigensolve._NewtonMatrix as it was built from G
    before it read the cell corners: every term of G^T K G as COO, its RCM graph and np.unique."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n, nt = ndof, G.shape[0] // 2
    G = G.tocoo()
    order = np.argsort(G.row % nt, kind="stable")
    t = G.row[order] % nt
    slot = np.arange(t.size) - np.searchsorted(t, t)
    node, block, value = (np.zeros((nt, 4), dtype=dt) for dt in (np.int64, np.int64, float))
    node[t, slot], block[t, slot], value[t, slot] = G.col[order], G.row[order] // nt, G.data[order]
    j = np.arange(n)
    terms = [(node[:, a], node[:, b], (block[:, a] + block[:, b]) * nt + np.arange(nt),
              area * value[:, a] * value[:, b]) for a in range(4) for b in range(4)]
    terms.append((j, j, 3 * nt + j, np.ones(n)))
    rows, cols, coef, vals = (np.concatenate(x) for x in zip(*terms))
    keep = vals != 0.0
    rows, cols, coef, vals = (x[keep] for x in (rows, cols, coef, vals))
    perm = reverse_cuthill_mckee(sp.csr_matrix((vals, (rows, cols))), symmetric_mode=True)
    rank = np.argsort(perm)
    keys, pos = np.unique(rank[rows] * n + rank[cols], return_inverse=True)
    mapping = sp.csr_matrix((vals, (pos, coef)), shape=(keys.size, 3 * nt + n))
    krows, kcols = keys // n, keys % n
    w = int(np.abs(krows - kcols).max(initial=0))
    return perm, rank, krows, kcols, w, (2 * w + krows - kcols, kcols), mapping


def reference_stiffness(tri, norm):
    """The p=2 stiffness of eigensolve._LinearPairs as sparse products of the gradient matrices."""
    return (tri.area * (norm.w1 * (tri.GxT @ tri.Gx) + norm.w2 * (tri.GyT @ tri.Gy))).tocsc()


def same_sparse(a, b) -> bool:
    """Equal class, shape and indptr, indices and data arrays, dtypes included."""
    return (type(a) is type(b) and a.shape == b.shape
            and all(x.dtype == y.dtype and np.array_equal(x, y)
                    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))))


@functools.lru_cache(maxsize=None)
def assembly_grids():
    """Grids whose operators are compared with the reference assemblies, by name: from one node
    to ~20,000 dofs, strips one node wide, holes, several components and a diagonal contact."""
    def framed(mask, h):
        return fs.DomainGrid((0.0, 0.0), h, mask.shape[0], mask.shape[1], mask)

    one = np.zeros((3, 3), dtype=bool)
    one[1, 1] = True
    row, col = np.zeros((3, 12), dtype=bool), np.zeros((12, 3), dtype=bool)
    row[1, 1:11] = col[1:11, 1] = True
    blocks = np.zeros((16, 16), dtype=bool)
    blocks[2:8, 2:8] = blocks[8:14, 8:14] = True
    holed = fs.shape(fs.rectangle(0.0, 0.0, 1.0, 1.0), fs.rectangle(0.3, 0.3, 0.7, 0.7, mode="subtract"))
    return {
        "one node": framed(one, 0.5),
        "one-row strip": framed(row, 0.125),
        "one-column strip": framed(col, 0.125),
        "square h=1/4": fs.rasterize(unit_square_spec(), 1.0 / 4),
        "square h=1/16": fs.rasterize(unit_square_spec(), 1.0 / 16),
        "L-shape h=1/16": fs.rasterize(lshape_spec(), 1.0 / 16),
        "two disks h=1/8": fs.rasterize(two_disk_spec(), 1.0 / 8),
        "diagonal blocks": framed(blocks, 1.0 / 6),
        "square with a hole h=1/16": fs.rasterize(holed, 1.0 / 16),
        "rectangle 2x1 h=1/24": fs.rasterize(rect21_spec(), 1.0 / 24),
        "square h=1/64": fs.rasterize(unit_square_spec(), 1.0 / 64),
        "two disks h=1/64": fs.rasterize(two_disk_spec(), 1.0 / 64),
    }


def reference_mass_root(tri, values, p):
    a = np.abs(values)
    peak = a.max(initial=0.0)
    if peak == 0.0 or not np.isfinite(peak):
        raise ValueError("cannot normalize a zero or non-finite field")
    root = peak * float(tri.h ** 2 * np.sum((a / peak) ** p)) ** (1.0 / p)
    if root == 0.0 or not np.isfinite(root):
        raise ValueError("cannot normalize a zero or non-finite field")
    return root


def reference_energy_terms(gx, gy, norm):
    f2, hx, hy = fs.norms.squared_with_halfgrad(norm, gx, gy)
    return f2, hx, hy


def reference_energy_from_terms(tri, terms, p):
    f2e = terms[0]
    s = np.sqrt(f2e.max(initial=0.0))
    if s == 0.0:
        return 0.0
    return float(tri.area * s ** p * np.sum((f2e / (s * s)) ** (0.5 * p)))


def reference_mass_gradient(tri, values, p):
    v = np.abs(values)
    m = v.max(initial=0.0)
    if m == 0.0:
        return np.zeros(tri.ndof)
    return p * tri.h ** 2 * m ** (p - 1.0) * np.sign(values) * (v / m) ** (p - 1.0)


def reference_gradient_from_terms(tri, terms, p):
    f2e, hx, hy = terms
    s2 = f2e.max(initial=0.0)
    if s2 == 0.0:
        return np.zeros(tri.ndof)
    w = np.zeros_like(f2e)
    np.power(f2e / s2, 0.5 * p - 1.0, out=w, where=f2e > 0.0)
    w *= p * s2 ** (0.5 * p - 1.0)
    g = tri.GxT @ (w * hx) + tri.GyT @ (w * hy)
    return tri.area * g


def reference_tangent_gradient(tri, p, v, r, terms):
    gm = reference_mass_gradient(tri, v, p)
    g = reference_gradient_from_terms(tri, terms, p) - r * gm
    # the solver's dot products go through np.einsum, whose sums do not depend on the
    # BLAS thread count; x @ y would round differently
    g -= (float(np.einsum("i,i", g, gm)) / float(np.einsum("i,i", gm, gm))) * gm
    return g


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: stricter than ==, it also tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
