"""Discrete geometry: periodic strip / interval with wall nodes.

The computational domain is either a 2-D strip, periodic in x with two flat
walls at y=0 and y=Ly, or a 1-D interval [0, Ly] whose boundary is the two
endpoints.  Fields live on a single node set covering the closure of the
domain: interior nodes sit at cell centers in y and carry the bulk
quadrature weight, wall nodes sit exactly on the boundary and carry the
surface quadrature weight (their bulk weight is zero).  This split makes
the discrete pairing of a field with its boundary trace exact: constants,
surface masses and wall fluxes come out with no O(h) contamination.

Node ordering (stable across runs): flat index = j*nx + i, where j=0 is the
wall y=0, j=1..ny-2 are interior rows at y=(j-1/2)*hy with hy=Ly/(ny-2),
and j=ny-1 is the wall y=Ly.  The interval is the strip's single column
of unit width (nx=1, hx=1), so its index is j and every weight and form is
the strip's formula.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .config import MAX_NODES, node_count


class GridMode(Enum):
    STRIP2D = "strip2d"
    INTERVAL1D = "interval1d"


@dataclass(frozen=True)
class GridForms:
    """Geometry-only quadratic forms, assembled once per grid.

    k_grad : sparse matrix of the bulk Dirichlet form, u.(K v) = discrete
        integral of grad(u).grad(v) over the bulk.
    k_par : sparse matrix of the surface Dirichlet form along the walls
        (zero for the interval).
    bulk_mass : diagonal of the lumped bulk mass, per node (zero on walls).
    bdry_mass : diagonal of the surface mass, per node (zero off walls).
    """

    k_grad: sp.csr_matrix
    k_par: sp.csr_matrix
    bulk_mass: np.ndarray
    bdry_mass: np.ndarray
    _k_lin: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def k_lin(self, alpha=1.0, beta=1.0):
        """k_grad + alpha k_par + beta diag(bdry_mass), memoized per (alpha, beta).

        The quadratic part of the free energy with surface constants alpha,
        beta: u.(k_lin(alpha, beta) u) is twice the energy of a field with
        F = 0.  With alpha = 0 and beta = c/b it is the form of the elliptic
        operator.  The returned matrix is shared; callers must not modify it.
        """
        key = (float(alpha), float(beta))
        K = self._k_lin.get(key)
        if K is None:
            K = self.k_grad + beta * sp.diags(self.bdry_mass)
            if alpha != 0.0:
                K = K + alpha * self.k_par
            K = self._k_lin[key] = K.tocsr()
        return K


class StripGrid:
    """Immutable grid: geometry, weights and boundary indexing.

    Safe to share read-only across threads once built; a field is a plain
    array of shape (n_nodes,) that its holder owns.

    Attributes
    ----------
    mode : GridMode
    Lx, Ly : float
        Domain lengths (Lx is 0.0 in interval mode).
    nx, ny : int
        Node counts; ny includes the two wall rows.
    hx, hy : float
        Spacings. hy is the interior cell height Ly/(ny-2); the gap between
        a wall and the first interior row is hy/2.  hx is Lx/nx on the
        strip and 1 on the interval, its one column of unit width.
    bulk_weights : ndarray, shape (n_nodes,)
        Bulk quadrature weight per node; sums to the domain area exactly.
    bdry_weights : ndarray, shape (n_bdry,)
        Surface quadrature weight per wall node; sums to the wall length
        (interval mode: two endpoint weights of 1, so the surface measure
        is 2).
    bdry_idx : ndarray of int
        Flat indices of the wall nodes, bottom wall first.
    """

    def __init__(self, mode, Lx, Ly, nx, ny):
        if Ly <= 0:
            raise ValueError(f"Ly must be positive, got {Ly}")
        if ny < 4:
            raise ValueError(f"ny must be at least 4 (stencil width), got {ny}")
        self.mode = mode
        self.Ly = float(Ly)
        self.ny = int(ny)
        self.hy = self.Ly / (self.ny - 2)

        if mode is GridMode.STRIP2D:
            if Lx <= 0:
                raise ValueError(f"Lx must be positive, got {Lx}")
            if nx < 4:
                raise ValueError(f"nx must be at least 4 (stencil width), got {nx}")
            self.Lx = float(Lx)
            self.nx = int(nx)
            self.hx = self.Lx / self.nx
        else:
            # the interval is one column of unit width
            self.Lx = 0.0
            self.nx = 1
            self.hx = 1.0

        self.n_nodes = self.nx * self.ny
        ys = np.empty(self.ny)
        ys[0] = 0.0
        ys[1:-1] = (np.arange(1, self.ny - 1) - 0.5) * self.hy
        ys[-1] = self.Ly
        self.x = np.tile(np.arange(self.nx) * self.hx, self.ny)
        self.y = np.repeat(ys, self.nx)

        self.bdry_idx = np.concatenate(
            [np.arange(self.nx), np.arange(self.nx) + (self.ny - 1) * self.nx]
        )
        on_wall = np.zeros(self.n_nodes, dtype=bool)
        on_wall[self.bdry_idx] = True
        self.on_gamma = on_wall
        self.interior_idx = np.nonzero(~on_wall)[0]

        self.bulk_weights = np.where(on_wall, 0.0, self.hx * self.hy)
        self.bdry_weights = np.full(2 * self.nx, self.hx)
        self._forms = None
        self._h_weights = {}
        self._snapshot_template = None

    @property
    def area(self):
        return self.Lx * self.Ly if self.mode is GridMode.STRIP2D else self.Ly

    @property
    def surface(self):
        return 2.0 * self.Lx if self.mode is GridMode.STRIP2D else 2.0

    def h_weights(self, b=1.0):
        """Diagonal of the product-space inner product, boundary part scaled 1/b.

        Memoized per b: the returned array is shared and read-only."""
        w = self._h_weights.get(b)
        if w is None:
            w = self.bulk_weights.copy()
            w[self.bdry_idx] += self.bdry_weights / b
            w.setflags(write=False)
            self._h_weights[b] = w
        return w

    @property
    def forms(self):
        if self._forms is None:
            self._forms = _assemble_forms(self)
        return self._forms

    @property
    def snapshot_template(self):
        """The text of a snapshot with %.17g in place of each u, made once,
        as a tuple of blocks of whole levels (``_snapshot_template``).

        Every column but u depends on the grid alone, so ``save_field``
        formats only the field values into these shared strings.
        """
        if self._snapshot_template is None:
            self._snapshot_template = _snapshot_template(self)
        return self._snapshot_template

    def params(self):
        return (self.mode, self.Lx, self.Ly, self.nx, self.ny)

    def __eq__(self, other):
        return isinstance(other, StripGrid) and self.params() == other.params()

    def __hash__(self):
        return hash(self.params())

    def __repr__(self):
        return (
            f"StripGrid({self.mode.value}, Lx={self.Lx}, Ly={self.Ly}, "
            f"nx={self.nx}, ny={self.ny})"
        )


def build_grid(mode, Lx=None, Ly=None, nx=None, ny=None):
    """Construct a grid; see StripGrid for the node layout and invariants."""
    if isinstance(mode, str):
        mode = GridMode(mode.lower())
    if Ly is None or ny is None:
        raise ValueError("Ly and ny are required")
    if mode is GridMode.STRIP2D:
        if Lx is None or nx is None:
            raise ValueError("Strip2D requires Lx and nx")
        return StripGrid(mode, Lx, Ly, nx, ny)
    return StripGrid(mode, 0.0, Ly, 1, ny)


def _chain(n, edges):
    """Stiffness of unit-weight edges (a, b) among n nodes; a self-loop adds 0."""
    a, b = np.reshape(np.asarray(edges, dtype=int), (-1, 2)).T
    ones = np.ones(a.size)
    return sp.csr_matrix((np.r_[ones, ones, -ones, -ones],
                          (np.r_[a, b, a, b], np.r_[a, b, b, a])), shape=(n, n))


def _assemble_forms(grid):
    """The forms as Kronecker products of a periodic x-chain and y-chains.

    Interior rows couple along x with weight hy/hx; the wall-to-first-row
    half cells couple with 2 hx/hy and the uniform interior edges with
    hx/hy; each wall couples along x with weight 1/hx.  The interval's
    single column has only the self-loop (0, 0), so its x-chain is zero.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    i, j = np.arange(nx), np.arange(1, ny - 2)
    kx = _chain(nx, np.c_[i, (i + 1) % nx])
    ky_wall = _chain(ny, [(0, 1), (ny - 2, ny - 1)])
    ky_inner = _chain(ny, np.c_[j, j + 1])
    wall = np.zeros(ny)
    wall[[0, -1]] = 1.0
    eye = sp.identity(nx, format="csr")
    k_grad = (sp.kron(sp.diags(1.0 - wall), (hy / hx) * kx)
              + sp.kron((2.0 * (hx / hy)) * ky_wall, eye)
              + sp.kron((hx / hy) * ky_inner, eye)).tocsr()
    k_par = sp.kron(sp.diags(wall), kx / hx).tocsr()
    # canonical CSR: no stored zeros (the self-loop, the zero diagonal
    # weights) and sorted indices, which fix the order of later products
    for K in (k_grad, k_par):
        K.eliminate_zeros()
        K.sort_indices()
    bdry_mass = np.zeros(grid.n_nodes)
    bdry_mass[grid.bdry_idx] = grid.bdry_weights
    return GridForms(k_grad, k_par, grid.bulk_weights.copy(), bdry_mass)


@dataclass(frozen=True, eq=False)
class PairField:
    """A field's values with their grid, as ``load_field`` (which may rebuild
    the grid from the file) and ``make_initial`` (whose ``.values``
    e2ebench/workloads.py reads) return them.  No function takes one."""

    grid: StripGrid
    values: np.ndarray


# OpenBLAS splits a ddot across threads from 10,001 entries on, and the
# split changes how the partial sums round.  A chunk of at most DOT_CHUNK
# entries is one unthreaded ddot on any thread count.  The value is tied
# to that threshold of the installed OpenBLAS; tests/test_blas_threads.py
# checks it.
DOT_CHUNK = 8192


def dot(a, b):
    """The dot product of two vectors, with the same bits on any BLAS thread count.

    Up to DOT_CHUNK entries it is one ``np.dot``; above, the ``np.dot`` of
    each chunk of DOT_CHUNK entries, summed in order.
    """
    if a.size <= DOT_CHUNK:
        return float(np.dot(a, b))
    s = 0.0
    for k in range(0, a.size, DOT_CHUNK):
        s += float(np.dot(a[k:k + DOT_CHUNK], b[k:k + DOT_CHUNK]))
    return s


def h_inner(grid, u, v, b=1.0):
    """Product-space inner product: bulk quadrature plus wall quadrature.

    With b=1 this is the geometric pairing (bulk L2 plus surface L2); the
    optional b rescales the surface part by 1/b, matching the metric in
    which the permeable-wall flow is a gradient flow.
    """
    uv = u * v
    s = dot(grid.bulk_weights, uv)
    s += dot(grid.bdry_weights, uv[grid.bdry_idx]) / b
    return s


def h_norm(grid, u, b=1.0):
    return np.sqrt(max(h_inner(grid, u, u, b=b), 0.0))


# ---------------------------------------------------------------------------
# field snapshots
# ---------------------------------------------------------------------------

FIELD_HEADER = "# mode,Lx,Ly,nx,ny"


# the most u slots a block of the snapshot template holds, unless one level
# alone has more
SNAP_BLOCK = 8192


def _snapshot_template(grid):
    """Header, column line and one row per node, u left as a %.17g slot.

    The rows are grouped into blocks of whole levels, each with at most
    SNAP_BLOCK slots (one level per block when nx exceeds it); the header
    opens the first block.  ``save_field`` formats and writes one block at
    a time, so the text it holds at once is bounded.

    The rows of a level differ from those of any other level only in j, y
    and the on_gamma flag, which is the same along a level (the walls are
    whole levels).  So one level is formatted once, with a marker character
    in place of each of the three, and every level is that text with its
    markers replaced.
    """
    nx = grid.nx
    # \0, \1 and \2 mark where j, y and the flag go
    level = "".join(f"{i},\0,{x:.17g},\1,%.17g,\2\n"
                    for i, x in enumerate(grid.x[:nx].tolist()))
    ys = grid.y[::nx].tolist()
    flags = grid.on_gamma[::nx].astype(int).tolist()
    levels = [level.replace("\0", str(j)).replace("\1", f"{ys[j]:.17g}")
              .replace("\2", str(flags[j])) for j in range(grid.ny)]
    levels[0] = (f"{FIELD_HEADER}\n# {grid.mode.value},{grid.Lx:.17g},{grid.Ly:.17g},"
                 f"{nx},{grid.ny}\ni,j,x,y,u,on_gamma\n" + levels[0])
    per_block = _levels_per_block(grid)
    return tuple("".join(levels[j:j + per_block]) for j in range(0, grid.ny, per_block))


def _levels_per_block(grid):
    return max(1, SNAP_BLOCK // grid.nx)


def save_field(grid, u, path):
    """Write the field u on grid as CSV with a grid-identifying header."""
    step = grid.nx * _levels_per_block(grid)
    with open(path, "w") as fh:
        for k, block in enumerate(grid.snapshot_template):
            fh.write(block % tuple(u[k * step:(k + 1) * step].tolist()))


def load_field(path, grid=None):
    """Read a snapshot as a PairField; builds the grid from the header
    unless one is given, and refuses a file whose header names any other
    grid (mode, Lx, Ly, nx, ny) than the one given.

    Raises ValueError unless the body lists every node of the grid exactly
    once (a truncated or duplicated file is refused, not half-filled) with
    a finite value.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != FIELD_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        meta = fh.readline().strip().lstrip("# ").split(",")
        try:
            mode, Lx, Ly, nx, ny = (
                meta[0], float(meta[1]), float(meta[2]), int(meta[3]), int(meta[4])
            )
        except (IndexError, ValueError):
            raise ValueError(f"{path}: unreadable grid line {','.join(meta)!r}")
        if node_count(mode, nx, ny) > MAX_NODES:
            raise ValueError(
                f"{path}: grid of {node_count(mode, nx, ny)} nodes: at most "
                f"{MAX_NODES} nodes are allowed"
            )
        if grid is None:
            grid = build_grid(mode, Lx=Lx if Lx > 0 else None, Ly=Ly, nx=nx, ny=ny)
        elif (mode.lower(), Lx, Ly, nx, ny) != (grid.mode.value, grid.Lx, grid.Ly, grid.nx, grid.ny):
            raise ValueError(
                f"{path}: snapshot grid ({mode}, Lx={Lx}, Ly={Ly}, nx={nx}, ny={ny}) "
                f"does not match {grid!r}"
            )
        fh.readline()  # column header
        try:
            body = np.loadtxt(fh, delimiter=",", usecols=(0, 1, 4), ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: unreadable snapshot row: {exc}")
    i, j = body[:, 0], body[:, 1]
    valid = ((i % 1 == 0) & (j % 1 == 0)
             & (0 <= i) & (i < grid.nx) & (0 <= j) & (j < grid.ny))
    k = (j[valid] * grid.nx + i[valid]).astype(int)
    counts = np.bincount(k, minlength=grid.n_nodes)
    if len(body) != grid.n_nodes or np.any(counts != 1):
        raise ValueError(
            f"{path}: {np.count_nonzero(counts == 0)} of {grid.n_nodes} nodes missing, "
            f"{np.count_nonzero(counts > 1)} repeated, "
            f"{np.count_nonzero(~valid)} rows off the grid; every node must "
            "appear exactly once"
        )
    not_finite = np.count_nonzero(~np.isfinite(body[:, 2]))
    if not_finite:
        raise ValueError(f"{path}: {not_finite} values of u are not finite")
    vals = np.empty(grid.n_nodes)
    vals[k] = body[:, 2]
    return PairField(grid, vals)
