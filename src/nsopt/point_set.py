"""Bundle maintenance: ball sampling, distance pruning, and age pruning.

A gradient-sampling iteration handles its samples as one block.
``sample_ball`` draws k points as one block, a k x n block of normals and
then k uniforms, and forms them.  The solver draws only as many as can
stay in the bundle, and more only to replace points at which f is not
finite, up to the iteration's sample count in all; it keeps the first
finite ones, evaluates g once on them, and the bundle appends them as one
block after one age prune.

The bundle is columns 0..m-1 of Fortran-ordered point and gradient blocks,
with value and birth vectors.  Columns are appended, one or a block at a
time, and pruning keeps their order, so the products that the subproblem's
G'WG is formed from follow positions: new columns are a suffix, pruning
slices the held products.  For the metric W = c I + B M B' these are G'G
and P = B'G, carried by one rule: the metric brings P up to date after its
updates (``follow``), a new column costs one B'g, and G'G, formed only when
c is not 0, never changes for a column once formed.

The offsets of the columns from the current iterate x, q_j = |x - x_j|^2 and
r_j = g_j'(x - x_j), are held the same way.  Distance pruning reads q and the
cutting-plane subproblem reads both, so the point and gradient blocks are
streamed once per iterate.  Making another element current clears them; an
added column (a sample or a null-step trial point) is computed on the next
read, and pruning slices them.

That pass over G also forms every other product with G that the new iterate
needs, while each block of G is in cache: those of the rows that the
metric's update brought into B' (``QuasiNewtonState.entering``, handed to
``set_current``), and, when G'G is held, the new current's row of G'G.
They are held and sliced like the offsets, and the next
``gradient_products`` reads them in place of its own passes over G.  A
column added after the pass gets its products as before.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

# The offsets are formed in column blocks of at most this many bytes, so no
# n x m temporary is made.
_BLOCK_BYTES = 256 * 1024


@dataclass(eq=False)
class BundleElement:
    """An (x, f, g) triple handed to ``PointSet.add``, which copies it; or k
    of them with one birth: x and g n x k blocks, f k values."""
    x: np.ndarray
    f: float | np.ndarray
    g: np.ndarray
    birth: int


class PointSet:
    """Ordered bundle of (x, f, g) triples; the current iterate is never pruned.

    ``X``, ``f``, ``birth`` and ``gradients()`` are read-only views of the
    first m columns, valid until the next add or prune.
    """

    _BLOCKS = ("_X", "_G", "_f", "_birth")

    def __init__(self, current: BundleElement):
        n = np.size(current.x)
        self._X, self._G = np.empty((n, 1), order="F"), np.empty((n, 1), order="F")
        self._f, self._birth = np.empty(1), np.empty(1, dtype=int)
        self._m = 0
        # G'G and P = B'G over the leading columns, P for (state, version)
        self._gtg = self._p = np.zeros((0, 0))
        self._p_of = (None, None)
        # q and r of the leading columns for the current iterate
        self._q = self._r = np.zeros(0)
        # the rows that the next offsets pass forms products with, set by
        # ``set_current``, and those products over the leading columns, each
        # as (the metric's tag, whether the last row is the current's
        # gradient, the rows or their products)
        self._pass_rows = self._pass_products = None
        self.set_current(current)

    def __len__(self) -> int:
        return self._m

    def add(self, element: BundleElement) -> None:
        """Append ``element`` as the last column, or as the last k columns
        when it holds k triples; full blocks double."""
        x, g = element.x, element.g
        if np.ndim(x) == 1:
            x, g = x[:, None], g[:, None]
        m, k = self._m, x.shape[1]
        size = self._f.size
        while m + k > size:
            size *= 2
        if size > self._f.size:
            for name in self._BLOCKS:
                block = getattr(self, name)
                wider = np.empty(block.shape[:-1] + (size,), block.dtype, order="F")
                wider[..., :m] = block[..., :m]
                setattr(self, name, wider)
        self._X[:, m:m + k], self._G[:, m:m + k] = x, g
        self._f[m:m + k], self._birth[m:m + k] = element.f, element.birth
        self._m = m + k

    def set_current(self, element: BundleElement,
                    entering: tuple[int, np.ndarray] | None = None) -> None:
        """Append ``element`` and make it the current iterate.

        ``entering`` is what the metric's ``entering`` returned after its
        update to this iterate: when a P is held, the next offsets pass
        forms the products of its rows with every column, for
        ``gradient_products``, as it does the new current's row of G'G when
        G'G is held.
        """
        self.add(element)
        self.current, self._cur = element, self._m - 1
        self._q = self._r = np.zeros(0)
        tag, rows = None, [element.g[None]] if len(self._gtg) else []
        if entering is not None and self._p_of[0] is not None:
            tag, rows = entering[0], [entering[1], *rows]
        self._pass_rows = ((tag, len(self._gtg) > 0, np.vstack(rows))
                           if rows else None)
        self._pass_products = None

    def _view(self, name: str) -> np.ndarray:
        view = getattr(self, name)[..., :self._m]
        view.flags.writeable = False
        return view

    X = property(lambda self: self._view("_X"))
    f = property(lambda self: self._view("_f"))
    birth = property(lambda self: self._view("_birth"))

    def gradients(self) -> np.ndarray:
        """G = [g_1 ... g_m], a Fortran-ordered view that is valid until the
        next add or prune."""
        return self._view("_G")

    def gradient_products(self, qn):
        """G, G'G and P = B'G for ``qn``'s metric W = c I + B M B'.  G'G is
        None when c is 0, as under full storage, since G'WG does not read it
        then.  P is a read-only view that is valid until the next add, prune
        or call.

        Gradients never change once added, so G'G gets only the products
        with the k columns added since the previous call, O(n m k) instead
        of O(n m^2).  The metric brings the held P up to date after its
        updates and forms its new columns (``QuasiNewtonState.follow``);
        another state than last time gets all of P formed again.  Products
        that the offsets pass formed since the current iterate was set are
        read in place of passes over G, and then dropped.
        """
        G = self.gradients()
        owner, since = self._p_of
        entering = gtg_row = None
        if self._pass_products is not None:
            tag, has_gtg_row, products = self._pass_products
            if has_gtg_row:
                products, gtg_row = products[:-1], products[-1]
            if len(products):
                entering = (tag, products)
        self._pass_rows = self._pass_products = None
        P = self._p = qn.follow(self._p if qn is owner else None, since, G,
                                entering)
        self._p_of = (qn, qn.version)
        c = qn.scale
        m, k = G.shape[1], len(self._gtg)
        if c and k < m:  # G'WG reads G'G only when c is not 0
            new = np.arange(k, m)
            gtg = np.empty((m, m))
            gtg[:k, :k] = self._gtg
            # the current column is new, and the pass formed its row
            formed = new if gtg_row is None else new[new != self._cur]
            if formed.size:
                gtg[formed] = G[:, formed].T @ G
                gtg[:, formed] = gtg[formed].T
            if gtg_row is not None:
                gtg[self._cur, :gtg_row.size] = gtg_row
                gtg[:gtg_row.size, self._cur] = gtg_row
            self._gtg = gtg
        view = P.view()
        view.flags.writeable = False
        return G, self._gtg if c else None, view

    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """q_j = (x - x_j)'(x - x_j) and r_j = g_j'(x - x_j) for the current
        iterate x, valid until the next add, prune or change of the current
        iterate.

        Only columns added since the previous call are computed, in blocks
        of ``_BLOCK_BYTES``.  Each entry is the dot product of one column
        pair, which sums as the per-column ``@`` does.  The first call after
        ``set_current`` also forms the products of the rows it was handed
        with each block of G (see the module docstring).
        """
        m, k = self._m, self._q.size
        if k < m:
            x = self.current.x
            q, r = np.empty(m), np.empty(m)
            q[:k], r[:k] = self._q, self._r
            due, self._pass_rows = self._pass_rows, None
            if due is not None:
                rows = due[2]
                products = np.empty((len(rows), m))
            width = max(1, _BLOCK_BYTES // (8 * x.size))
            dx = np.empty((x.size, min(width, m - k)), order="F")
            for lo in range(k, m, width):
                hi = min(lo + width, m)
                part = dx[:, :hi - lo]
                np.subtract(x[:, None], self._X[:, lo:hi], out=part)
                np.vecdot(part, part, axis=0, out=q[lo:hi])
                np.vecdot(self._G[:, lo:hi], part, axis=0, out=r[lo:hi])
                if due is not None:
                    products[:, lo:hi] = rows @ self._G[:, lo:hi]
            self._q, self._r = q, r
            if due is not None:
                self._pass_products = (*due[:2], products)
        return self._q, self._r

    def _keep(self, keep: np.ndarray) -> None:
        """Compact the bundle to the columns ``keep`` (increasing)."""
        m = keep.size
        if m == self._m:
            return
        self._f[:m], self._birth[:m] = self._f[keep], self._birth[keep]
        # Each run of consecutive kept columns of X and G moves left as one
        # range of the Fortran-ordered block.  numpy copies an overlapping
        # 1-D range in place, so no n x m temporary is made, and a run reads
        # no column that an earlier run wrote.  A prune keeps one run more
        # often than not, and then needs no search for the others.
        kept = keep.tolist()
        if kept[-1] - kept[0] == m - 1:
            starts = []
        else:
            starts = (np.flatnonzero(keep[1:] - keep[:-1] != 1) + 1).tolist()
        n = self._X.shape[0]
        flats = None
        for lo, hi in zip([0, *starts], [*starts, m]):
            src = kept[lo]
            if src != lo:
                if flats is None:
                    flats = [block.reshape(-1, order="F")
                             for block in (self._X, self._G)]
                for flat in flats:
                    flat[lo * n:hi * n] = flat[src * n:(src + hi - lo) * n]
        self._m, self._cur = m, bisect.bisect_left(kept, self._cur)

        def held(size):
            """The kept columns of the first ``size``, a prefix of keep."""
            return keep[:bisect.bisect_left(kept, size)]

        if self._gtg.size:
            rows = held(len(self._gtg))
            self._gtg = self._gtg[np.ix_(rows, rows)]
        self._p = self._p[:, held(self._p.shape[1])]
        rows = held(self._q.size)
        self._q, self._r = self._q[rows], self._r[rows]
        if self._pass_products is not None:
            *meta, products = self._pass_products
            self._pass_products = (*meta, products[:, held(products.shape[1])])


def sample_ball(x_k: np.ndarray, eps: float, k: int,
                rng: np.random.Generator) -> np.ndarray:
    """k points uniform over the closed Euclidean ball of radius eps around
    x_k, as the columns of a Fortran-ordered n x k block.

    The k x n normals are drawn as one block, then the k uniforms.  Point i
    is x_k + t_i d_i, with d_i row i of the normals and t_i = eps U_i^(1/n)
    / |d_i|, which is exactly uniform over the ball; each entry is rounded
    twice, t_i d_ij and then x_j + t_i d_ij.  With t_i = 0, as when eps is 0
    or d_i is zero, the point is x_k itself.  U^(1/n) is taken by the C
    library's ``pow`` (Python's float power), as numpy's may vectorize it
    with the CPU, and the norms sum without BLAS, so the points depend on
    neither the CPU's vector extensions nor the BLAS thread count.
    """
    x_k = np.asarray(x_k, dtype=float)
    n = x_k.size
    points = rng.standard_normal((k, n))
    root = 1.0 / n
    radii = np.array([eps * u ** root for u in rng.random(k).tolist()])
    norms = np.sqrt(np.square(points).sum(axis=1))
    t = np.zeros(k)
    np.divide(radii, norms, out=t, where=norms != 0.0)
    points *= t[:, None]
    points += x_k
    at_center = t == 0.0
    if at_center.any():
        points[at_center] = x_k
    return points.T


def prune_by_distance(point_set: PointSet, eps_next: float,
                      envelope_factor: float) -> PointSet:
    """Drop elements farther than envelope_factor * eps_next from the
    current iterate.  The distance is sqrt(q_j), as ``np.linalg.norm``
    rounds it."""
    if envelope_factor <= 0:
        raise ValueError("envelope_factor must be positive")
    keep = np.sqrt(point_set.offsets()[0]) <= envelope_factor * eps_next
    keep[point_set._cur] = True
    point_set._keep(np.flatnonzero(keep))
    return point_set


def prune_by_age(point_set: PointSet, limit: int) -> PointSet:
    """Keep at most ``limit`` elements, evicting the smallest birth indices first."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    excess = len(point_set) - limit
    if excess <= 0:
        return point_set
    order = np.argsort(point_set.birth, kind="stable")
    kept = np.ones(len(point_set), dtype=bool)
    kept[order[order != point_set._cur][:excess]] = False
    point_set._keep(np.flatnonzero(kept))
    return point_set
