"""Bundle maintenance: ball sampling, the choice of samples worth evaluating,
distance pruning, and age pruning.

The bundle is columns 0..m-1 of Fortran-ordered point and gradient blocks,
with value and birth vectors.  Columns are appended and pruning keeps their
order, so the products that the subproblem's G'WG is formed from follow
positions: new columns are a suffix, pruning slices the held products.
Under limited storage these are G'G and Psi'G, whose rows follow the
metric's pair window.  Under full storage, W = J J', it is K = J'G, a block
like G's: a metric update J += a b' adds b (a'G) to it, O(n m), and a new
column costs one J'g.

The offsets of the columns from the current iterate x, q_j = |x - x_j|^2 and
r_j = g_j'(x - x_j), are held the same way.  Distance pruning reads q and the
cutting-plane subproblem reads both, so the point and gradient blocks are
streamed once per iterate.  Making another element current clears them; an
added column (a sample or a null-step trial point) is computed on the next
read, and pruning slices them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from .quasi_newton import window_shift

# The offsets are formed in column blocks of at most this many bytes, so no
# n x m temporary is made.
_BLOCK_BYTES = 256 * 1024


@dataclass(eq=False)
class BundleElement:
    """An (x, f, g) triple handed to ``PointSet.add``, which copies it."""
    x: np.ndarray
    f: float
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
        # G'G and Psi'G over the leading columns, Psi'G for (state, window)
        self._gtg = self._psi_g = np.zeros((0, 0))
        self._psi_of = (None, None)
        # J'G over the first _jtg_m columns of a block as wide as G's, for
        # (state, its factor_changes); allocated on first use
        self._jtg, self._jtg_m, self._jtg_of = None, 0, (None, None)
        # q and r of the leading columns for the current iterate
        self._q = self._r = np.zeros(0)
        self.set_current(current)

    def __len__(self) -> int:
        return self._m

    def add(self, element: BundleElement) -> None:
        """Append ``element`` as the last column; full blocks double."""
        m = self._m
        if m == self._f.size:
            for name in self._BLOCKS + (("_jtg",) if self._jtg is not None else ()):
                block = getattr(self, name)
                wider = np.empty(block.shape[:-1] + (2 * m,), block.dtype, order="F")
                wider[..., :m] = block
                setattr(self, name, wider)
        self._X[:, m], self._G[:, m] = element.x, element.g
        self._f[m], self._birth[m] = element.f, element.birth
        self._m = m + 1

    def set_current(self, element: BundleElement) -> None:
        """Append ``element`` and make it the current iterate."""
        self.add(element)
        self.current, self._cur = element, self._m - 1
        self._q = self._r = np.zeros(0)

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
        """G and what the subproblem forms G'WG from: G'G and Psi'G for
        ``qn``'s compact basis Psi (None without one) under limited storage,
        J'G for its factor J under full storage; the others are None.

        Gradients never change once added, so only products with columns
        added, pairs that entered the window and the factor's newest change
        since the previous call are computed: O(n m (k + r)) for k new columns
        and r new pairs instead of O(n m^2 + n m h), and O(n^2 k + n m) instead
        of O(n^2 m) for J'G.  Another state than last time gets all its rows.
        """
        G = self.gradients()
        if qn.storage != "limited":
            return G, None, None, self._factor_products(qn, G)
        m, k = G.shape[1], len(self._gtg)
        if k < m:
            new = np.arange(k, m)
            gtg = np.empty((m, m))
            gtg[:k, :k] = self._gtg
            gtg[new] = G[:, new].T @ G
            gtg[:, new] = gtg[new].T
            self._gtg = gtg
        basis = qn.compact_basis()
        if basis is None:
            return G, self._gtg, None, None
        window, psi = basis
        owner, was = self._psi_of
        k = self._psi_g.shape[1]
        if qn is not owner or window != was or k < m:
            src, dst, fresh = window_shift(was if qn is owner else None, window)
            P = np.empty((psi.shape[1], m))
            P[dst, :k] = self._psi_g[src]
            P[fresh] = psi[:, fresh].T @ G
            new = np.arange(k, m)
            P[:, new] = psi.T @ G[:, new]
            self._psi_g, self._psi_of = P, (qn, window)
        return G, self._gtg, self._psi_g, None

    def _factor_products(self, qn, G: np.ndarray) -> np.ndarray:
        """K = J'G, a read-only view of the held block that is valid until
        the next add, prune or call.  The held columns take the factor's
        change J += a b' since the previous call as K += b (a'G) in place;
        after more than one change, or for another state, every column is
        formed again."""
        m = G.shape[1]
        if self._jtg is None:  # then ``add`` widens it with G's block
            self._jtg = np.empty(self._G.shape, order="F")
        owner, seen = self._jtg_of
        k = self._jtg_m if qn is owner else 0
        if k and seen != qn.factor_changes:
            change = qn.factor_change(seen)
            if change is None:
                k = 0
            else:
                a, b = change
                dger(1.0, b, a @ G[:, :k], a=self._jtg[:, :k], overwrite_a=1)
        if k < m:
            self._jtg[:, k:m] = qn.apply_Jt(G[:, k:m])
        self._jtg_m, self._jtg_of = m, (qn, qn.factor_changes)
        view = self._jtg[:, :m]
        view.flags.writeable = False
        return view

    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """q_j = (x - x_j)'(x - x_j) and r_j = g_j'(x - x_j) for the current
        iterate x, valid until the next add, prune or change of the current
        iterate.

        Only columns added since the previous call are computed, in blocks
        of ``_BLOCK_BYTES``.  Each entry is the dot product of one column
        pair, which sums as the per-column ``@`` does.
        """
        m, k = self._m, self._q.size
        if k < m:
            x = self.current.x
            q, r = np.empty(m), np.empty(m)
            q[:k], r[:k] = self._q, self._r
            width = max(1, _BLOCK_BYTES // (8 * x.size))
            dx = np.empty((x.size, min(width, m - k)), order="F")
            for lo in range(k, m, width):
                hi = min(lo + width, m)
                part = dx[:, :hi - lo]
                np.subtract(x[:, None], self._X[:, lo:hi], out=part)
                np.vecdot(part, part, axis=0, out=q[lo:hi])
                np.vecdot(self._G[:, lo:hi], part, axis=0, out=r[lo:hi])
            self._q, self._r = q, r
        return self._q, self._r

    def _keep(self, keep: np.ndarray) -> None:
        """Compact the bundle to the columns ``keep`` (increasing)."""
        if keep.size == self._m:
            return
        self._f[:keep.size], self._birth[:keep.size] = self._f[keep], self._birth[keep]
        # Each run of consecutive kept columns of X and G moves left as one
        # range of the Fortran-ordered block.  numpy copies an overlapping
        # 1-D range in place, so no n x m temporary is made, and a run reads
        # no column that an earlier run wrote.
        n = self._X.shape[0]
        blocks = (self._X, self._G) + ((self._jtg,) if self._jtg is not None else ())
        flats = [block.reshape(-1, order="F") for block in blocks]
        starts = (np.flatnonzero(np.diff(keep) != 1) + 1).tolist()
        for lo, hi in zip([0, *starts], [*starts, keep.size]):
            src = int(keep[lo])
            if src != lo:
                for flat in flats:
                    flat[lo * n:hi * n] = flat[src * n:(src + hi - lo) * n]
        self._m, self._cur = keep.size, int(np.searchsorted(keep, self._cur))
        if self._gtg.size:
            held = keep[keep < len(self._gtg)]
            self._gtg = self._gtg[np.ix_(held, held)]
        if self._psi_g.size:
            self._psi_g = self._psi_g[:, keep[keep < self._psi_g.shape[1]]]
        self._jtg_m = int(np.count_nonzero(keep < self._jtg_m))
        held = keep[keep < self._q.size]
        self._q, self._r = self._q[held], self._r[held]


def sample_ball(x_k: np.ndarray, eps: float, p: int, rng: np.random.Generator) -> list[np.ndarray]:
    """p points uniform over the closed Euclidean ball of radius eps around x_k.

    Directions come from normalized Gaussians and radii from eps * U^(1/n),
    which is exactly uniform over the ball.
    """
    x_k = np.asarray(x_k, dtype=float)
    n = x_k.size
    points = []
    for _ in range(p):
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        if norm == 0.0 or eps == 0.0:
            points.append(x_k.copy())
            continue
        radius = eps * rng.uniform() ** (1.0 / n)
        points.append(x_k + (radius / norm) * direction)
    return points


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


def newest_finite(points: list[np.ndarray], f, limit: int) -> list[tuple[np.ndarray, float]]:
    """The last ``limit`` points with finite f(x), as (x, f(x)) in draw order.

    f is evaluated from the newest point backwards and no further than the
    ``limit``-th finite value.  For points that join a bundle with a birth
    newer than every element's, ``limit = cap - 1`` gives exactly those that
    ``prune_by_age(point_set, cap)`` would keep after adding all of them.
    """
    kept = []
    for x in reversed(points):
        if len(kept) == limit:
            break
        f_x = f(x)
        if np.isfinite(f_x):
            kept.append((x, f_x))
    return kept[::-1]


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
