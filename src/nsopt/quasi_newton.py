"""Damped BFGS/DFP maintenance of the metric W = H^{-1}.

Both storages hold W as c I + B M B', and this module alone knows which:

- full storage: c = 0, M = I and B = J, one Fortran-ordered n x n factor of
  W = J J'.  Each update is one rank-1 change J += a b' made in place by
  the BLAS kernel ``dger`` (the product form of Brodlie, Gourlay &
  Greenstadt 1973 for BFGS; Goldfarb 1976), so W stays positive
  semidefinite whatever the rounding.  Every product with J goes through
  scipy's BLAS.
- limited storage: c = tau and B = Psi, the stacked pairs of a FIFO window
  of damped pairs (s, v), with M the middle matrix of the compact
  representation (Byrd, Nocedal & Schnabel 1994).  The base scale comes
  from the newest pair (Liu & Nocedal 1989; Nocedal & Wright 2006, eq.
  7.20): BFGS starts from W0 = (s'v / v'v) I, DFP from W0 = (s's / s'v) I,
  and H0 = W0^-1.  An empty history is W = I: c = 1, B has no columns.

A holder of P = B'G keeps it up to date with ``follow``: a full-storage
update adds b (a'G) to it, O(n m), and its limited-storage rows follow the
pair window by position (``window_shift``).  A dense W, exactly symmetric,
and H are formed on request.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg import solve
from scipy.linalg.blas import dgemm, dgemv, dger, dsyrk


class DegenerateStepError(ValueError):
    """Raised when a zero step is offered to the damping or update routines."""


def damp(s: np.ndarray, y: np.ndarray, eta: float, psi: float) -> tuple[float, np.ndarray]:
    """Replace y by v = beta*s + (1-beta)*y with the smallest beta in [0, 1]
    such that s'v / ||s||^2 >= eta and ||v||^2 / s'v <= psi.

    Falls back to (1, s) when no beta in [0, 1] works, which can only happen
    for eta > 1.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    ss = float(s @ s)
    if ss == 0.0:
        raise DegenerateStepError("damping requires a nonzero step")

    sy = float(s @ y)

    # First bound: s'v = beta*ss + (1-beta)*sy >= eta*ss, linear in beta.
    if sy >= eta * ss:
        lo1 = 0.0
    elif ss > sy:
        lo1 = (eta * ss - sy) / (ss - sy)
    else:
        lo1 = np.inf

    # Second bound: h(beta) = ||v||^2 - psi * s'v <= 0, convex quadratic in beta.
    d = s - y
    a = float(d @ d)
    bq = 2.0 * float(y @ d) - psi * (ss - sy)
    cq = float(y @ y) - psi * sy
    if cq <= 0.0:
        lo2 = 0.0
    elif a > 0.0:
        disc = bq * bq - 4.0 * a * cq
        lo2 = np.inf if disc < 0.0 else (-bq - np.sqrt(disc)) / (2.0 * a)
    elif bq < 0.0:
        lo2 = -cq / bq
    else:
        lo2 = np.inf

    beta = max(lo1, lo2, 0.0)

    def _ok(bval: float) -> bool:
        vv = bval * s + (1.0 - bval) * y
        sv = float(s @ vv)
        return sv >= eta * ss and float(vv @ vv) <= psi * sv

    # Nudge upward past rounding at the constraint boundary.
    if beta <= 1.0:
        for bump in (0.0, 1e-15, 1e-12, 1e-9):
            cand = min(1.0, beta + bump * max(1.0, abs(beta)))
            if _ok(cand):
                return cand, cand * s + (1.0 - cand) * y
    return 1.0, s.copy()


def window_shift(old: tuple[int, int] | None, new: tuple[int, int]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How the rows of Psi'Y move when the pair window moves from ``old``
    to ``new``.

    A window is (serial of its oldest pair, number of pairs), and Psi'Y has
    the rows of A and then those of B in serial order.  Returns the
    positions in ``old`` and in ``new`` of the rows whose pairs are in both
    windows, and the positions in ``new`` of the rows of entering pairs.
    ``old`` None keeps no row.
    """
    first, h = new
    first_old, h_old = old or (first, 0)
    both = np.arange(max(first, first_old), min(first_old + h_old, first + h))
    fresh = np.arange(both.size, h)
    return (np.concatenate([both - first_old, both - first_old + h_old]),
            np.concatenate([both - first, both - first + h]),
            np.concatenate([fresh, fresh + h]))


def _solve_upper(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """U^-1 B for upper-triangular U by back substitution.

    LU with partial pivoting exchanges no rows of an upper-triangular
    matrix, so numpy's general solver reduces to back substitution here.
    numpy's BLAS is used instead of scipy's ``solve_triangular`` because
    numpy and scipy each load their own BLAS with its own worker threads,
    and waking scipy's from this numpy-heavy code is costly: with two BLAS
    threads on a 2-core Xeon the 64x64 ``hard`` denoising run took 65 s of
    CPU time with ``solve_triangular`` and 43 s with this function.
    """
    return np.linalg.solve(U, B)


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for lower-triangular L: back substitution on the system with
    rows and columns in reverse order, which makes the matrix upper
    triangular."""
    return _solve_upper(L[::-1, ::-1], B[::-1])[::-1]


class _CompactForm:
    """Limited-memory matrix c I + Psi M Psi' for stored pairs (a_i, b_i),
    in the compact representation of Byrd, Nocedal & Schnabel (1994), with
    Psi = [A B] and the middle matrix M applied through small factors.  The
    base scale is tau = a'b / b'b of the newest pair.

    The inverse form is the inverse-BFGS product (BFGS W with (a, b) = (s, v),
    DFP H with (a, b) = (v, s)) started from c I = tau I:

        M = [[R^-T (D + tau B'B) R^-1, -tau R^-T], [-tau R^-1, 0]],
        R = triu(A'B).

    The direct form is the direct-BFGS product (BFGS H with (a, b) = (s, v),
    DFP W with (a, b) = (v, s)) started from c I = sigma I, sigma = 1/tau:

        M = -[[sigma I, 0], [0, I]] [[sigma A'A, L], [L', -D]]^-1
             [[sigma I, 0], [0, I]],  L = strictly lower part of A'B,

    solved through the Cholesky factor of the Schur complement
    C = sigma A'A + L D^-1 L'.  Both middles use triangular solves only; an
    explicit R^-1 loses accuracy under wide damping bounds.  The two forms
    over one basis are exact inverses of each other.
    """

    def __init__(self, psi: np.ndarray, gram: np.ndarray, inverse: bool):
        """``psi`` is [A B] and ``gram`` its Gram matrix Psi'Psi."""
        h = self.h = psi.shape[1] // 2
        self.psi, self.gram = psi, gram
        self.inverse = inverse
        tau = gram[h - 1, 2 * h - 1] / gram[2 * h - 1, 2 * h - 1]
        self.scale = tau if inverse else 1.0 / tau
        ab = gram[:h, h:]
        self.d = np.diag(ab).copy()
        if inverse:
            self.r = np.triu(ab)
            self.d_btb = np.diag(self.d) + tau * gram[h:, h:]
        else:
            self.l = np.tril(ab, -1)
            c = self.scale * gram[:h, :h] + (self.l / self.d) @ self.l.T
            self.c_factor = np.linalg.cholesky(c)

    def middle(self, P: np.ndarray) -> np.ndarray:
        """M P for P with 2h rows (P = Psi' X)."""
        h, c = self.h, self.scale
        p1, p2 = P[:h], P[h:]
        if self.inverse:
            a = _solve_upper(self.r, p1)
            top = _solve_lower(self.r.T, self.d_btb @ a - c * p2)
            return np.concatenate([top, -c * a])
        d = self.d if P.ndim == 1 else self.d[:, None]
        cf = self.c_factor
        x1 = _solve_upper(cf.T, _solve_lower(cf, c * p1 + self.l @ (p2 / d)))
        x2 = (self.l.T @ x1 - p2) / d
        return -np.concatenate([c * x1, x2])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(c I + Psi M Psi') X."""
        return self.scale * X + self.psi @ self.middle(self.psi.T @ X)

    @cached_property
    def trace(self) -> float:
        """trace(c I + Psi M Psi') = n c + trace(M Psi'Psi), O(h^3)."""
        return (self.psi.shape[0] * self.scale
                + float(np.trace(self.middle(self.gram))))

    def diagonal(self) -> np.ndarray:
        """The diagonal of c I + Psi M Psi', O(n h^2)."""
        psi = self.psi
        return self.scale + np.einsum("ij,ji->i", psi, self.middle(psi.T))


class QuasiNewtonState:
    """Metric state with BFGS or DFP updates in full or limited storage,
    held as W = c I + B M B' (see the module docstring)."""

    def __init__(self, n: int, mode: str = "BFGS", storage: str = "full",
                 history_limit: int = 20):
        if mode not in ("BFGS", "DFP"):
            raise ValueError(f"unknown mode {mode!r}")
        if storage not in ("full", "limited"):
            raise ValueError(f"unknown storage {storage!r}")
        if history_limit < 1:
            raise ValueError("history_limit must be at least 1")
        self.n = n
        self.mode = mode
        self.storage = storage
        self.history_limit = history_limit
        self.version = 0  # changes of W: pairs taken and assignments to W
        # full storage: the factor J of W = J J', its newest change as (a, b)
        # for J += a b' (None after an assignment to W), and a bound on its
        # row norms
        self._j = np.eye(n, order="F") if storage == "full" else None
        self._newest_change: tuple[np.ndarray, np.ndarray] | None = None
        self._row_bound = 1.0
        # limited storage: compact W/H, rebuilt after each update; h held
        # pairs in Psi' = [A B]', rows _psi_start to _psi_start + 2h of a
        # buffer with room for the window to slide (see ``_push_basis``)
        self._forms: dict[str, _CompactForm] = {}
        self._h = self._psi_start = 0
        self._psi_rows = (np.empty((3 * history_limit, n))
                          if storage == "limited" else None)
        self._gram, self._gram_window = np.zeros((0, 0)), None  # Psi'Psi

    # -- updates ----------------------------------------------------------

    def update(self, s: np.ndarray, v: np.ndarray,
               hint: np.ndarray | None = None) -> None:
        """Take the damped pair (s, v).

        ``hint`` is the one that ``model`` returned with W m, for a step s
        along d = -W m.  Full storage reads it as J'm: J^-1 s is then
        parallel to it, and the BFGS update makes no solve with J.  Without
        it BFGS solves J u = s, which costs O(n^3) and a copy of J.
        """
        s = np.asarray(s, dtype=float)
        v = np.asarray(v, dtype=float)
        sv = float(s @ v)
        if float(s @ s) == 0.0:
            raise DegenerateStepError("update requires a nonzero step")
        if sv <= 0.0:
            raise ValueError("update rejected: s'v must be positive (damp first)")
        self.version += 1
        if self.storage == "limited":
            self._push_basis(*((s, v) if self.mode == "BFGS" else (v, s)))
            self._h = min(self._h + 1, self.history_limit)
            self._forms = {}
            return
        J = self._j
        jtv = dgemv(1.0, J, v, trans=1)
        if self.mode == "BFGS":
            # W+ = P W P' + s s'/s'v with P = I - s v'/s'v.  P J, that is
            # J - s (J'v)'/s'v, maps u, the unit vector along J^-1 s, to
            # zero, so J+ = P J + s u'/sqrt(s'v) gives J+ J+' = W+.  For
            # s = t d, t > 0, J^-1 s = -t J'm.
            u = (solve(J, s) if hint is None
                 else -np.asarray(hint, dtype=float))
            a, b = s, u / (np.linalg.norm(u) * np.sqrt(sv)) - jtv / sv
        else:
            # DFP: W+ = J (I - q q') J' + s s'/s'v for the unit vector q
            # along J'v, so J+ = J (I - q q') + s q'/sqrt(s'v).
            q = jtv / np.linalg.norm(jtv)
            a, b = s / np.sqrt(sv) - dgemv(1.0, J, q), q
        self._j = dger(1.0, a, b, a=J, overwrite_a=1)
        self._newest_change = (a, b)
        self._row_bound += float(np.max(np.abs(a))) * float(np.linalg.norm(b))

    def row_norm_bound(self, exact: bool = False) -> float:
        """An upper bound on the largest row norm of a factor F of
        W = F F', sqrt(max_i W_ii), or with ``exact`` that value itself.
        Under full storage F = J: each update raises the held bound by
        max|a| |b|, O(n), and ``exact`` replaces it by the value, one pass
        over J.  Under limited storage the bound is sqrt(trace W), formed
        once per version from Psi'Psi, O(h^3), and ``exact`` reads W's
        diagonal from Psi and M, O(n h^2); an empty history is W = I."""
        if self.storage == "limited":
            form = self._form("W")
            if form is None:
                return 1.0
            square = form.diagonal().max() if exact else form.trace
            return float(np.sqrt(max(square, 0.0)))
        if exact:
            J = self._j
            self._row_bound = float(np.sqrt(np.max(np.einsum("ij,ij->i", J, J))))
        return self._row_bound

    def follow(self, P: np.ndarray | None, since: int,
               G: np.ndarray) -> np.ndarray:
        """B'G for every column of G, given the P = B'G of its first k
        columns that was formed at version ``since`` (None: none held).

        Full storage brings P up to date after one change J += a b' as
        P + b (a'G), O(n k), in place; after more than one change, or an
        assignment to W, every column is formed again.  Limited storage
        keeps the rows of the pairs that stayed in the window
        (``window_shift``) and forms those of entering pairs; a P of an
        empty history is formed again.  Each later column costs one B'g.
        """
        m, k = G.shape[1], 0 if P is None else P.shape[1]
        if k and since != self.version:
            P = self._carry(P, since, G)
            k = 0 if P is None else k
        if k == m:
            return P
        if not k:
            return self.apply_Bt(G)
        # the layout of apply_Bt's result, so that products with P sum in
        # one order however P was formed
        order = "F" if self.storage == "full" else "C"
        out = np.empty((P.shape[0], m), order=order)
        out[:, :k] = P
        out[:, k:] = self.apply_Bt(G[:, k:])
        return out

    def _carry(self, P: np.ndarray, since: int, G: np.ndarray) -> np.ndarray | None:
        """``follow``'s P brought from version ``since`` to the current one,
        or None when it cannot be."""
        k = P.shape[1]
        if self.storage == "full":
            if since != self.version - 1 or self._newest_change is None:
                return None
            a, b = self._newest_change
            return dger(1.0, b, a @ G[:, :k], a=P, overwrite_a=1)
        if not since:
            return None
        src, dst, fresh = window_shift(self._window(since),
                                       self._window(self.version))
        out = np.empty((2 * self._h, k))
        out[dst] = P[src]
        # over every column of G in one product, not over the k held ones:
        # a product with one column is a matrix-vector product, which sums
        # in another order than a matrix product
        out[fresh] = (self._basis()[:, fresh].T @ G)[:, :k]
        return out

    # -- limited storage: compact representation ---------------------------

    def _window(self, version: int) -> tuple[int, int]:
        """The pair window (see ``window_shift``) at ``version``."""
        h = min(version, self.history_limit)
        return version - h, h

    def _push_basis(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add the row pair (a, b) of a new pair to Psi', dropping the
        oldest pair's rows when the window is full.

        The window's rows are a_1..a_h, b_1..b_h.  A full window drops a_1
        and b_1: its rows start one further on, a_new takes b_1's row and
        b_new the row after b_h, so nothing else moves.  A growing window
        moves its B rows down by one.  When the buffer's end is reached the
        window moves back to its start, once every ``history_limit``
        updates.
        """
        h, limit = self._h, self.history_limit
        rows, start = self._psi_rows, self._psi_start
        if h < limit:
            rows[start + h + 1:start + 2 * h + 1] = rows[start + h:start + 2 * h]
            rows[start + h], rows[start + 2 * h + 1] = a, b
            return
        if start + 2 * h + 1 > rows.shape[0]:
            rows[:2 * h] = rows[start:start + 2 * h]
            start = 0
        rows[start + h], rows[start + 2 * h] = a, b
        self._psi_start = start + 1

    def _form(self, which: str) -> _CompactForm | None:
        """Compact W or H of the stored pairs; None while the history is empty.

        BFGS W and DFP H are inverse forms, BFGS H and DFP W direct forms,
        all over the same basis Psi.
        """
        if not self._h:
            return None
        if which not in self._forms:
            window, psi = self._window(self.version), self._basis()
            if window != self._gram_window:
                src, dst, fresh = window_shift(self._gram_window, window)
                gram = np.empty((psi.shape[1], psi.shape[1]))
                gram[np.ix_(dst, dst)] = self._gram[np.ix_(src, src)]
                gram[fresh] = psi[:, fresh].T @ psi
                gram[:, fresh] = gram[fresh].T
                self._gram, self._gram_window = gram, window
            inverse = (which == "W") == (self.mode == "BFGS")
            self._forms[which] = _CompactForm(psi, self._gram, inverse)
        return self._forms[which]

    def _basis(self) -> np.ndarray:
        """Psi = [A B] under limited storage, in the compact forms of W and
        H: A = S, B = V for BFGS and A = V, B = S for DFP.  A view of the
        held buffer, valid until the next update; no columns for an empty
        history."""
        return self._psi_rows[self._psi_start:self._psi_start + 2 * self._h].T

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The held pairs (s, v), oldest first, as read-only copies of the
        rows of Psi'; None under full storage."""
        if self.storage == "full":
            return None
        rows = self._basis().T.copy()
        rows.flags.writeable = False
        lead, trail = rows[:self._h], rows[self._h:]
        return list(zip(lead, trail) if self.mode == "BFGS" else zip(trail, lead))

    # -- W = c I + B M B' ---------------------------------------------------

    @property
    def scale(self) -> float:
        """c: 0 under full storage, tau under limited storage and 1 for an
        empty history."""
        if self.storage == "full":
            return 0.0
        return self._form("W").scale if self._h else 1.0

    def apply_B(self, X: np.ndarray) -> np.ndarray:
        """B X (a vector, or each column of a matrix): J X under full
        storage, Psi X under limited storage."""
        X = np.asarray(X, dtype=float)
        if self.storage == "limited":
            return self._basis() @ X
        if X.ndim == 1:
            return dgemv(1.0, self._j, X)
        return dgemm(1.0, self._j, X)

    def apply_Bt(self, A: np.ndarray) -> np.ndarray:
        """B'A (a vector, or each column of a matrix): J'A under full
        storage, Psi'A under limited storage."""
        A = np.asarray(A, dtype=float)
        if self.storage == "limited":
            return self._basis().T @ A
        if A.ndim == 1:
            return dgemv(1.0, self._j, A, trans=1)
        return dgemm(1.0, self._j, A, trans_a=1)

    def apply_M(self, P: np.ndarray) -> np.ndarray:
        """M P for a block P = B'X: P itself under full storage and for an
        empty history."""
        form = self._form("W") if self.storage == "limited" else None
        return P if form is None else form.middle(P)

    def model(self, r: np.ndarray, bt_r: np.ndarray | None = None):
        """W r for a model vector r, and the hint that ``update`` takes for
        a step along -W r.

        Full storage forms W r as J (J'r), one product with J when the
        caller gives J'r as ``bt_r``, and the hint is J'r.  Limited storage
        applies its compact form to r, through Psi'r, and gives no hint.
        """
        r = np.asarray(r, dtype=float)
        if self.storage == "limited":
            form = self._form("W")
            return (r.copy() if form is None else form.apply(r)), None
        if bt_r is None:
            bt_r = self.apply_Bt(r)
        return self.apply_B(bt_r), bt_r

    def apply_W(self, r: np.ndarray) -> np.ndarray:
        return self.model(r)[0]

    def apply_W_matrix(self, A: np.ndarray) -> np.ndarray:
        """W A = c A + B M (B'A), for a vector or each column of a matrix."""
        A = np.asarray(A, dtype=float)
        WA, c = self.apply_B(self.apply_M(self.apply_Bt(A))), self.scale
        if c:
            WA += c * A
        return WA

    def apply_H(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.storage == "full":
            return self.H @ r  # H is formed on request, so this costs O(n^3)
        form = self._form("H")
        return r.copy() if form is None else form.apply(r)

    def dense_W(self) -> np.ndarray:
        """W as a new, exactly symmetric dense array.  Full storage forms
        one triangle of J J' and mirrors it."""
        if self.storage == "full":
            D = np.triu(dsyrk(1.0, self._j))
            D += np.triu(D, 1).T
            return D
        D = self.apply_W_matrix(np.eye(self.n))
        return 0.5 * (D + D.T)  # exactly symmetric, like full storage

    @property
    def W(self) -> np.ndarray:
        """``dense_W()``.  Assigning a symmetric matrix sets the full-storage
        metric, of which only the lower triangle is read: J is its Cholesky
        factor when it is positive definite, and otherwise V sqrt(max(L, 0))
        from its eigendecomposition V L V', which projects it onto the
        positive semidefinite matrices by clipping negative eigenvalues to
        zero."""
        return self.dense_W()

    @W.setter
    def W(self, value: np.ndarray) -> None:
        if self.storage != "full":
            raise ValueError("only full storage holds W")
        W = np.array(value, dtype=float)
        try:
            J = np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            lam, V = np.linalg.eigh(W)
            J = V * np.sqrt(np.maximum(lam, 0.0))
        self._j = np.asfortranarray(J)
        self.version += 1
        self._newest_change = None
        self.row_norm_bound(exact=True)

    @property
    def H(self) -> np.ndarray:
        """H = W^{-1} as a dense array, formed on request."""
        return np.linalg.inv(self.dense_W())
