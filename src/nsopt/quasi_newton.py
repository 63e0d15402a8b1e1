"""Damped BFGS/DFP maintenance of the metric W = H^{-1}.

Full storage keeps W as a factor, W = J J', one Fortran-ordered n x n array.
Each update is one rank-1 change J += a b' made in place by the BLAS
kernel ``dger`` (the product form of Brodlie, Gourlay & Greenstadt 1973 for
BFGS; Goldfarb 1976), so W stays positive semidefinite whatever the
rounding, and the bundle carries K = J'G across it as K += b (a'G).  W is
applied as J (J' r); a dense W, exactly symmetric, and H are formed on
request.  Every product with J goes through scipy's BLAS.
Limited storage keeps a FIFO window of damped pairs (s, v) and applies
H and W through the compact representation tau I + Psi M Psi' (Byrd,
Nocedal & Schnabel 1994).  The base scale comes from the newest pair (Liu &
Nocedal 1989; Nocedal & Wright 2006, eq. 7.20): BFGS starts from
W0 = (s'v / v'v) I, DFP from W0 = (s's / s'v) I, and H0 = W0^-1.  Psi'Psi here
and Psi'G in the bundle follow the window by position (``window_shift``).
"""

from __future__ import annotations

from collections import deque

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
        self.psi = psi
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

    def apply(self, X: np.ndarray, psi_x: np.ndarray | None = None) -> np.ndarray:
        """(c I + Psi M Psi') X, given Psi'X optionally."""
        P = self.psi.T @ X if psi_x is None else psi_x
        return self.scale * X + self.psi @ self.middle(P)

    def gram(self, X: np.ndarray, xtx: np.ndarray,
             psi_x: np.ndarray | None = None) -> np.ndarray:
        """X' (c I + Psi M Psi') X given X'X and, optionally, Psi'X."""
        P = self.psi.T @ X if psi_x is None else psi_x
        return self.scale * xtx + P.T @ self.middle(P)


class QuasiNewtonState:
    """Metric state with BFGS or DFP updates in full or limited storage."""

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
        if storage == "full":
            self._j = np.eye(n, order="F")  # the factor J of W = J J'
            self.pairs = None
        else:
            self.pairs: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=history_limit)
        self.updates = 0  # serial number of the next pair
        # changes made to J so far, and the newest one as (a, b) for
        # J += a b' (None when it was an assignment to W)
        self.factor_changes = 0
        self._newest_change: tuple[np.ndarray, np.ndarray] | None = None
        self._row_bound = 1.0  # at least the largest row norm of J
        # compact W/H, rebuilt after each update
        self._forms: dict[str, _CompactForm] = {}
        # Psi' = [A B]': rows _psi_start to _psi_start + 2h of a buffer with
        # room for the window to slide (see ``_push_basis``)
        self._psi_rows: np.ndarray | None = None
        self._psi_start = 0
        self._gram, self._gram_window = np.zeros((0, 0)), None  # Psi'Psi

    # -- updates ----------------------------------------------------------

    def update(self, s: np.ndarray, v: np.ndarray,
               jt_model: np.ndarray | None = None) -> None:
        """Take the damped pair (s, v).

        Under full storage, ``jt_model`` is J'm for a step s along
        d = -J J'm, m = G omega + gamma, as the subproblem solvers return
        it.  J^-1 s is then parallel to J'm, and the BFGS update makes no
        solve with J.  Without it BFGS solves J u = s, which costs O(n^3)
        and a copy of J.  Limited storage ignores it.
        """
        s = np.asarray(s, dtype=float)
        v = np.asarray(v, dtype=float)
        sv = float(s @ v)
        if float(s @ s) == 0.0:
            raise DegenerateStepError("update requires a nonzero step")
        if sv <= 0.0:
            raise ValueError("update rejected: s'v must be positive (damp first)")
        if self.storage == "limited":
            self._push_basis(*((s, v) if self.mode == "BFGS" else (v, s)))
            self.pairs.append((s.copy(), v.copy()))
            self.updates += 1
            self._forms = {}
            return
        J = self._j
        jtv = dgemv(1.0, J, v, trans=1)
        if self.mode == "BFGS":
            # W+ = P W P' + s s'/s'v with P = I - s v'/s'v.  P J, that is
            # J - s (J'v)'/s'v, maps u, the unit vector along J^-1 s, to
            # zero, so J+ = P J + s u'/sqrt(s'v) gives J+ J+' = W+.  For
            # s = t d, t > 0, J^-1 s = -t J'm.
            u = (solve(J, s) if jt_model is None
                 else -np.asarray(jt_model, dtype=float))
            a, b = s, u / (np.linalg.norm(u) * np.sqrt(sv)) - jtv / sv
        else:
            # DFP: W+ = J (I - q q') J' + s s'/s'v for the unit vector q
            # along J'v, so J+ = J (I - q q') + s q'/sqrt(s'v).
            q = jtv / np.linalg.norm(jtv)
            a, b = s / np.sqrt(sv) - dgemv(1.0, J, q), q
        self._j = dger(1.0, a, b, a=J, overwrite_a=1)
        self.updates += 1
        self.factor_changes += 1
        self._newest_change = (a, b)
        self._row_bound += float(np.max(np.abs(a))) * float(np.linalg.norm(b))

    def row_norm_bound(self, exact: bool = False) -> float:
        """An upper bound on the largest row norm of J, sqrt(max_i W_ii).
        Each update raises the held bound by max|a| |b|, O(n); ``exact``
        replaces it by the value itself, one pass over J."""
        if exact:
            J = self._j
            self._row_bound = float(np.sqrt(np.max(np.einsum("ij,ij->i", J, J))))
        return self._row_bound

    def factor_change(self, since: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(a, b) of the update J += a b' that took the factor from
        ``since`` changes to the current count, when exactly one update
        did; None otherwise.  A holder of J'X brings it up to date as
        J'X + b (a'X)."""
        return self._newest_change if since == self.factor_changes - 1 else None

    # -- limited storage: compact representation ---------------------------

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
        h, limit = len(self.pairs), self.history_limit
        if self._psi_rows is None:
            self._psi_rows = np.empty((3 * limit, self.n))
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
        all over the same basis from ``compact_basis``.
        """
        basis = self.compact_basis()
        if basis is None:
            return None
        if which not in self._forms:
            window, psi = basis
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

    # -- applications -----------------------------------------------------

    def apply_W(self, r: np.ndarray) -> np.ndarray:
        return self.apply_W_matrix(r)

    def apply_H(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.storage == "full":
            return self.H @ r  # H is formed on request, so this costs O(n^3)
        form = self._form("H")
        return r.copy() if form is None else form.apply(r)

    def apply_Jt(self, A: np.ndarray) -> np.ndarray:
        """J'A for the full-storage factor J (a vector, or each column of a
        matrix)."""
        A = np.asarray(A, dtype=float)
        if A.ndim == 1:
            return dgemv(1.0, self._j, A, trans=1)
        return dgemm(1.0, self._j, A, trans_a=1)

    def apply_J(self, X: np.ndarray) -> np.ndarray:
        """J X for the full-storage factor J."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return dgemv(1.0, self._j, X)
        return dgemm(1.0, self._j, X)

    def apply_W_matrix(self, A: np.ndarray,
                       psi_a: np.ndarray | None = None) -> np.ndarray:
        """W applied to A (a vector, or each column of a matrix).  Full
        storage forms it as J (J'A), limited storage as tau A + Psi M (Psi'A);
        ``psi_a`` supplies Psi'A when the caller already has it."""
        A = np.asarray(A, dtype=float)
        if self.storage == "full":
            return self.apply_J(self.apply_Jt(A))
        form = self._form("W")
        return A.copy() if form is None else form.apply(A, psi_a)

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
        self.factor_changes += 1
        self._newest_change = None
        self.row_norm_bound(exact=True)

    @property
    def H(self) -> np.ndarray:
        """H = W^{-1} as a dense array, formed on request."""
        return np.linalg.inv(self.dense_W())

    def compact_basis(self) -> tuple[tuple[int, int], np.ndarray] | None:
        """The pair window (see ``window_shift``) and the columns of
        Psi = [A B] in the compact forms of W and H.

        A = S, B = V for BFGS and A = V, B = S for DFP.  None for full
        storage or an empty history.  Psi is a view of the held buffer,
        valid until the next update.
        """
        if self.storage != "limited" or not self.pairs:
            return None
        h = len(self.pairs)
        start = self._psi_start
        return (self.updates - h, h), self._psi_rows[start:start + 2 * h].T

    def gram_W(self, A: np.ndarray, ata: np.ndarray | None = None,
               psi_a: np.ndarray | None = None) -> np.ndarray:
        """A' W A.  Full storage forms it as (J'A)'(J'A), limited storage as
        tau A'A + (Psi'A)' M (Psi'A), both without W A; ``ata`` and
        ``psi_a`` supply A'A and Psi'A when the caller already has them."""
        A = np.asarray(A, dtype=float)
        if self.storage == "full":
            K = self.apply_Jt(A)
            return K.T @ K
        if ata is None:
            ata = A.T @ A
        form = self._form("W")
        return ata.copy() if form is None else form.gram(A, ata, psi_a)
