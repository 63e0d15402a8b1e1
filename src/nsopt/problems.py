"""Nonsmooth test-problem library with standard starting points.

Each problem supplies f, one generalized gradient, the standard starting
point, and the known minimal value where available.  Ties in max-type terms
are broken toward the lowest index and sign(0) = 0, so the returned vector is
always a valid generalized gradient element.

Every f and g is written once over axis 0, so that it takes a point or an
(n, k) Fortran-ordered block of points as columns (``blocks``), giving k
values or an n x k gradient block.  Each column comes out bitwise as the
point alone would: elementwise operations round alike, and a sum over axis
0 of a Fortran-ordered block sums each column as ``np.sum`` sums a vector.
MxHilb forms ``H @ x`` per column, because ``H @ X`` sums differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .oracle import ObjectiveOracle

PROBLEM_NAMES = (
    "ActiveFaces",
    "BrownFunction_2",
    "ChainedCB3_1",
    "ChainedCB3_2",
    "ChainedCrescent_1",
    "ChainedCrescent_2",
    "ChainedLQ",
    "ChainedMifflin_2",
    "MaxQ",
    "MxHilb",
)


@dataclass
class ProblemInstance:
    name: str
    n: int
    x0: np.ndarray
    oracle: ObjectiveOracle
    f_star: float | None


def _chained(x, gi, gj):
    """A chained sum's gradient: gi on coordinates 0..n-2, then gj added on
    1..n-1."""
    out = np.zeros(np.shape(x), order="F")
    out[:-1] += gi
    out[1:] += gj
    return out


def _top(a, j):
    """The index of entry j of a point, or of entry j[c] of each column c of
    a block."""
    return j if np.ndim(a) == 1 else (j, np.arange(np.shape(a)[1]))


# -- MaxQ ---------------------------------------------------------------


def _maxq(n):
    def f(x):
        return np.max(x * x, axis=0)

    def g(x):
        top = _top(x, np.argmax(x * x, axis=0))
        out = np.zeros(np.shape(x), order="F")
        out[top] = 2.0 * x[top]
        return out

    x0 = np.arange(1.0, n + 1)
    x0[n // 2:] *= -1.0
    return f, g, x0, 0.0


# -- MxHilb -------------------------------------------------------------


def _mxhilb(n):
    H = scipy.linalg.hilbert(n)

    def products(x):
        # H @ X sums differently from H @ x for each of its columns
        return H @ x if np.ndim(x) == 1 else np.stack([H @ c for c in x.T], axis=1)

    def f(x):
        return np.max(np.abs(products(x)), axis=0)

    def g(x):
        r = products(x)
        i = np.argmax(np.abs(r), axis=0)
        return np.sign(r[_top(r, i)]) * H[i].T  # H[i] is row i, or rows i[c]

    return f, g, np.ones(n), 0.0


# -- ChainedLQ ----------------------------------------------------------


def _chained_lq(n):
    def terms(x):
        a = -x[:-1] - x[1:]
        return a, a + x[:-1] ** 2 + x[1:] ** 2 - 1.0

    def f(x):
        a, b = terms(x)
        return np.sum(np.maximum(a, b), axis=0)

    def g(x):
        a, b = terms(x)
        sel = b > a  # tie keeps the first (linear) term
        return _chained(x, np.where(sel, -1.0 + 2.0 * x[:-1], -1.0),
                        np.where(sel, -1.0 + 2.0 * x[1:], -1.0))

    return f, g, np.full(n, -0.5), -np.sqrt(2.0) * (n - 1)


# -- ChainedCB3 (elementwise max and max of sums) -----------------------


def _cb3_terms(x):
    a, b = x[:-1], x[1:]
    t1 = a ** 4 + b ** 2
    t2 = (2.0 - a) ** 2 + (2.0 - b) ** 2
    # exp overflows to inf at trial points far out; f is then inf and the
    # line search rejects the point
    with np.errstate(over="ignore"):
        t3 = 2.0 * np.exp(b - a)
    return t1, t2, t3


def _cb3_grads(x):
    a, b = x[:-1], x[1:]
    with np.errstate(over="ignore"):
        e = 2.0 * np.exp(b - a)
    return ((4.0 * a ** 3, 2.0 * b),
            (-2.0 * (2.0 - a), -2.0 * (2.0 - b)),
            (-e, e))


def _cb3_gradient(x, sel):
    """The chained gradient of term sel: 0, 1 or 2, for a point or per
    column, or per pair."""
    grads = _cb3_grads(x)
    if np.ndim(sel) == 0:
        return _chained(x, *grads[sel])
    return _chained(x, np.choose(sel, [grads[k][0] for k in range(3)]),
                    np.choose(sel, [grads[k][1] for k in range(3)]))


def _chained_cb3_1(n):
    def f(x):
        t1, t2, t3 = _cb3_terms(x)
        return np.sum(np.maximum(t1, np.maximum(t2, t3)), axis=0)

    def g(x):
        return _cb3_gradient(x, np.argmax(np.array(_cb3_terms(x)), axis=0))

    return f, g, np.full(n, 2.0), 2.0 * (n - 1)


def _chained_cb3_2(n):
    def sums(x):
        return np.array([np.sum(t, axis=0) for t in _cb3_terms(x)])

    def f(x):
        return np.max(sums(x), axis=0)

    def g(x):
        return _cb3_gradient(x, np.argmax(sums(x), axis=0))

    return f, g, np.full(n, 2.0), 2.0 * (n - 1)


# -- ActiveFaces --------------------------------------------------------


def _active_faces(n):
    def pieces(x):
        s = -np.sum(x, axis=0)
        return s, np.log(np.abs(x) + 1.0), np.log(np.abs(s) + 1.0)

    def f(x):
        _, vals, last = pieces(x)
        return np.maximum(np.max(vals, axis=0), last)

    def g(x):
        # the face of the largest log(|x_j| + 1), the lowest j on a tie,
        # unless log(|s| + 1) exceeds it
        s, vals, last = pieces(x)
        top = _top(x, np.argmax(vals, axis=0))
        face = vals[top] >= last
        out = np.zeros(np.shape(x), order="F")
        # off a face s != 0, so adding to 0 keeps every bit
        out += np.where(face, 0.0, -np.sign(s) / (np.abs(s) + 1.0))
        out[top] = np.where(face, np.sign(x[top]) / (np.abs(x[top]) + 1.0), out[top])
        return out

    return f, g, np.ones(n), 0.0


# -- BrownFunction_2 ----------------------------------------------------


def _brown_2(n):
    def pieces(x):
        a, b = x[:-1], x[1:]
        p = b * b + 1.0
        q = a * a + 1.0
        return a, b, p, q

    def f(x):
        a, b, p, q = pieces(x)
        return np.sum(np.abs(a) ** p + np.abs(b) ** q, axis=0)

    def g(x):
        a, b, p, q = pieces(x)
        absa, absb = np.abs(a), np.abs(b)
        la = np.log(np.where(absa > 0.0, absa, 1.0))
        lb = np.log(np.where(absb > 0.0, absb, 1.0))
        # d/da |a|^p + d/da |b|^q  (x^x-style terms vanish at 0 by continuity)
        da = p * absa ** (p - 1.0) * np.sign(a) + absb ** q * lb * 2.0 * a
        db = absa ** p * la * 2.0 * b + q * absb ** (q - 1.0) * np.sign(b)
        return _chained(x, da, db)

    x0 = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    return f, g, x0, 0.0


# -- ChainedMifflin_2 ---------------------------------------------------


def _mifflin_2(n):
    def f(x):
        y = x[:-1] ** 2 + x[1:] ** 2 - 1.0
        return np.sum(-x[:-1] + 2.0 * y + 1.75 * np.abs(y), axis=0)

    def g(x):
        y = x[:-1] ** 2 + x[1:] ** 2 - 1.0
        w = 4.0 + 3.5 * np.sign(y)
        return _chained(x, -1.0 + w * x[:-1], w * x[1:])

    f_star = -706.55 if n == 1000 else None
    return f, g, np.full(n, -1.0), f_star


# -- ChainedCrescent ----------------------------------------------------


def _crescent_pieces(x):
    a, b = x[:-1], x[1:]
    t1 = a * a + (b - 1.0) ** 2 + b - 1.0
    t2 = -a * a - (b - 1.0) ** 2 + b + 1.0
    return a, b, t1, t2


def _crescent_x0(n):
    return np.where(np.arange(n) % 2 == 0, -1.5, 2.0)


def _chained_crescent_1(n):
    def f(x):
        _, _, t1, t2 = _crescent_pieces(x)
        return np.maximum(np.sum(t1, axis=0), np.sum(t2, axis=0))

    def g(x):
        a, b, t1, t2 = _crescent_pieces(x)
        # +-2, chosen by the larger sum, the first on a tie
        c = np.where(np.sum(t1, axis=0) >= np.sum(t2, axis=0), 2.0, -2.0)
        return _chained(x, c * a, c * (b - 1.0) + 1.0)

    return f, g, _crescent_x0(n), 0.0


def _chained_crescent_2(n):
    def f(x):
        _, _, t1, t2 = _crescent_pieces(x)
        return np.sum(np.maximum(t1, t2), axis=0)

    def g(x):
        a, b, t1, t2 = _crescent_pieces(x)
        sel = t2 > t1  # tie keeps the first term
        return _chained(x, np.where(sel, -2.0 * a, 2.0 * a),
                        np.where(sel, -2.0 * (b - 1.0) + 1.0, 2.0 * (b - 1.0) + 1.0))

    return f, g, _crescent_x0(n), 0.0


_FACTORIES = {
    "ActiveFaces": _active_faces,
    "BrownFunction_2": _brown_2,
    "ChainedCB3_1": _chained_cb3_1,
    "ChainedCB3_2": _chained_cb3_2,
    "ChainedCrescent_1": _chained_crescent_1,
    "ChainedCrescent_2": _chained_crescent_2,
    "ChainedLQ": _chained_lq,
    "ChainedMifflin_2": _mifflin_2,
    "MaxQ": _maxq,
    "MxHilb": _mxhilb,
}


def make_problem(name: str, n: int) -> ProblemInstance:
    if name not in _FACTORIES:
        raise ValueError(f"unknown problem {name!r}")
    if n < 2:
        raise ValueError("problems require n >= 2")
    f, g, x0, f_star = _FACTORIES[name](n)
    oracle = ObjectiveOracle(dimension=n, evaluate_f=f, evaluate_g=g, blocks=True)
    return ProblemInstance(name=name, n=n, x0=x0, oracle=oracle, f_star=f_star)
