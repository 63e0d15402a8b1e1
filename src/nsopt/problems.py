"""Nonsmooth test-problem library with standard starting points.

Each problem supplies f, one generalized gradient, the standard starting
point, and the known minimal value where available.  Ties in max-type terms
are broken toward the lowest index and sign(0) = 0, so the returned vector is
always a valid generalized gradient element.
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


# -- MaxQ ---------------------------------------------------------------


def _maxq(n):
    def f(x):
        return float(np.max(x * x))

    def g(x):
        j = int(np.argmax(x * x))
        out = np.zeros(n)
        out[j] = 2.0 * x[j]
        return out

    x0 = np.arange(1.0, n + 1)
    x0[n // 2:] *= -1.0
    return f, g, x0, 0.0


# -- MxHilb -------------------------------------------------------------


def _mxhilb(n):
    H = scipy.linalg.hilbert(n)

    def f(x):
        return float(np.max(np.abs(H @ x)))

    def g(x):
        r = H @ x
        i = int(np.argmax(np.abs(r)))
        return np.sign(r[i]) * H[i]

    return f, g, np.ones(n), 0.0


# -- ChainedLQ ----------------------------------------------------------


def _chained_lq(n):
    def terms(x):
        a = -x[:-1] - x[1:]
        return a, a + x[:-1] ** 2 + x[1:] ** 2 - 1.0

    def f(x):
        a, b = terms(x)
        return float(np.sum(np.maximum(a, b)))

    def g(x):
        a, b = terms(x)
        sel = b > a  # tie keeps the first (linear) term
        gi = np.where(sel, -1.0 + 2.0 * x[:-1], -1.0)
        gj = np.where(sel, -1.0 + 2.0 * x[1:], -1.0)
        out = np.zeros(n)
        out[:-1] += gi
        out[1:] += gj
        return out

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


def _chained_cb3_1(n):
    def f(x):
        t1, t2, t3 = _cb3_terms(x)
        return float(np.sum(np.maximum(t1, np.maximum(t2, t3))))

    def g(x):
        t1, t2, t3 = _cb3_terms(x)
        sel = np.argmax(np.vstack([t1, t2, t3]), axis=0)
        grads = _cb3_grads(x)
        gi = np.choose(sel, [grads[k][0] for k in range(3)])
        gj = np.choose(sel, [grads[k][1] for k in range(3)])
        out = np.zeros(n)
        out[:-1] += gi
        out[1:] += gj
        return out

    return f, g, np.full(n, 2.0), 2.0 * (n - 1)


def _chained_cb3_2(n):
    def sums(x):
        t1, t2, t3 = _cb3_terms(x)
        return np.array([np.sum(t1), np.sum(t2), np.sum(t3)])

    def f(x):
        return float(np.max(sums(x)))

    def g(x):
        k = int(np.argmax(sums(x)))
        gi, gj = _cb3_grads(x)[k]
        out = np.zeros(n)
        out[:-1] += gi
        out[1:] += gj
        return out

    return f, g, np.full(n, 2.0), 2.0 * (n - 1)


# -- ActiveFaces --------------------------------------------------------


def _active_faces(n):
    def f(x):
        s = -float(np.sum(x))
        vals = np.log(np.abs(x) + 1.0)
        return float(max(np.max(vals), np.log(abs(s) + 1.0)))

    def g(x):
        s = -float(np.sum(x))
        vals = np.log(np.abs(x) + 1.0)
        last = np.log(abs(s) + 1.0)
        j = int(np.argmax(np.append(vals, last + 0.0)))
        if j < n and vals[j] >= last:
            out = np.zeros(n)
            out[j] = np.sign(x[j]) / (abs(x[j]) + 1.0)
            return out
        return np.full(n, -np.sign(s) / (abs(s) + 1.0))

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
        return float(np.sum(np.abs(a) ** p + np.abs(b) ** q))

    def g(x):
        a, b, p, q = pieces(x)
        absa, absb = np.abs(a), np.abs(b)
        la = np.log(np.where(absa > 0.0, absa, 1.0))
        lb = np.log(np.where(absb > 0.0, absb, 1.0))
        # d/da |a|^p + d/da |b|^q  (x^x-style terms vanish at 0 by continuity)
        da = p * absa ** (p - 1.0) * np.sign(a) + absb ** q * lb * 2.0 * a
        db = absa ** p * la * 2.0 * b + q * absb ** (q - 1.0) * np.sign(b)
        out = np.zeros(n)
        out[:-1] += da
        out[1:] += db
        return out

    x0 = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    return f, g, x0, 0.0


# -- ChainedMifflin_2 ---------------------------------------------------


def _mifflin_2(n):
    def f(x):
        y = x[:-1] ** 2 + x[1:] ** 2 - 1.0
        return float(np.sum(-x[:-1] + 2.0 * y + 1.75 * np.abs(y)))

    def g(x):
        y = x[:-1] ** 2 + x[1:] ** 2 - 1.0
        w = 4.0 + 3.5 * np.sign(y)
        out = np.zeros(n)
        out[:-1] += -1.0 + w * x[:-1]
        out[1:] += w * x[1:]
        return out

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
        return float(max(np.sum(t1), np.sum(t2)))

    def g(x):
        a, b, t1, t2 = _crescent_pieces(x)
        out = np.zeros(n)
        if np.sum(t1) >= np.sum(t2):
            out[:-1] += 2.0 * a
            out[1:] += 2.0 * (b - 1.0) + 1.0
        else:
            out[:-1] += -2.0 * a
            out[1:] += -2.0 * (b - 1.0) + 1.0
        return out

    return f, g, _crescent_x0(n), 0.0


def _chained_crescent_2(n):
    def f(x):
        _, _, t1, t2 = _crescent_pieces(x)
        return float(np.sum(np.maximum(t1, t2)))

    def g(x):
        a, b, t1, t2 = _crescent_pieces(x)
        sel = t2 > t1  # tie keeps the first term
        out = np.zeros(n)
        out[:-1] += np.where(sel, -2.0 * a, 2.0 * a)
        out[1:] += np.where(sel, -2.0 * (b - 1.0) + 1.0, 2.0 * (b - 1.0) + 1.0)
        return out

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
    oracle = ObjectiveOracle(dimension=n, evaluate_f=f, evaluate_g=g)
    return ProblemInstance(name=name, n=n, x0=x0, oracle=oracle, f_star=f_star)
