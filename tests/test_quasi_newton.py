import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsopt.quasi_newton import DegenerateStepError, QuasiNewtonState, damp

ETA, PSI = 1e-8, 1e8


def _bounds_hold(s, v, eta=ETA, psi=PSI):
    ss = float(s @ s)
    sv = float(s @ v)
    return sv >= eta * ss and float(v @ v) <= psi * sv


def test_damp_noop_when_bounds_hold():
    s = np.array([1.0, 0.0])
    y = np.array([2.0, 0.0])
    beta, v = damp(s, y, ETA, PSI)
    assert beta == 0.0
    assert np.allclose(v, y)


def test_damp_opposed_curvature():
    s = np.array([1.0, 0.0])
    y = np.array([-1.0, 0.0])
    beta, v = damp(s, y, ETA, PSI)
    # first bound binds at s'v = eta: beta = (1 + eta) / 2
    assert beta == pytest.approx((1.0 + ETA) / 2.0, rel=1e-12)
    assert v[0] == pytest.approx(ETA, rel=1e-6)
    assert _bounds_hold(s, v)


def test_damp_y_equals_s():
    s = np.array([3.0, -1.0])
    beta, v = damp(s, s.copy(), ETA, PSI)
    assert beta == 0.0
    assert np.allclose(v, s)


def test_damp_rejects_zero_step():
    with pytest.raises(DegenerateStepError):
        damp(np.zeros(2), np.ones(2), ETA, PSI)


def test_damp_always_satisfies_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 8)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5)
        beta, v = damp(s, y, ETA, PSI)
        assert 0.0 <= beta <= 1.0
        assert _bounds_hold(s, v)


_coords = st.floats(-1e4, 1e4, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_coords, min_size=1, max_size=6),
       st.lists(_coords, min_size=1, max_size=6),
       st.floats(1e-8, 0.9), st.floats(1.2, 1e8))
def test_damp_bounds_property(s_list, y_list, eta, psi):
    n = min(len(s_list), len(y_list))
    s = np.asarray(s_list[:n])
    y = np.asarray(y_list[:n])
    if float(s @ s) < 1e-12:
        return
    beta, v = damp(s, y, eta, psi)
    assert 0.0 <= beta <= 1.0
    # interpolation between y and s, and both curvature bounds
    assert np.allclose(v, (1.0 - beta) * y + beta * s)
    assert _bounds_hold(s, v, eta * (1 - 1e-9), psi * (1 + 1e-9))


def test_bfgs_update_identity_pair():
    qn = QuasiNewtonState(2)
    e1 = np.array([1.0, 0.0])
    qn.update(e1, e1)
    assert np.allclose(qn.H, np.eye(2))
    assert np.allclose(qn.W, np.eye(2))


def test_bfgs_update_hand_case():
    qn = QuasiNewtonState(2)
    qn.update(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(qn.H, [[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(qn.W, [[2.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(qn.H @ qn.W, np.eye(2), atol=1e-12)


def test_update_rejects_nonpositive_curvature():
    qn = QuasiNewtonState(2)
    with pytest.raises(ValueError):
        qn.update(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))


def test_limited_history_fifo():
    qn = QuasiNewtonState(3, storage="limited", history_limit=2)
    pairs = [(np.eye(3)[i], np.eye(3)[i]) for i in range(3)]
    for s, v in pairs:
        qn.update(s, v)
    kept = list(qn.pairs)
    assert len(kept) == 2
    assert np.allclose(kept[0][0], pairs[1][0])
    assert np.allclose(kept[1][0], pairs[2][0])
    # each pair is held once, as rows of Psi', and read back as copies
    assert not any(a.flags.writeable for pair in kept for a in pair)


def test_history_limit_must_be_positive():
    # a window of no pairs would leave W = I whatever the updates
    for bad in (0, -1):
        with pytest.raises(ValueError, match="history_limit"):
            QuasiNewtonState(3, storage="limited", history_limit=bad)


def test_empty_limited_history_is_identity():
    qn = QuasiNewtonState(4, storage="limited")
    r = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.allclose(qn.apply_W(r), r)
    assert np.allclose(qn.apply_H(r), r)


def test_full_apply_w_matrix_vector():
    qn = QuasiNewtonState(2)
    qn.W = np.array([[2.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(qn.apply_W(np.array([1.0, 0.0])), [2.0, -1.0])


# Tight damping bounds keep the metric well conditioned, so the inverse-pair
# and limited-vs-full identities can be checked at tight tolerances while
# every update still exercises the damping path.
ETA_TIGHT, PSI_TIGHT = 0.5, 2.0


def _random_state(rng, n, mode, storage, updates):
    qn = QuasiNewtonState(n, mode=mode, storage=storage)
    for _ in range(updates):
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        _, v = damp(s, y, ETA_TIGHT, PSI_TIGHT)
        qn.update(s, v)
    return qn


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
@pytest.mark.parametrize("storage", ["full", "limited"])
def test_apply_h_w_inverse_pair(mode, storage):
    rng = np.random.default_rng(7)
    for trial in range(10):
        qn = _random_state(rng, 6, mode, storage, updates=8)
        r = rng.standard_normal(6)
        back = qn.apply_H(qn.apply_W(r))
        assert np.max(np.abs(back - r)) <= 1e-6 * max(1.0, np.max(np.abs(r)))


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_limited_matches_full_within_history(mode, full_from_base):
    rng = np.random.default_rng(11)
    n = 8
    lim = QuasiNewtonState(n, mode=mode, storage="limited", history_limit=20)
    for _ in range(15):
        s = rng.standard_normal(n)
        _, v = damp(s, rng.standard_normal(n), ETA_TIGHT, PSI_TIGHT)
        lim.update(s, v)
        full = full_from_base(n, mode, list(lim.pairs))
        r = rng.standard_normal(n)
        ref_w = full.apply_W(r)
        ref_h = full.apply_H(r)
        tol_w = 1e-9 * max(1.0, np.max(np.abs(ref_w)))
        tol_h = 1e-9 * max(1.0, np.max(np.abs(ref_h)))
        assert np.max(np.abs(lim.apply_W(r) - ref_w)) <= tol_w
        assert np.max(np.abs(lim.apply_H(r) - ref_h)) <= tol_h


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_apply_w_matrix_matches_columns(mode):
    rng = np.random.default_rng(3)
    qn = _random_state(rng, 9, mode, "limited", updates=12)
    A = rng.standard_normal((9, 5))
    ref = np.column_stack([qn.apply_W(A[:, j]) for j in range(5)])
    got = qn.apply_W_matrix(A)
    assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_dense_w_consistent():
    rng = np.random.default_rng(5)
    qn = _random_state(rng, 5, "BFGS", "limited", updates=6)
    D = qn.dense_W()
    r = rng.standard_normal(5)
    assert np.allclose(D @ r, qn.apply_W(r), rtol=1e-10, atol=1e-10)


def test_full_storage_positive_definite_after_damped_updates():
    rng = np.random.default_rng(9)
    for mode in ("BFGS", "DFP"):
        qn = _random_state(rng, 7, mode, "full", updates=20)
        np.linalg.cholesky(qn.H)  # raises if not positive definite
        np.linalg.cholesky(qn.W)
        assert np.max(np.abs(qn.H @ qn.W - np.eye(7))) <= 1e-6


def _reference_update(H, W, s, v, mode):
    """The dense H and W recursions, each formed with np.outer and
    symmetrized: the full-storage update before W alone was kept."""
    rho = float(s @ v)
    h = H @ s
    shs = float(s @ h)
    w = W @ v
    vwv = float(v @ w)
    if mode == "BFGS":
        H = H - np.outer(h, h) / shs + np.outer(v, v) / rho
        W = (W - (np.outer(s, w) + np.outer(w, s)) / rho
             + (vwv / rho**2 + 1.0 / rho) * np.outer(s, s))
    else:
        H = (H - (np.outer(v, h) + np.outer(h, v)) / rho
             + (shs / rho**2 + 1.0 / rho) * np.outer(v, v))
        W = W - np.outer(w, w) / vwv + np.outer(s, s) / rho
    return 0.5 * (H + H.T), 0.5 * (W + W.T)


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_full_update_matches_dense_reference(mode):
    rng = np.random.default_rng(17)
    n = 40
    qn = QuasiNewtonState(n, mode=mode)
    H_ref, W_ref = np.eye(n), np.eye(n)
    A = rng.standard_normal((n, 6))
    for _ in range(30):
        s = rng.standard_normal(n)
        _, v = damp(s, rng.standard_normal(n), ETA_TIGHT, PSI_TIGHT)
        qn.update(s, v)
        H_ref, W_ref = _reference_update(H_ref, W_ref, s, v, mode)
        scale = np.max(np.abs(W_ref))
        assert np.max(np.abs(qn.W - W_ref)) <= 1e-12 * scale
        # every view of W agrees after each update; dense_W() was also read
        # before this update, so a copy kept across updates would show here
        D = qn.dense_W()
        assert np.array_equal(D, D.T)
        assert np.max(np.abs(D - W_ref)) <= 1e-12 * scale
        r = A[:, 0]
        assert np.allclose(qn.apply_W(r), D @ r, rtol=1e-12, atol=1e-12 * scale)
        WA = qn.apply_W_matrix(A)
        assert np.allclose(WA, D @ A, rtol=1e-12, atol=1e-12 * scale)
        P = qn.apply_Bt(A)  # A'WA = c A'A + P'MP, with c = 0 and M = I here
        assert qn.scale == 0.0 and qn.apply_M(P) is P
        assert np.allclose(P.T @ P, A.T @ D @ A, rtol=1e-12,
                           atol=1e-11 * scale)
        assert np.max(np.abs(qn.H @ qn.W - np.eye(n))) <= 1e-9
    assert np.max(np.abs(qn.H - H_ref)) <= 1e-9 * np.max(np.abs(H_ref))


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_full_update_allocates_no_dense_matrix(mode):
    # One update may allocate vectors, but no n x n temporary and no copy
    # of W: peak traced allocation stays below a quarter of W's size.
    rng = np.random.default_rng(4)
    n = 400
    qn = QuasiNewtonState(n, mode=mode)
    pairs = []
    for _ in range(2):
        s = rng.standard_normal(n)
        pairs.append((s, damp(s, rng.standard_normal(n), ETA_TIGHT, PSI_TIGHT)[1]))
    qn.update(*pairs[0])
    qn.dense_W()  # reading a dense copy must not make the update mirror W
    tracemalloc.start()
    try:
        qn.update(*pairs[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def _dense_window_reference(pairs, mode):
    """W and H of ``pairs`` by the dense recursions of ``_reference_update``,
    started from W0 = tau I of the newest pair: tau = s'v / v'v for BFGS and
    s's / s'v for DFP (Nocedal & Wright 2006, eq. 7.20)."""
    s, v = pairs[-1]
    tau = float(s @ v) / float(v @ v) if mode == "BFGS" else \
        float(s @ s) / float(s @ v)
    n = s.size
    H, W = np.eye(n) / tau, tau * np.eye(n)
    for s, v in pairs:
        H, W = _reference_update(H, W, s, v, mode)
    return W, H


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_limited_matches_dense_recursions_from_scaled_base(mode):
    # The window of 4 pairs wraps over 15 updates; after each update both
    # compact forms, W and H, match the dense recursions over the window
    # from the same scaled base, and stay exact inverses of each other.
    rng = np.random.default_rng(21)
    n = 10
    qn = QuasiNewtonState(n, mode=mode, storage="limited", history_limit=4)
    pairs = []
    for _ in range(15):
        s = rng.standard_normal(n)
        _, v = damp(s, rng.standard_normal(n), ETA_TIGHT, PSI_TIGHT)
        qn.update(s, v)
        pairs = (pairs + [(s, v)])[-4:]
        W_ref, H_ref = _dense_window_reference(pairs, mode)
        I = np.eye(n)
        W = qn.apply_W_matrix(I)
        H = np.column_stack([qn.apply_H(I[:, j]) for j in range(n)])
        assert np.max(np.abs(W - W_ref)) <= 1e-12 * np.max(np.abs(W_ref))
        assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
        assert np.max(np.abs(H @ W - I)) <= 1e-12


@pytest.mark.parametrize("mode, limit", [("BFGS", 4), ("DFP", 4), ("BFGS", 1)])
def test_held_basis_is_the_stacked_pairs(mode, limit):
    # 40 updates slide the window past the end of the buffer several times.
    # After each, Psi is bit for bit the columns stacked from the pair
    # list, with the same column-major layout, so that every product with
    # it sums as it would on a freshly stacked array.
    rng = np.random.default_rng(4)
    qn = QuasiNewtonState(7, mode=mode, storage="limited", history_limit=limit)
    for _ in range(40):
        s = rng.standard_normal(7)
        qn.update(s, s + 0.1 * rng.standard_normal(7))
        lead, trail = (0, 1) if mode == "BFGS" else (1, 0)
        stacked = np.array([p[lead] for p in qn.pairs]
                           + [p[trail] for p in qn.pairs]).T
        window, psi = qn._window(qn.version), qn._basis()
        assert window == (qn.version - len(qn.pairs), len(qn.pairs))
        assert np.array_equal(psi, stacked)
        assert psi.strides == stacked.strides and psi.flags.f_contiguous


@pytest.mark.parametrize("step", ["direction", "general"])
def test_factored_updates_match_dense_reference_over_alternating_modes(step):
    # 200 updates at n = 30 that alternate BFGS and DFP on one factor J.
    # "direction" steps lie along d = -J J'm and pass J'm, so the BFGS
    # update makes no solve with J; "general" steps are random and BFGS
    # solves J u = s.  After every update J J' matches the dense recursion
    # to 1e-12 relative, and the dense W is exactly symmetric.
    rng = np.random.default_rng(30)
    n = 30
    qn = QuasiNewtonState(n)
    H_ref, W_ref = np.eye(n), np.eye(n)
    for k in range(200):
        qn.mode = ("BFGS", "DFP")[k % 2]
        if step == "direction":
            jt_model = qn.apply_Bt(rng.standard_normal(n))
            s = -rng.uniform(0.1, 2.0) * qn.apply_B(jt_model)
        else:
            jt_model, s = None, rng.standard_normal(n)
        _, v = damp(s, rng.standard_normal(n), ETA_TIGHT, PSI_TIGHT)
        qn.update(s, v, jt_model)
        H_ref, W_ref = _reference_update(H_ref, W_ref, s, v, qn.mode)
        D = qn.dense_W()
        assert np.array_equal(D, D.T)
        assert np.max(np.abs(D - W_ref)) <= 1e-12 * np.max(np.abs(W_ref))
    assert qn.version == 200


def test_w_setter_factors_or_projects():
    # A positive definite W gets its Cholesky factor; an indefinite one is
    # projected onto the positive semidefinite matrices, its negative
    # eigenvalues clipped to zero.
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = np.array([-3.0, -1e-9, 0.0, 1e-6, 2.0, 5.0])
    qn = QuasiNewtonState(6)
    definite = (Q * np.abs(lam + 4.0)) @ Q.T
    qn.W = definite
    assert np.allclose(qn.dense_W(), definite, rtol=0.0, atol=1e-14)
    X = rng.standard_normal((6, 3))
    P, since = qn.apply_Bt(X), qn.version
    qn.W = (Q * lam) @ Q.T
    projected = (Q * np.maximum(lam, 0.0)) @ Q.T
    assert np.allclose(qn.dense_W(), projected, rtol=0.0, atol=1e-14)
    assert np.linalg.eigvalsh(qn.dense_W())[0] >= -1e-15
    # an assignment is a change of J that a holder of J'X cannot carry over:
    # it is formed again
    assert qn._carry(P.copy(), since, X) is None
    assert np.array_equal(qn.follow(P.copy(), since, X), qn.apply_Bt(X))
