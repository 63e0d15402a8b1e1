import math
import tracemalloc

import numpy as np
import pytest

from nsopt import point_set, solver
from nsopt.options import SolverOptions
from nsopt.point_set import (BundleElement, PointSet, prune_by_age,
                             prune_by_distance, sample_ball)
from nsopt.quasi_newton import QuasiNewtonState, damp
from nsopt.subproblem import SubproblemData


def _elem(x, birth=0):
    x = np.asarray(x, dtype=float)
    return BundleElement(x=x, f=0.0, g=np.zeros_like(x), birth=birth)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_sample_ball_zero_radius():
    rng = np.random.default_rng(0)
    x = np.array([1.0, 2.0])
    points = sample_ball(x, 0.0, 5, rng)
    assert points.shape == (2, 5)
    for pt in points.T:
        assert np.array_equal(pt, x)


def test_sample_ball_zero_count():
    rng = np.random.default_rng(0)
    assert sample_ball(np.zeros(2), 1.0, 0, rng).shape == (2, 0)


def test_sample_ball_within_radius():
    rng = np.random.default_rng(1)
    x = np.array([3.0, -1.0, 0.0])
    for pt in sample_ball(x, 0.25, 50, rng).T:
        assert np.linalg.norm(pt - x) <= 0.25 + 1e-12


def test_sample_ball_radius_distribution():
    # uniform over the disc: P(r <= t) = t^2; Kolmogorov distance below 0.05
    rng = np.random.default_rng(2)
    pts = sample_ball(np.zeros(2), 1.0, 10_000, rng)
    radii = np.sort(np.linalg.norm(pts, axis=0))
    empirical = np.arange(1, radii.size + 1) / radii.size
    assert np.max(np.abs(empirical - radii ** 2)) < 0.05


def _reference_ball(x, eps, p, rng):
    """The block stream point by point: p x n normals, then p uniforms;
    point i is x + t_i d_i with t_i = eps u_i^(1/n) / |d_i|, or x itself
    when t_i is 0."""
    normals, uniforms = rng.standard_normal((p, x.size)), rng.random(p)
    points = []
    for d, u in zip(normals, uniforms.tolist()):
        norm = math.sqrt(float(np.sum(d * d)))
        t = eps * u ** (1.0 / x.size) / norm if norm else 0.0
        points.append(x + t * d if t else x.copy())
    return np.column_stack(points) if points else np.empty((x.size, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 200])
@pytest.mark.parametrize("eps", [0.0, 1e-7, 0.3, 5.0])
@pytest.mark.parametrize("p", [0, 1, 9, 20, 25])
def test_sample_ball_is_the_point_by_point_stream(n, eps, p):
    # Every point is bitwise the reference's, formed one by one from the
    # block stream, and the generator ends in the reference's state.
    seed = [n, p, int(eps * 1e7)]
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, n)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_ball(x, eps, p, rng)
    want = _reference_ball(x, eps, p, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert got.shape == (n, p) and got.flags.f_contiguous
    assert np.array_equal(_bits(got), _bits(want))

def test_prune_by_distance_removes_far_points():
    cur = _elem([0.0, 0.0])
    ps = PointSet(cur)
    far = _elem([1.5, 0.0], birth=1)
    near = _elem([0.9, 0.0], birth=2)
    ps.add(far)
    ps.add(near)
    prune_by_distance(ps, eps_next=0.01, envelope_factor=100.0)
    assert list(ps.birth) == [0, 2]  # far (birth 1) is gone
    assert np.array_equal(ps.X, np.column_stack([cur.x, near.x]))
    assert ps.current is cur


def test_prune_by_distance_keeps_lone_current():
    cur = _elem([5.0])
    ps = PointSet(cur)
    prune_by_distance(ps, eps_next=1e-6, envelope_factor=1.0)
    assert len(ps) == 1
    assert np.array_equal(ps.X[:, 0], cur.x)
    assert ps.current is cur


def test_prune_by_age_fifo():
    cur = _elem([0.0], birth=3)
    ps = PointSet(cur)
    ps.add(_elem([1.0], birth=1))
    ps.add(_elem([2.0], birth=2))
    prune_by_age(ps, 2)
    births = sorted(ps.birth)
    assert births == [2, 3]


def test_prune_by_age_under_limit_unchanged():
    cur = _elem([0.0])
    ps = PointSet(cur)
    ps.add(_elem([1.0], birth=1))
    prune_by_age(ps, 10)
    assert len(ps) == 2


def test_prune_by_age_never_evicts_current():
    cur = _elem([0.0], birth=0)  # oldest element
    ps = PointSet(cur)
    for k in range(1, 6):
        ps.add(_elem([float(k)], birth=k))
    prune_by_age(ps, 2)
    assert list(ps.birth) == [0, 5]
    assert np.array_equal(ps.X, [[0.0, 5.0]])
    assert ps.current is cur


def _sampled_bundle(rng, n, k, sizes):
    """A bundle before iteration k's sampling: a current iterate and older
    elements, all born before k, the current one not always the newest."""
    def elem(birth):
        return BundleElement(x=rng.standard_normal(n), f=float(rng.standard_normal()),
                             g=rng.standard_normal(n), birth=birth)

    before, after = sizes
    elems = [elem(int(rng.integers(0, k))) for _ in range(before)]
    cur = elem(int(rng.integers(0, k)))
    ps = PointSet(elems[0]) if elems else PointSet(cur)
    for e in elems[1:]:
        ps.add(e)
    if elems:
        ps.set_current(cur)
    for _ in range(after):
        ps.add(elem(int(rng.integers(0, k))))
    return ps


def _bundle_state(ps):
    return (ps.X.copy(), ps.gradients().copy(), ps.f.copy(), ps.birth.copy(),
            ps._cur, ps.current)


def _draw_spy(finite):
    """f over blocks of draws: the i-th point drawn gets |x|^2 where
    ``finite[i]`` and inf elsewhere.  Records each point and block size."""
    drawn, blocks = [], []

    def f(X):
        lo = len(drawn)
        drawn.extend(X.T.copy())
        blocks.append(X.shape[1])
        values = np.array([pt @ pt for pt in X.T])
        return np.where(finite[lo:len(drawn)], values, np.inf)

    return f, drawn, blocks


def _sampling_case(seed):
    """A random sampling step: cap, p, which draws are finite, and what the
    solver's sampler draws and keeps from them."""
    rng = np.random.default_rng(seed)
    n, k, cap = 3, 7, int(rng.integers(2, 7))
    p = int(rng.integers(0, 2 * cap + 2))
    if seed % 4 == 0:
        p = int(rng.integers(0, cap))  # p <= cap - 1: nothing to refill
    sizes = (int(rng.integers(0, cap)), int(rng.integers(0, cap)))
    finite = rng.uniform(size=p) < rng.choice([0.3, 0.7, 1.0])
    x = rng.standard_normal(n)
    f, drawn, blocks = _draw_spy(finite)
    X, f_X = solver._finite_samples(x, 0.5, p, cap - 1, f,
                                    np.random.default_rng([seed, 2]))
    return dict(n=n, k=k, cap=cap, p=p, sizes=sizes, finite=finite, x=x,
                drawn=drawn, blocks=blocks, X=X, f_X=f_X)


@pytest.mark.parametrize("seed", range(40))
def test_finite_samples_refill_open_places(seed):
    # The sampler draws cap - 1 points and refills only the places that
    # non-finite values left open, up to p draws in all, and keeps the
    # first cap - 1 finite points in draw order.
    c = _sampling_case(seed)
    n, cap, p, finite, drawn = c["n"], c["cap"], c["p"], c["finite"], c["drawn"]

    # the draws are the block stream, in blocks of the places left open
    replay = np.random.default_rng([seed, 2])
    want = [sample_ball(c["x"], 0.5, size, replay) for size in c["blocks"]]
    assert np.array_equal(np.column_stack(drawn) if drawn else np.empty((n, 0)),
                          np.hstack([np.empty((n, 0)), *want]))
    open_places, lo = cap - 1, 0
    for size in c["blocks"]:
        assert size == min(open_places, p - lo) > 0
        open_places -= int(finite[lo:lo + size].sum())
        lo += size
    assert lo == p or open_places == 0
    kept = np.flatnonzero(finite[:lo])[:cap - 1]
    assert kept.size == min(cap - 1, int(finite[:lo].sum()))
    assert np.array_equal(c["X"], np.reshape([drawn[i] for i in kept], (-1, n)).T)
    assert np.array_equal(c["f_X"], [drawn[i] @ drawn[i] for i in kept])


@pytest.mark.parametrize("seed", range(40))
def test_newest_finite_keeps_what_age_pruning_keeps(seed):
    # The solver prunes to cap less the number of kept finite samples before
    # it adds them as one block, so the bundle keeps its newest elements and
    # the samples; it must come out as when each sample is added on its own
    # and age pruning follows, columns, values, births and current position
    # alike.
    c = _sampling_case(seed)
    n, k, cap, sizes, X, f_X = (c["n"], c["k"], c["cap"], c["sizes"],
                                c["X"], c["f_X"])
    reference = _sampled_bundle(np.random.default_rng([seed, 1]), n, k, sizes)
    for x_i, f_i in zip(X.T, f_X):
        reference.add(BundleElement(x=x_i, f=f_i, g=2.0 * x_i, birth=k))
    prune_by_age(reference, cap)
    ps = _sampled_bundle(np.random.default_rng([seed, 1]), n, k, sizes)
    prune_by_age(ps, cap - f_X.size)
    ps.add(BundleElement(x=X, f=f_X, g=2.0 * X, birth=k))
    got, want = _bundle_state(ps), _bundle_state(reference)
    for a, b in zip(got[:4], want[:4]):
        assert np.array_equal(a, b)
    assert got[4] == want[4]
    assert got[5].birth == want[5].birth and np.array_equal(got[5].x, want[5].x)


def test_finite_samples_stop_at_p_draws():
    # 9 places: draws 2 and 5 of the first 9 are out of the domain, and so
    # is every later draw but 12, so the refills take one place at a time
    # until the 20th draw.
    finite = np.ones(20, dtype=bool)
    finite[[2, 5, 9, 10, 11, *range(13, 20)]] = False
    f, drawn, blocks = _draw_spy(finite)
    x, rng = np.zeros(2), np.random.default_rng(4)
    X, f_X = solver._finite_samples(x, 1.0, 20, 9, f, rng)
    assert blocks == [9, 2, 2, 1, 1, 1, 1, 1, 1, 1]
    kept = [0, 1, 3, 4, 6, 7, 8, 12]
    assert np.array_equal(X, np.column_stack([drawn[i] for i in kept]))
    assert np.array_equal(f_X, [drawn[i] @ drawn[i] for i in kept])
    f, drawn, blocks = _draw_spy(np.ones(20, dtype=bool))
    X, f_X = solver._finite_samples(x, 1.0, 20, 9, f, rng)
    assert blocks == [9] and X.shape == (2, 9) and np.all(np.isfinite(f_X))
    X, f_X = solver._finite_samples(x, 1.0, 20, 0, f, rng)
    assert X.shape == (2, 0) and f_X.size == 0 and blocks == [9]


def test_block_add_is_k_single_adds():
    # One block append writes what k appends of its columns write, across
    # the doublings of the held blocks.
    rng = np.random.default_rng(5)
    n = 4
    first = _elem(rng.standard_normal(n))
    one, block = PointSet(first), PointSet(first)
    for birth, k in enumerate([3, 0, 1, 6], start=1):
        X, G = np.asfortranarray(rng.standard_normal((n, k))), rng.standard_normal((n, k))
        f = rng.standard_normal(k)
        for j in range(k):
            one.add(BundleElement(x=X[:, j], f=f[j], g=G[:, j], birth=birth))
        block.add(BundleElement(x=X, f=f, g=G, birth=birth))
        for a, b in zip(_bundle_state(one)[:5], _bundle_state(block)[:5]):
            assert np.array_equal(a, b)
        assert one._f.size == block._f.size


def test_bundle_limit_formula():
    assert SolverOptions().bundle_limit(1000) == 50
    assert SolverOptions().bundle_limit(10) == 10  # floor of 10


def test_gradients_is_a_read_only_view():
    ps = PointSet(_elem([1.0, 2.0]))
    ps.add(_elem([3.0, 4.0], birth=1))
    G = ps.gradients()
    assert np.shares_memory(G, ps.gradients())
    assert G.flags.f_contiguous
    with pytest.raises(ValueError):
        G[0, 0] = 1.0


def _reference_basis(qn):
    """Psi = [A B] formed from the stored pairs, with A = S for BFGS and
    A = V for DFP."""
    S = np.column_stack([s for s, _ in qn.pairs])
    V = np.column_stack([v for _, v in qn.pairs])
    return np.hstack([S, V] if qn.mode == "BFGS" else [V, S])


def _reference_offsets(cur, elements):
    """q_j and r_j as per-column products, the form the offsets replace."""
    q = [float((cur.x - e.x) @ (cur.x - e.x)) for e in elements]
    r = [float(e.g @ (cur.x - e.x)) for e in elements]
    return np.array(q), np.array(r)


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_products_follow_columns_and_pair_window(mode):
    # A seeded random sequence of bundle and metric changes.  After each
    # step the columns must match a list-based model of the bundle, and
    # G'G, Psi'G and the metric's Psi'Psi products formed from scratch;
    # the held offsets must equal per-column products bit for bit.
    rng = np.random.default_rng(4)
    n = 6
    states = [QuasiNewtonState(n, mode=mode, storage="limited",
                               history_limit=h) for h in (1, 4)]

    def elem(birth):
        return BundleElement(x=rng.standard_normal(n),
                             f=float(rng.standard_normal()),
                             g=rng.standard_normal(n), birth=birth)

    cur = elem(0)
    ps = PointSet(cur)
    model = [cur]
    qn = states[0]
    for k in range(1, 200):
        step = rng.choice(["add", "current", "distance", "age", "update",
                           "switch"])
        if step == "add":
            for _ in range(rng.integers(1, 4)):
                model.append(elem(k))
                ps.add(model[-1])
        elif step == "current":
            cur = elem(k)
            model.append(cur)
            ps.set_current(cur)
        elif step == "distance":
            dist = [np.linalg.norm(e.x - cur.x) for e in model]
            # half the time the limit is one of the distances, so the
            # element at the limit must round the same way to stay
            limit = float(rng.choice(dist) if rng.integers(2)
                          else np.quantile(dist, 0.7))
            prune_by_distance(ps, limit, 1.0)
            model = [e for e in model
                     if e is cur or np.linalg.norm(e.x - cur.x) <= limit]
        elif step == "age":
            limit = int(rng.integers(1, len(model) + 1))
            evicted = [e for e in sorted(model, key=lambda e: e.birth)
                       if e is not cur][:len(model) - limit]
            prune_by_age(ps, limit)
            model = [e for e in model if all(e is not x for x in evicted)]
        elif step == "update":
            for state in (states if rng.integers(2) else [qn]):
                s = rng.standard_normal(n)
                state.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
        else:  # the other metric state on the same bundle
            qn = states[1] if qn is states[0] else states[0]

        assert list(ps.birth) == [e.birth for e in model]
        assert np.array_equal(ps.X, np.column_stack([e.x for e in model]))
        assert np.array_equal(ps.f, [e.f for e in model])
        assert ps.current is cur
        q_ref, r_ref = _reference_offsets(cur, model)
        held = ps._q.size  # a prefix, computed for the current iterate
        assert held == ps._r.size <= len(model)
        assert np.array_equal(ps._q, q_ref[:held])
        assert np.array_equal(ps._r, r_ref[:held])
        if rng.integers(2):
            q, r = ps.offsets()
            assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        ref = np.column_stack([e.g for e in model])
        G, gram, psi_g = ps.gradient_products(qn)
        assert np.array_equal(G, ref)
        assert np.allclose(gram, ref.T @ ref, rtol=1e-13, atol=1e-13)
        if not qn.pairs:
            assert psi_g.shape == (0, len(model))
            continue
        psi = _reference_basis(qn)
        assert np.array_equal(qn._basis(), psi)
        assert np.allclose(psi_g, psi.T @ ref, rtol=1e-13, atol=1e-13)
        # Psi'Psi: the state's G'WG = c G'G + P'MP from the held products
        # against a state that forms it afresh
        fresh = QuasiNewtonState(n, mode=mode, storage="limited",
                                 history_limit=qn.history_limit)
        for s, v in qn.pairs:
            fresh.update(s, v)
        want = ref.T @ fresh.apply_W_matrix(ref)
        got = qn.scale * gram + psi_g.T @ qn.apply_M(psi_g)
        assert np.allclose(got, want,
                           rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))
    assert all(state.version > 3 * state.history_limit for state in states)


@pytest.mark.parametrize("width", [1, 8, 16, 70, None])
def test_offsets_match_per_column_products_across_blocks(monkeypatch, width):
    # q and r formed in blocks of ``width`` columns (None: the module's
    # block) against the per-column products, bit for bit, with columns
    # added after a first read and some dropped before the last one.
    rng = np.random.default_rng(11)
    n, m = 512, 90
    if width is not None:
        monkeypatch.setattr(point_set, "_BLOCK_BYTES", 8 * n * width)
    cur = BundleElement(x=rng.standard_normal(n), f=0.0,
                        g=rng.standard_normal(n), birth=0)
    elements = [BundleElement(x=cur.x + rng.standard_normal(n) * 10.0 ** rng.integers(-8, 2),
                              f=0.0, g=rng.standard_normal(n), birth=j)
                for j in range(1, m)]
    ps = PointSet(cur)
    for e in elements[:40]:
        ps.add(e)
    ps.offsets()
    for e in elements[40:]:
        ps.add(e)
    model = [cur] + elements
    got = ps.offsets()
    for a, b in zip(got, _reference_offsets(cur, model)):
        assert np.array_equal(a, b)
    prune_by_age(ps, 60)
    model = [cur] + elements[-59:]
    for a, b in zip(ps.offsets(), _reference_offsets(cur, model)):
        assert np.array_equal(a, b)


def test_offsets_clear_when_the_current_iterate_changes():
    rng = np.random.default_rng(12)
    n = 5
    elements = [BundleElement(x=rng.standard_normal(n), f=0.0,
                              g=rng.standard_normal(n), birth=j) for j in range(4)]
    ps = PointSet(elements[0])
    for e in elements[1:3]:
        ps.add(e)
    ps.offsets()
    ps.set_current(elements[3])
    assert ps._q.size == 0
    for a, b in zip(ps.offsets(), _reference_offsets(elements[3], elements)):
        assert np.array_equal(a, b)
    assert ps.offsets()[0][3] == 0.0 and ps.offsets()[1][3] == 0.0


@pytest.mark.parametrize("far", [lambda j: j % 3 == 0, lambda j: j == 1],
                         ids=["every-third", "one-long-run"])
def test_prune_by_distance_copies_no_block(far):
    # One iteration's distance prune at n=4096, m=50 after a new iterate:
    # the offsets of every column are formed, the far columns are dropped
    # and the rest compacted in place, so the peak stays below half of one
    # n x m copy.  At least two thirds of the columns stay, so a copy of
    # those kept, or of one run of them, would exceed the bound too.
    rng = np.random.default_rng(13)
    n, m = 4096, 50
    centre = rng.standard_normal(n)
    ps = PointSet(BundleElement(x=centre, f=0.0, g=rng.standard_normal(n), birth=0))
    for j in range(1, m - 1):
        scale = 3.0 if far(j) else 1.0
        ps.add(BundleElement(x=centre + scale * rng.standard_normal(n),
                             f=0.0, g=rng.standard_normal(n), birth=j))
    ps.set_current(BundleElement(x=centre.copy(), f=0.0,
                                 g=rng.standard_normal(n), birth=m))
    want = [j for j in range(m) if j in (0, m - 1) or not far(j)]
    limit = 1.5 * np.sqrt(n)  # distances near sqrt(n) stay, 3 sqrt(n) go
    kept = (ps.X[:, want].copy(), ps.gradients()[:, want].copy(), ps.birth[want])
    tracemalloc.start()
    try:
        prune_by_distance(ps, limit, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(want) > 2 * m / 3
    assert np.array_equal(ps.X, kept[0]) and np.array_equal(ps.gradients(), kept[1])
    assert np.array_equal(ps.birth, kept[2])
    assert peak < n * m * 8 / 2


def test_carried_factor_products_follow_a_cutting_plane_run(monkeypatch):
    # Over one full-storage cutting-plane run at n = 200, the J'G that the
    # bundle carries across metric updates, additions and prunes matches a
    # fresh J'G to 1e-12 of its largest entry at every subproblem, and no
    # subproblem forms it afresh.
    from nsopt.problems import make_problem
    from nsopt.solver import run_solver

    products, carried = PointSet.gradient_products, []
    carry = QuasiNewtonState._carry

    def checked(self, qn):
        G, gtg, jtg = products(self, qn)
        fresh = qn.apply_Bt(np.array(G))
        assert gtg is None  # c = 0: G'WG does not read G'G
        assert np.max(np.abs(jtg - fresh)) <= 1e-12 * np.max(np.abs(fresh))
        return G, gtg, jtg

    def counted(self, P, since, G, *entering):
        out = carry(self, P, since, G, *entering)
        carried.append(out is not None)
        return out

    monkeypatch.setattr(PointSet, "gradient_products", checked)
    monkeypatch.setattr(QuasiNewtonState, "_carry", counted)
    prob = make_problem("ChainedLQ", 200)
    report = run_solver(prob.oracle, prob.x0,
                        SolverOptions(strategy="cutting_plane", delta_f=1e-5, n_f=10))
    assert report.termination_reason == "stationary"
    # one update at most between two subproblems: every one is carried
    assert all(carried) and len(carried) > 30


def test_factor_products_follow_columns_updates_and_states():
    # A seeded random walk of adds, prunes, zero to two metric updates
    # between reads and switches between two full-storage states: after
    # each step J'G matches a fresh J'G, whether it was carried across one
    # update or formed again after two or for the other state.
    rng = np.random.default_rng(8)
    n = 7
    states = [QuasiNewtonState(n), QuasiNewtonState(n, mode="DFP")]

    def elem(birth):
        return BundleElement(x=rng.standard_normal(n), f=0.0,
                             g=rng.standard_normal(n), birth=birth)

    ps = PointSet(elem(0))
    qn, widest = states[0], 1
    for k in range(1, 150):
        step = rng.choice(["add", "current", "age", "update", "switch"])
        if step == "add":
            for _ in range(rng.integers(1, 5)):
                ps.add(elem(k))
        elif step == "current":
            ps.set_current(elem(k))
        elif step == "age":
            prune_by_age(ps, int(rng.integers(1, len(ps) + 1)))
        elif step == "update":
            for _ in range(rng.integers(1, 3)):
                s = rng.standard_normal(n)
                qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
        else:
            qn = states[1] if qn is states[0] else states[0]
        G, _, jtg = ps.gradient_products(qn)
        fresh = qn.apply_Bt(np.array(G))
        assert np.allclose(jtg, fresh, rtol=0.0, atol=1e-12 * np.max(np.abs(fresh)))
        assert not jtg.flags.writeable
        widest = max(widest, len(ps))
    assert widest > 8 and all(state.version > 3 for state in states)


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_limited_products_ride_the_offsets_pass(monkeypatch, mode):
    # A seeded walk in the solver's order under limited storage: a metric
    # update (none, one or two), a new current handed the rows the update
    # brought in, the offsets pass (mostly), prunes, columns added after the
    # pass (samples, null-step trials), then the subproblem.  Over more
    # than 120 updates with a window of 3, which wrap the row buffer of
    # Psi' many times, the held P = Psi'G, G'G, the Gram matrix Psi'Psi,
    # G'WG and the step W (G omega + gamma) from the held M P match forms
    # from scratch, and the entering rows' products came from the pass
    # whenever it ran after the one update since the last subproblem.
    rng = np.random.default_rng(21)
    n = 9
    qn = QuasiNewtonState(n, mode=mode, storage="limited", history_limit=3)
    carry, rode = QuasiNewtonState._carry, []

    def watched(self, P, since, G, entering=None):
        rode.append(entering is not None and entering[0] == self.version
                    and since == self.version - 1)
        return carry(self, P, since, G, entering)

    monkeypatch.setattr(QuasiNewtonState, "_carry", watched)

    def elem(birth):
        return BundleElement(x=rng.standard_normal(n), f=0.0,
                             g=rng.standard_normal(n), birth=birth)

    ps = PointSet(elem(0))
    ps.gradient_products(qn)
    expected_rides = 0
    for k in range(1, 150):
        entering = None
        updates = rng.choice([0, 1, 1, 1, 1, 2])
        for _ in range(updates):
            s = rng.standard_normal(n)
            qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
            entering = qn.entering()
        ps.set_current(elem(k), entering)
        passed = rng.integers(4) > 0
        if passed:
            q = ps.offsets()[0]
            prune_by_distance(ps, float(np.quantile(np.sqrt(q), 0.9)), 1.0)
        if rng.integers(3) == 0:
            prune_by_age(ps, int(rng.integers(2, 12)))
        if rng.integers(3) == 0:
            for _ in range(rng.integers(1, 4)):
                ps.add(elem(k))
        expected_rides += bool(passed and updates == 1 and qn.version > 1)
        G, gtg, P = ps.gradient_products(qn)
        G = np.array(G)
        psi = _reference_basis(qn)
        assert np.allclose(P, psi.T @ G, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(psi.T @ G)))
        assert np.allclose(gtg, G.T @ G, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(G.T @ G)))
        assert np.allclose(qn._gram, psi.T @ psi, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(psi.T @ psi)))
        # the step from the held M P against a state formed afresh
        fresh = QuasiNewtonState(n, mode=mode, storage="limited",
                                 history_limit=qn.history_limit)
        for s, v in qn.pairs:
            fresh.update(s, v)
        data = SubproblemData(G=G, b=np.zeros(G.shape[1]), delta=1.0, qn=qn,
                              gtg=gtg, bt_g=P)
        omega = rng.dirichlet(np.ones(G.shape[1]))
        for gamma in (np.zeros(n), rng.standard_normal(n)):
            want = fresh.apply_W(G @ omega + gamma)
            got = data.model_step(omega, gamma)[0]
            assert np.allclose(got, want, rtol=0.0,
                               atol=1e-11 * np.max(np.abs(want)))
        want = G.T @ fresh.apply_W_matrix(G)
        assert np.allclose(data.gtwg, want, rtol=0.0,
                           atol=1e-11 * np.max(np.abs(want)))
    assert qn.version > 40 * qn.history_limit
    assert sum(rode) == expected_rides > 60


def test_rows_ride_only_the_first_pass_after_set_current():
    # The rows handed to set_current are formed with G by the offsets pass
    # that follows, over every column then in the bundle; the pass is the
    # one that recomputes the offsets, and a subproblem read drops its
    # products.  Under full storage nothing rides.
    rng = np.random.default_rng(22)
    n = 6
    full, limited = (QuasiNewtonState(n, storage=s) for s in ("full", "limited"))
    for qn in (full, limited):
        s = rng.standard_normal(n)
        qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
    assert full.entering() is None
    version, rows = limited.entering()
    assert version == limited.version and rows.flags.c_contiguous
    assert np.array_equal(rows, _reference_basis(limited).T)
    ps = PointSet(_elem(rng.standard_normal(n)))
    ps.set_current(_elem(rng.standard_normal(n)), limited.entering())
    assert ps._pass_rows is None  # no P held: nothing to carry
    for j in range(4):
        ps.add(BundleElement(x=rng.standard_normal(n), f=0.0,
                             g=rng.standard_normal(n), birth=j + 1))
    ps.gradient_products(limited)  # holds G'G: the current's row rides too
    cur = BundleElement(x=rng.standard_normal(n), f=0.0,
                        g=rng.standard_normal(n), birth=5)
    ps.set_current(cur, limited.entering())
    ps.offsets()
    tag, has_gtg_row, products = ps._pass_products
    G = np.array(ps.gradients())
    assert tag == limited.version and has_gtg_row
    assert np.allclose(products, np.vstack([rows, cur.g]) @ G, rtol=1e-14)
    m = len(ps)
    ps.add(BundleElement(x=rng.standard_normal(n), f=0.0,
                         g=rng.standard_normal(n), birth=6))
    ps.offsets()  # the new column's offsets only: nothing rides again
    assert ps._pass_products[2].shape == (3, m)
    ps.gradient_products(limited)
    assert ps._pass_products is None and ps._pass_rows is None
    ps.set_current(cur)  # no update: only the current's row of G'G rides
    assert ps._pass_rows[:2] == (None, True) and ps._pass_rows[2].shape == (1, n)
    assert PointSet(cur)._pass_rows is None  # no G'G held: nothing rides
