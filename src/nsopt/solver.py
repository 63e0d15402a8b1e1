"""Outer minimization loop: sampling, direction, line search, bundle and
metric maintenance, radius schedule, and termination.

The objective is scaled once at the start so the initial gradient max-norm is
at most 1e2; all internal quantities are in the scaled objective, and the
report converts back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .control import StallCounter, init_radii, update_radii
from .direction import SubproblemFailure, compute_direction
from .line_search import LineSearchError, backtracking_armijo, weak_wolfe
from .oracle import CountingOracle, ObjectiveOracle, scale_objective
from .options import SolverOptions
from .point_set import (BundleElement, PointSet, prune_by_age, prune_by_distance,
                        sample_ball)
from .quasi_newton import QuasiNewtonState, damp

_UNBOUNDED_BELOW = -1e18
_DEGENERATE_MODEL = 1e-20


@dataclass
class SolverReport:
    x: np.ndarray
    final_f_unscaled: float
    # stationary | iteration_limit | objective_unbounded | line_search_failure
    # | subproblem_failure (both QP solvers failed)
    termination_reason: str
    iterations: int
    function_evaluations: int
    gradient_evaluations: int
    cpu_seconds: float
    scale: float
    eps_final: float
    delta_final: float
    f_history: list[float] = field(default_factory=list)  # unscaled, accepted iterates
    qp_fallbacks: int = 0  # QPs handed to the IPM after the active-set solver failed


def _finite_samples(x: np.ndarray, eps: float, p: int, limit: int, f,
                    rng: np.random.Generator):
    """The first ``limit`` points with finite f of at most p drawn uniformly
    from the ball of radius eps around x (``sample_ball``), as the columns
    of a block, with their values.

    min(limit, p) points are drawn and f, which takes a block, is evaluated
    on them; more are drawn only as non-finite values leave places open, up
    to p draws in all.  The points kept are iid uniform over the ball.
    """
    X, f_X, drawn = np.empty((x.size, 0)), np.empty(0), 0
    while limit > 0 and drawn < p:
        k = min(limit, p - drawn)
        block = sample_ball(x, eps, k, rng)
        f_block = f(block)
        drawn += k
        finite = np.isfinite(f_block)
        if not finite.all():
            block, f_block = block[:, finite], f_block[finite]
        limit -= f_block.size
        if f_X.size:
            block, f_block = np.hstack([X, block]), np.concatenate([f_X, f_block])
        X, f_X = block, f_block
    return X, f_X


def run_solver(oracle: ObjectiveOracle, x1: np.ndarray,
               options: SolverOptions | None = None) -> SolverReport:
    opts = options or SolverOptions()
    start = time.process_time()
    rng = np.random.default_rng(opts.seed)
    n = oracle.dimension
    x = np.asarray(x1, dtype=float).copy()
    if x.size != n:
        raise ValueError("starting point dimension mismatch")

    ev = CountingOracle(oracle, scale=1.0)
    f = ev.f(x)
    if not np.isfinite(f):
        raise ValueError("objective must be finite at the starting point")
    g = ev.g(x)
    scale = scale_objective(g)
    ev.scale = scale
    f *= scale
    g = g * scale

    qn = QuasiNewtonState(n, mode=opts.qn_mode, storage=opts.qn_storage,
                          history_limit=opts.history_limit)
    radii = init_radii(g)
    stall = StallCounter(tolerance=opts.delta_f)
    current = BundleElement(x=x, f=f, g=g, birth=0)
    bundle = PointSet(current)
    f_history = [f / scale]
    p = opts.samples_per_iteration(n)
    bundle_cap = opts.bundle_limit(n)
    termination = "iteration_limit"
    iterations = 0
    null_steps = 0  # consecutive line-search failures answered by enrichment
    qp_fallbacks = 0

    for k in range(1, opts.iteration_limit + 1):
        iterations = k
        if p > 0:
            # at most cap - 1 samples can stay, so only those are drawn.
            # They are newer than every element, so pruning to make room
            # for them first keeps what pruning after would.
            X_s, f_s = _finite_samples(current.x, radii.eps, p, bundle_cap - 1,
                                       ev.f, rng)
            G_s = ev.g(X_s) if f_s.size else X_s
            prune_by_age(bundle, bundle_cap - f_s.size)
            bundle.add(BundleElement(x=X_s, f=f_s, g=G_s, birth=k))

        try:
            result = compute_direction(bundle, qn, radii.delta, opts)
        except SubproblemFailure:
            qp_fallbacks += 1
            termination = "subproblem_failure"
            break
        qp_fallbacks += result.fallback

        if result.model_norm_sq <= _DEGENERATE_MODEL:
            # stationary for the current model: no usable step, shrink radii
            new_radii, stationary = update_radii(radii, (0.0, 0.0, 0.0), True,
                                                 opts.eps_min)
            if stationary:
                termination = "stationary"
                break
            radii = new_radii
            stall.count = 0
            prune_by_distance(bundle, radii.eps, opts.envelope_factor)
            continue

        search = weak_wolfe if opts.line_search == "weak_wolfe" else backtracking_armijo
        try:
            ls = search(ev, current.x, current.f, result.d, result.model_norm_sq, opts)
        except LineSearchError:
            # Null step: the model direction gave no decrease, so enrich the
            # bundle with a nearby trial gradient and recompute the direction
            # without moving.  The single-gradient strategy cannot benefit
            # (its model ignores the bundle), so it terminates immediately.
            if opts.strategy == "gradient" or null_steps >= bundle_cap:
                termination = "line_search_failure"
                break
            null_steps += 1
            t = min(opts.ls_initial,
                    radii.eps / max(float(np.linalg.norm(result.d)), 1e-12))
            added = False
            for _ in range(20):
                x_t = current.x + t * result.d
                f_t = ev.f(x_t)
                if np.isfinite(f_t):
                    bundle.add(BundleElement(x=x_t, f=f_t, g=ev.g(x_t), birth=k))
                    prune_by_age(bundle, bundle_cap)
                    added = True
                    break
                t *= 0.5
            if not added:
                termination = "line_search_failure"
                break
            # a null step leaves f as it is, which the stall counter counts
            stall.observe(current.f, current.f)
            if stall.count >= opts.n_f:
                radii, stationary = update_radii(radii, result.inf_norms, True,
                                                 opts.eps_min)
                if stationary:
                    termination = "stationary"
                    break
                stall.count = 0
                prune_by_distance(bundle, radii.eps, opts.envelope_factor)
            continue
        null_steps = 0

        stall.observe(current.f, ls.f_next)
        new_radii, stationary = update_radii(radii, result.inf_norms,
                                             stall.count >= opts.n_f, opts.eps_min)
        if new_radii.eps < radii.eps:
            stall.count = 0
        radii = new_radii

        s = ls.x_next - current.x
        entering = None
        if float(s @ s) > 0.0:
            if result.hint is not None:
                # An update given a hint reads the step's direction off it,
                # so it takes the step as alpha d, of which x_next - x is
                # the rounding.  On a step of the order of that rounding,
                # x_next - x points elsewhere and that reading is wrong.
                s = ls.alpha * result.d
            _, v = damp(s, ls.g_next - current.g, opts.eta, opts.psi)
            qn.update(s, v, result.hint)
            entering = qn.entering()

        # the update reads nothing of the bundle, so it comes first: the
        # offsets pass of distance pruning then forms the products with G of
        # the rows that it brought into the metric
        nxt = BundleElement(x=ls.x_next, f=ls.f_next, g=ls.g_next, birth=k)
        bundle.set_current(nxt, entering)
        prune_by_distance(bundle, radii.eps, opts.envelope_factor)
        if p == 0:
            # with samples, the next iteration's age prune evicts these too,
            # before anything reads the bundle
            prune_by_age(bundle, bundle_cap)
        current = nxt
        f_history.append(current.f / scale)

        if current.f <= _UNBOUNDED_BELOW:
            termination = "objective_unbounded"
            break
        if stationary:
            termination = "stationary"
            break

    return SolverReport(
        x=current.x.copy(),
        final_f_unscaled=current.f / scale,
        termination_reason=termination,
        iterations=iterations,
        function_evaluations=ev.function_evaluations,
        gradient_evaluations=ev.gradient_evaluations,
        cpu_seconds=time.process_time() - start,
        scale=scale,
        eps_final=radii.eps,
        delta_final=radii.delta,
        f_history=f_history,
        qp_fallbacks=qp_fallbacks,
    )
