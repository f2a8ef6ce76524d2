"""Independent numerical certification of minimum entropy and informational power.

Nothing here presupposes the closed-form answers: the entropy minimum comes
from multi-restart projected gradient descent on the unit sphere, and the
informational power from an alternating scheme (discrete-channel capacity
iteration over a candidate state pool, plus gradient ascent on the retained
states).  The two searches meet in the certificate inequality
``I <= ln(k) - min H``.  For a covariant POVM the orbit of one minimum-entropy
state attains that bound, so the pool of a family with a displacement group
(:attr:`hoggar.sic.SicFamily.displacements`) is the orbit of the best state
of one restart batch.

Determinism: every restart owns a private pseudorandom stream derived from
``(seed, restart_index)``, so results are reproducible regardless of how the
batch is scheduled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .algebra import _plain
from .errors import InvalidArgumentError
from .infotheory import Ensemble, Measurement, _measurement, eta, mutual_information
from .sic import _projector, _projector_distances

GRAD_FLOOR = 1e-14
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
DEDUP_DISTANCE = 1e-6
PRUNE_TOL = 1e-9
MAX_OUTER = 25
REWEIGHT_MAX_ITERS = 20000
ASCENT_STEPS = 20
# sphere descent: iteration cap, first step, and the stopping tolerances on the
# gradient norm and on the change of value; STEP_INIT also starts the ascent
# polish and VALUE_TOL also ends the capacity rounds
MAX_ITERS = 5000
STEP_INIT = 0.1
GRAD_TOL = 1e-9
VALUE_TOL = 1e-13
# rows per block when Haar states are drawn and evaluated as a stream
ROW_BLOCK = 1024


def _is_integer(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.restarts):
            raise InvalidArgumentError(f"restarts must be an integer, got {self.restarts}")
        if self.restarts < 1:
            raise InvalidArgumentError("restarts must be >= 1")
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvalidArgumentError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search; ``best_state`` for entropy, ``best_ensemble`` for capacity.

    ``restart_values`` holds per-restart optima for the entropy search and the
    per-round capacity values for the ensemble search.  ``iterations_used``
    counts the descent iterations of the one restart batch both searches
    share, also when the capacity search reused it.  ``converged`` is the
    flag of the deciding solve (the best restart, or the final capacity
    iteration); ``capped_solves`` counts the capacity search's reweighting
    solves that stopped at ``REWEIGHT_MAX_ITERS`` without converging.  An
    entropy search also keeps its POVM and its whole restart batch (states,
    values, iteration counts, converged flags) in ``_first_batch``, for
    :func:`capacity_search` to reuse; the field is neither shown nor compared.
    """

    best_value: float
    iterations_used: int
    converged: bool
    restart_values: tuple[float, ...]
    best_state: np.ndarray | None = None
    best_ensemble: Ensemble | None = None
    upper_bound: float | None = None
    certificate_gap: float | None = None
    capped_solves: int = 0
    config: OptimizerConfig | None = field(default=None, repr=False)
    _first_batch: tuple | None = field(default=None, repr=False, compare=False)


def row_blocks(n):
    """Consecutive slices covering ``range(n)`` in order, each of at most ``ROW_BLOCK`` rows.

    A lone last row joins the block before it (8193 rows give seven blocks of
    1024, then 1023 + 2): a one-row outcome product runs through a
    matrix-vector kernel, whose last bits can differ from the same row of a
    matrix product.
    """
    starts = list(range(0, n, ROW_BLOCK))
    if n > 1 and n % ROW_BLOCK == 1:
        starts[-1] -= 1
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _normalize_rows(x):
    # the row norms as np.linalg.norm(x, axis=1) forms them, without its dispatch
    return x / np.sqrt(np.add.reduce((x.conj() * x).real, axis=1))[:, None]


def haar_blocks(d, rng, n):
    """Yield ``(rows, states)``: n Haar-uniform unit vectors, one :func:`row_blocks` slice at a time.

    Each block is one :func:`random_pure_state` call, so the rows and the
    final generator state are those of ``random_pure_state(d, rng, size=n)``
    in memory that does not grow with n.
    """
    rng = np.random.default_rng(rng)
    for rows in row_blocks(n):
        yield rows, random_pure_state(d, rng, rows.stop - rows.start)


def random_pure_state(d, rng, size=None):
    """Haar-uniform unit vector(s): normalized i.i.d. standard complex Gaussians.

    One ``standard_normal((size, 2, d))`` call gives each state its d real
    parts and then its d imaginary parts, so the first k rows of a draw are a
    size-k draw from the same generator, and a draw takes 2 * size * d normals.
    """
    if not _is_integer(d) or d < 2:
        raise InvalidArgumentError(f"dimension must be an integer >= 2, got {_plain(d)!r}")
    if size is not None and (not _is_integer(size) or size < 0):
        raise InvalidArgumentError(f"size must be a non-negative integer, got {size}")
    x = np.random.default_rng(rng).standard_normal((1 if size is None else int(size), 2, d))
    z = _normalize_rows(x[:, 0] + 1j * x[:, 1])
    return z[0] if size is None else z


def _entropy(m, psi_rows):
    """Measurement entropy of each row of ``psi_rows`` under the :class:`Measurement` ``m``."""
    p, _ = m.probabilities(psi_rows)
    return eta(p).sum(axis=1)


def _entropy_and_gradient(m, psi_rows):
    """Entropy of each row, its Riemannian gradient on the sphere and that gradient's squared norm."""
    psi_conj = psi_rows.conj()
    p, amps = m.probabilities_conj(psi_conj)
    slope = -(np.log(np.maximum(p, GRAD_FLOOR)) + 1.0)  # eta'(p), regularized at 0
    ambient = m.grad_scale * m.pullback(slope, amps)
    coeff = np.einsum("bi,bi->b", psi_conj, ambient)
    tangent = ambient - coeff[:, None] * psi_rows
    gnorm_sq = np.einsum("bi,bi->b", tangent, tangent.conj()).real
    return eta(p).sum(axis=1), tangent, gnorm_sq


# The descent minimizes the entropy of a plain Measurement; the acceptance
# suite builds its objective under this name.
_EntropyObjective = Measurement


def entropy_gradient(psi, povm):
    """Riemannian gradient of psi -> H(|psi><psi|, povm) at a unit vector.

    ``povm`` is a :class:`~hoggar.infotheory.Measurement`, or anything its
    constructor accepts.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if not np.isfinite(psi).all():
        raise InvalidArgumentError("state must be finite")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise InvalidArgumentError("state must be a unit vector")
    m = _measurement(povm)
    if psi.shape != (m.d,):
        raise InvalidArgumentError("state dimension does not match the POVM")
    _, tangent, _ = _entropy_and_gradient(m, psi[None, :])
    return tangent[0]


def _descend(m, psi_rows, cfg=None):
    """Projected gradient descent with Armijo backtracking, batched over rows.

    A row stops when its tangent-gradient norm drops below ``GRAD_TOL``, when
    two consecutive accepted steps change the value by less than ``VALUE_TOL``
    (both count as converged), or at ``MAX_ITERS`` (not converged).  ``cfg``
    is not used: the descent settings are module constants.

    The loop keeps a working set of the active rows only, in their original
    order, and writes a row's result out when it retires; the line search
    keeps its still-backtracking rows the same way.  So every evaluation
    takes exactly the rows that are still in play, never a subset of them: a
    one-row batch runs through a matrix-vector product, whose last bits can
    differ from the same row of a matrix product, and a lone row is
    evaluated alone only when it is the last one left.
    """
    psi = _normalize_rows(np.array(psi_rows, dtype=np.complex128))
    f = _entropy(m, psi)
    iters = np.zeros(len(psi), dtype=np.int64)
    converged = np.zeros(len(psi), dtype=bool)
    # the working set: original row numbers, states, values, steps and
    # small-change streaks; an active row has moved in every iteration so far
    rows, x, fx = np.arange(len(psi)), psi.copy(), f.copy()
    alpha = np.full(len(psi), STEP_INIT)
    streak = np.zeros(len(psi), dtype=np.int64)

    def retire(out, moves):
        """Write out the rows marked in ``out`` as converged and return the rest of the working set."""
        r = rows[out]
        psi[r], f[r], iters[r], converged[r] = x[out], fx[out], moves, True
        keep = ~out
        return rows[keep], x[keep], fx[keep], alpha[keep], streak[keep]

    for it in range(MAX_ITERS):
        if not rows.size:
            break
        fv, grad, g2 = _entropy_and_gradient(m, x)
        flat = np.sqrt(g2) < GRAD_TOL
        if flat.any():
            rows, x, fx, alpha, streak = retire(flat, it)
            if not rows.size:
                break
            fv, grad, g2 = fv[~flat], grad[~flat], g2[~flat]

        # backtrack the pending rows, at positions `pending` of the working set
        pending, base, step, direction, fp, gp = np.arange(rows.size), x, alpha, grad, fv, g2
        new_x, new_f, new_step = np.empty_like(x), np.empty_like(fx), np.empty_like(alpha)
        for _ls in range(MAX_BACKTRACKS):
            cand = _normalize_rows(base - step[:, None] * direction)
            fc = _entropy(m, cand)
            ok = fc <= fp - ARMIJO_C * step * gp
            if ok.all():
                new_x[pending], new_f[pending], new_step[pending] = cand, fc, step
                break
            if ok.any():
                hit, miss = pending[ok], ~ok
                new_x[hit], new_f[hit], new_step[hit] = cand[ok], fc[ok], step[ok]
                pending, base, step, direction, fp, gp = (
                    pending[miss], base[miss], step[miss], direction[miss], fp[miss], gp[miss]
                )
            step = step * ARMIJO_SHRINK
        else:
            # no acceptable step at float resolution; the iterate is as good as
            # it gets, so treat it as value-converged
            stalled = np.zeros(rows.size, dtype=bool)
            stalled[pending] = True
            rows, x, fx, alpha, streak = retire(stalled, it)
            moved = ~stalled
            new_x, new_f, new_step = new_x[moved], new_f[moved], new_step[moved]

        delta = fx - new_f
        x, fx = new_x, new_f
        alpha = np.minimum(new_step * 2.0, max(1.0, STEP_INIT))
        streak = np.where(delta < VALUE_TOL, streak + 1, 0)
        done = streak >= 2
        if done.any():
            rows, x, fx, alpha, streak = retire(done, it + 1)

    psi[rows], f[rows], iters[rows] = x, fx, MAX_ITERS
    return psi, f, iters, converged


def _restart_states(m, cfg, offset):
    """The restart batch: row i is :func:`random_pure_state` of the generator ``(seed, offset + i)``.

    The rows' normals fill one ``(restarts, 2, d)`` array, in the layout of a
    :func:`random_pure_state` draw, and are normalized together.
    """
    if m.d < 2:
        raise InvalidArgumentError("dimension must be >= 2")
    x = np.empty((cfg.restarts, 2, m.d))
    for i, parts in enumerate(x):
        np.random.default_rng((cfg.seed, offset + i)).standard_normal(out=parts)
    return _normalize_rows(x[:, 0] + 1j * x[:, 1])


def min_entropy_search(povm, cfg=None):
    """Multi-restart entropy minimization over pure states for a fixed POVM.

    ``povm`` is a :class:`~hoggar.infotheory.Measurement`, or anything its
    constructor accepts.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    m = _measurement(povm)
    psi, f, iters, conv = batch = _descend(m, _restart_states(m, cfg, 0))
    best = int(np.argmin(f))
    return SearchResult(
        best_value=float(f[best]),
        best_state=psi[best],
        iterations_used=int(iters.sum()),
        converged=bool(conv[best]),
        restart_values=tuple(float(x) for x in f),
        config=cfg,
        _first_batch=(povm, batch),
    )


@dataclass(frozen=True)
class BAResult:
    """Capacity iteration output with its built-in lower/upper capacity bounds."""

    prior: np.ndarray
    capacity: float
    lower: float
    upper: float
    converged: bool
    iterations: int
    lower_history: tuple[float, ...]


def blahut_arimoto(Q, tol=1e-12, max_iters=100000):
    """Capacity of a discrete memoryless channel given row-stochastic Q.

    Alternates the standard prior update and stops when the built-in bounds
    ``I(r) <= C <= max_i D(Q_i || q_r)`` pinch to within ``tol``.  The returned
    capacity is the lower bound, so it is within ``tol`` of the true value
    whenever ``converged`` is set.

    The iterates are bit-identical to the textbook update
    ``q = r Q``, ``D_i = sum_j Q_ij (ln Q_ij - ln q_j)``, ``r_i <- r_i exp(D_i)``.
    Only inside the two products ``r Q`` and ``r . D`` are subnormal prior
    entries replaced by 0: each such term lies below half an ulp of every
    partial sum it could join, so no bit of ``q`` or of the lower bound moves,
    while BLAS no longer takes its slow subnormal path.  The returned ``prior``
    keeps its subnormal entries.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] < 1:
        raise InvalidArgumentError("channel matrix must be 2-dimensional")
    if not np.isfinite(Q).all():
        raise InvalidArgumentError("channel matrix must be finite")
    if Q.min() < -1e-14:
        raise InvalidArgumentError("channel matrix has negative entries")
    Q = np.maximum(Q, 0.0)
    if np.abs(Q.sum(axis=1) - 1.0).max() > 1e-10:
        raise InvalidArgumentError("channel matrix rows must sum to 1 within 1e-10")

    m = Q.shape[0]
    log_q_cols = np.where(Q > 0, np.log(np.maximum(Q, 1e-300)), 0.0)
    # Q_ij * (ln Q_ij - ln q_j), formed in place; a zero Q_ij gives a +-0 term,
    # which leaves the row sum unchanged, so no Q > 0 mask is needed per step
    terms = np.empty_like(Q)
    tiny = np.finfo(np.float64).tiny
    r = np.full(m, 1.0 / m)
    history = []
    lower = 0.0
    upper = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        r_normal = np.where(r < tiny, 0.0, r)
        q = r_normal @ Q
        np.subtract(log_q_cols, np.log(np.maximum(q, 1e-300)), out=terms)
        np.multiply(Q, terms, out=terms)
        div = terms.sum(axis=1)
        lower = float(r_normal @ div)
        upper = float(div.max())
        history.append(lower)
        if upper - lower <= tol:
            converged = True
            break
        r = r * np.exp(div - upper)
        r /= r.sum()

    return BAResult(
        prior=r,
        capacity=lower,
        lower=lower,
        upper=upper,
        converged=converged,
        iterations=iterations,
        lower_history=tuple(history),
    )


VALUE_MARGIN = 1e-7


def _merge_lines(states, weights):
    """One state per line, in order; one within ``DEDUP_DISTANCE`` of kept lines adds its weight to the first."""
    kept, kept_weights = [], []
    projectors = np.empty((0, states.shape[1], states.shape[1]), dtype=np.complex128)
    for psi, w in zip(states, weights):
        proj = _projector(psi)
        near = np.flatnonzero(_projector_distances(projectors, proj) < DEDUP_DISTANCE)
        if near.size:
            kept_weights[near[0]] += w
        else:
            kept.append(psi)
            kept_weights.append(w)
            projectors = np.concatenate([projectors, proj[None]])
    return kept, kept_weights


def _ensemble_info(p_rows, weights):
    q = weights @ p_rows
    conditional = (weights * eta(p_rows).sum(axis=1)).sum()
    return float(eta(q).sum() - conditional)


def _ascend_states(obj, pool, weights):
    """Jacobi gradient-ascent polish of pool states at fixed weights."""
    psi, psi_conj = pool, pool.conj()
    alpha = STEP_INIT
    p, amps = obj.probabilities_conj(psi_conj)
    value = _ensemble_info(p, weights)
    for _ in range(ASCENT_STEPS):
        q = weights @ p
        rel = np.log(np.maximum(p, GRAD_FLOOR)) - np.log(np.maximum(q, GRAD_FLOOR))[None, :]
        ambient = (obj.grad_scale * weights[:, None]) * obj.pullback(rel, amps)
        coeff = np.einsum("bi,bi->b", psi_conj, ambient)
        tangent = ambient - coeff[:, None] * psi
        g2 = float(np.einsum("bi,bi->", tangent, tangent.conj()).real)
        if g2 < 1e-28:
            break
        accepted = False
        for _ls in range(MAX_BACKTRACKS):
            cand = _normalize_rows(psi + alpha * tangent)
            cand_conj = cand.conj()
            p_c, amps_c = obj.probabilities_conj(cand_conj)
            value_c = _ensemble_info(p_c, weights)
            if value_c >= value + ARMIJO_C * alpha * g2:
                psi, psi_conj, p, amps, value = cand, cand_conj, p_c, amps_c, value_c
                alpha = min(alpha * 2.0, max(1.0, STEP_INIT))
                accepted = True
                break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            break
    return psi, value


def _reweight(obj, pool):
    """Capacity-optimal weights on ``pool``, with states below ``PRUNE_TOL`` dropped.

    Returns the solve, the kept states, their renormalized weights and whether
    every state was kept.
    """
    ba = blahut_arimoto(obj.probabilities(pool)[0], tol=1e-13, max_iters=REWEIGHT_MAX_ITERS)
    keep = ba.prior >= PRUNE_TOL
    return ba, pool[keep], ba.prior[keep] / ba.prior[keep].sum(), bool(keep.all())


def capacity_search(povm, cfg=None, entropy=None):
    """Informational-power search: capacity iteration over a pool of pure states.

    ``povm`` is as in :func:`min_entropy_search`.  The pool comes from one
    restart batch of the entropy descent.  For a measurement of a
    :class:`~hoggar.sic.SicFamily` whose Hadamard matrix has a displacement
    group (:attr:`~hoggar.sic.SicFamily.displacements`), it is the orbit of the
    batch's best state under the d^2 displacements; for any other POVM, the batch's
    distinct converged minimizers within ``VALUE_MARGIN`` of its best value,
    plus 4*d^2 Haar-random states.  Each outer round reweights the pool with
    :func:`blahut_arimoto`, prunes negligible weights, and polishes the
    retained states by gradient ascent of the mutual information; a reweighting
    solve that stops at ``REWEIGHT_MAX_ITERS`` unconverged is counted in
    ``capped_solves``.  The final value is re-evaluated through
    :func:`hoggar.infotheory.mutual_information` and reported together with the
    certificate gap against ``ln k - min H`` from the entropy search.

    ``entropy``, a :func:`min_entropy_search` result for this same ``povm``
    object and an equal ``cfg``, supplies the first restart batch already
    descended; the result is the same as without it.  A result from another
    POVM or another configuration raises :class:`InvalidArgumentError`.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    first = None
    if entropy is not None:
        if entropy._first_batch is None:
            raise InvalidArgumentError("entropy must be a min_entropy_search result")
        source, first = entropy._first_batch
        if source is not povm:
            raise InvalidArgumentError("entropy result was computed for another POVM")
        if entropy.config != cfg:
            raise InvalidArgumentError("entropy result was computed with another OptimizerConfig")
    obj = _measurement(povm)
    d, k = obj.d, obj.k

    psi, f, iters, conv = first if first is not None else _descend(obj, _restart_states(obj, cfg, 0))
    best_min = float(f.min())
    group = obj.family.displacements if obj.family is not None else None
    if group is not None:
        pool = group.ops @ psi[np.argmin(f)]
    else:
        # the converged rows within VALUE_MARGIN of the best value, one per line: descent also finds
        # non-global local minima, which are no candidates for a maximally informative ensemble
        rows = np.flatnonzero(conv & (f <= f.min() + VALUE_MARGIN))
        minimizers, _ = _merge_lines(psi[rows], np.ones(rows.size))
        rng = np.random.default_rng((cfg.seed, 10**9))
        pool = np.vstack(minimizers + list(random_pure_state(d, rng, size=4 * d * d)))

    history = []
    capped = 0
    value_prev = -math.inf
    settled = False
    for _ in range(MAX_OUTER):
        ba, pool, weights, kept_all = _reweight(obj, pool)
        capped += not ba.converged
        value = _ensemble_info(obj.probabilities(pool)[0], weights)
        history.append(value)
        if abs(value - value_prev) < VALUE_TOL:
            # with nothing pruned, the final solve would repeat this one exactly
            settled = kept_all
            break
        value_prev = value
        pool, _ = _ascend_states(obj, pool, weights)
    if not settled:
        ba, pool, weights, _ = _reweight(obj, pool)
        capped += not ba.converged

    # merge numerically identical lines so the reported ensemble is minimal
    order = np.argsort(-weights)
    merged_states, merged_weights = _merge_lines(pool[order], weights[order])
    weights = np.array(merged_weights)
    ensemble = Ensemble(weights=weights / weights.sum(), states=tuple(merged_states))

    value = mutual_information(ensemble, obj)
    upper = math.log(k) - best_min
    return SearchResult(
        best_value=value,
        best_ensemble=ensemble,
        iterations_used=int(iters.sum()),
        converged=bool(ba.converged),
        restart_values=tuple(history),
        upper_bound=float(upper),
        certificate_gap=float(upper - value),
        capped_solves=capped,
        config=cfg,
    )
