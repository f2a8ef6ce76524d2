"""Independent numerical certification of minimum entropy and informational power.

Nothing here presupposes the closed-form answers: the entropy minimum comes
from multi-restart projected gradient descent on the unit sphere, and the
informational power from an alternating scheme (discrete-channel capacity
iteration over a candidate state pool, plus gradient ascent on the retained
states).  The two searches meet in the certificate inequality
``I <= ln(k) - min H``.

Determinism: every restart owns a private pseudorandom stream derived from
``(seed, restart_index)``, so results are reproducible regardless of how the
batch is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .infotheory import Ensemble, Measurement, eta, mutual_information

GRAD_FLOOR = 1e-14
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
DEDUP_DISTANCE = 1e-6
PRUNE_TOL = 1e-9
GAP_TARGET = 1e-9
MAX_BATCHES = 80
STAGNATION = 12
MAX_OUTER = 25
ASCENT_STEPS = 20


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 64
    max_iters: int = 5000
    step_init: float = 0.1
    grad_tol: float = 1e-9
    value_tol: float = 1e-13
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidArgumentError("restarts and max_iters must be >= 1")
        if self.step_init <= 0 or self.grad_tol <= 0 or self.value_tol <= 0:
            raise InvalidArgumentError("step and tolerances must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search; ``best_state`` for entropy, ``best_ensemble`` for capacity.

    ``restart_values`` holds per-restart optima for the entropy search and the
    per-round capacity values for the ensemble search.
    """

    best_value: float
    iterations_used: int
    converged: bool
    restart_values: tuple[float, ...]
    best_state: np.ndarray | None = None
    best_ensemble: Ensemble | None = None
    upper_bound: float | None = None
    certificate_gap: float | None = None
    config: OptimizerConfig | None = field(default=None, repr=False)


def random_pure_state(d, rng, size=None):
    """Haar-uniform unit vector(s): normalized i.i.d. standard complex Gaussians."""
    if d < 2:
        raise InvalidArgumentError("dimension must be >= 2")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z[0] if size is None else z


def _normalize_rows(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


class _EntropyObjective(Measurement):
    """Batched measurement-entropy value/gradient for a fixed POVM."""

    def value(self, psi_rows):
        p, _ = self.probabilities(psi_rows)
        return eta(p).sum(axis=1)

    def value_and_grad(self, psi_rows):
        p, amps = self.probabilities(psi_rows)
        slope = -(np.log(np.maximum(p, GRAD_FLOOR)) + 1.0)  # eta'(p), regularized at 0
        ambient = self.grad_scale * self.pullback(slope, psi_rows, amps)
        coeff = np.einsum("bi,bi->b", psi_rows.conj(), ambient)
        tangent = ambient - coeff[:, None] * psi_rows
        gnorm_sq = np.einsum("bi,bi->b", tangent, tangent.conj()).real
        return eta(p).sum(axis=1), tangent, gnorm_sq


def entropy_gradient(psi, povm):
    """Riemannian gradient of psi -> H(|psi><psi|, povm) at a unit vector."""
    psi = np.asarray(psi, dtype=np.complex128)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise InvalidArgumentError("state must be a unit vector")
    obj = _EntropyObjective(povm)
    _, tangent, _ = obj.value_and_grad(psi[None, :])
    return tangent[0]


def _descend(obj, psi_rows, cfg):
    """Projected gradient descent with Armijo backtracking, batched over rows.

    A row stops when its tangent-gradient norm drops below ``grad_tol``, when
    two consecutive accepted steps change the value by less than ``value_tol``
    (both count as converged), or at ``max_iters`` (not converged).
    """
    psi = _normalize_rows(np.array(psi_rows, dtype=np.complex128))
    b = psi.shape[0]
    f = obj.value(psi)
    alpha = np.full(b, cfg.step_init)
    iters = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=bool)
    active = np.ones(b, dtype=bool)
    small_streak = np.zeros(b, dtype=np.int64)

    for _ in range(cfg.max_iters):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        fv, grad, g2 = obj.value_and_grad(psi[idx])
        gnorm = np.sqrt(g2)
        flat = gnorm < cfg.grad_tol
        if flat.any():
            converged[idx[flat]] = True
            active[idx[flat]] = False
            idx = idx[~flat]
            if idx.size == 0:
                continue
            fv, grad, g2 = fv[~flat], grad[~flat], g2[~flat]

        a = alpha[idx].copy()
        new_psi = psi[idx].copy()
        new_f = fv.copy()
        pending = np.ones(idx.size, dtype=bool)
        for _ls in range(MAX_BACKTRACKS):
            if not pending.any():
                break
            rows = np.flatnonzero(pending)
            cand = _normalize_rows(psi[idx[rows]] - a[rows, None] * grad[rows])
            fc = obj.value(cand)
            ok = fc <= fv[rows] - ARMIJO_C * a[rows] * g2[rows]
            acc = rows[ok]
            new_psi[acc] = cand[ok]
            new_f[acc] = fc[ok]
            pending[acc] = False
            a[rows[~ok]] *= ARMIJO_SHRINK

        stalled = pending
        if stalled.any():
            # no acceptable step at float resolution; the iterate is as good as
            # it gets, so treat it as value-converged
            converged[idx[stalled]] = True
            active[idx[stalled]] = False

        moved = ~stalled
        rows = idx[moved]
        delta = f[rows] - new_f[moved]
        psi[rows] = new_psi[moved]
        f[rows] = new_f[moved]
        iters[rows] += 1
        alpha[rows] = np.minimum(a[moved] * 2.0, max(1.0, cfg.step_init))

        small = delta < cfg.value_tol
        small_streak[rows[small]] += 1
        small_streak[rows[~small]] = 0
        done = rows[small_streak[rows] >= 2]
        converged[done] = True
        active[done] = False

    return psi, f, iters, converged


def _restart_states(obj, cfg, offset):
    rows = [
        random_pure_state(obj.d, np.random.default_rng((cfg.seed, offset + i)))
        for i in range(cfg.restarts)
    ]
    return np.vstack(rows)


def min_entropy_search(povm, cfg=None):
    """Multi-restart entropy minimization over pure states for a fixed POVM."""
    cfg = cfg if cfg is not None else OptimizerConfig()
    obj = _EntropyObjective(povm)
    psi, f, iters, conv = _descend(obj, _restart_states(obj, cfg, 0), cfg)
    best = int(np.argmin(f))
    return SearchResult(
        best_value=float(f[best]),
        best_state=psi[best],
        iterations_used=int(iters.sum()),
        converged=bool(conv[best]),
        restart_values=tuple(float(x) for x in f),
        config=cfg,
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


def _deficit_spectrum(obj, minimizers):
    """Eigen-decomposition of sum_j max(1/k - q_j, 0) * E_j for the current pool.

    ``q`` is the outcome distribution of the *uniform* mixture of collected
    minimizers: against that reference the deficit concentrates exactly on the
    outcomes only missing minimizers can cover (a capacity-optimal reweighting
    would smear it out).  A minimum-entropy state whose whole outcome mass
    sits on under-covered outcomes lives in the top eigenspace of this
    operator, so random states drawn from that eigenspace steer later restarts
    toward minimizers the pool is still missing.
    """
    p_rows, _ = obj.probabilities(np.vstack(minimizers))
    q = p_rows.mean(axis=0)
    deficit = np.maximum(1.0 / obj.k - q, 0.0)
    if deficit.sum() < 1e-15:
        return None
    vals, vecs = np.linalg.eigh(obj.operator(deficit))
    top = vals >= max(vals[-1] * 0.2, 1e-15)
    return np.maximum(vals[top], 0.0), vecs[:, top]


def _deficit_starts(spectrum, count, d, rng):
    """Random eigenvalue-weighted states in the deficit eigenspace, plus noise.

    Cubing the normalized eigenvalues concentrates draws near the strongest
    deficit directions while leaving enough spread to cover a degenerate top
    eigenspace.
    """
    vals, vecs = spectrum
    weights = (vals / vals.max()) ** 3
    z = rng.standard_normal((count, len(vals))) + 1j * rng.standard_normal((count, len(vals)))
    states = (z * np.sqrt(weights)) @ vecs.T
    states += 1e-3 * (rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d)))
    return _normalize_rows(states)


def _projector(x):
    """Rank-one projector of ``x``, formed as :func:`hoggar.sic.projector_distance` forms it."""
    x = np.asarray(x, dtype=np.complex128)
    x = x / np.linalg.norm(x)
    return np.outer(x, x.conj())


def _projector_distances(projectors, proj):
    """:func:`hoggar.sic.projector_distance` from each of a ``(n, d, d)`` stack to ``proj``.

    The entrywise differences and their exact maximum are the same float
    operations, so every comparison against ``DEDUP_DISTANCE`` agrees.
    """
    return np.abs(projectors - proj).max(axis=(1, 2))


def _collect_minimizers(obj, cfg):
    """Gather the distinct global entropy minimizers by repeated restart batches.

    Only converged states within ``VALUE_MARGIN`` of the running best value are
    kept (descent also finds non-global local minima; those are not candidates
    for a maximally informative ensemble built from minimizers).  Batches
    continue until the certificate gap against the capacity of the collected
    pool drops below ``GAP_TARGET``, or ``STAGNATION`` consecutive batches add
    nothing new, or ``MAX_BATCHES`` is exhausted.  The gap is the honest stop
    signal: it collapses exactly when the collected minimizers support a
    capacity-achieving ensemble.  After an unproductive batch, half of the
    next batch restarts from perturbed coverage-deficit directions instead of
    fresh Haar draws.
    """
    minimizers = []
    projectors = np.empty((0, obj.d, obj.d), dtype=np.complex128)
    values = []
    best_value = math.inf
    total_iters = 0
    no_new = 0
    spectrum = None
    for batch in range(MAX_BATCHES):
        starts = _restart_states(obj, cfg, batch * cfg.restarts)
        if spectrum is not None:
            rng = np.random.default_rng((cfg.seed, 2**40 + batch))
            directed = starts.shape[0] // 2
            starts[:directed] = _deficit_starts(spectrum, directed, obj.d, rng)
        psi, f, iters, conv = _descend(obj, starts, cfg)
        total_iters += int(iters.sum())
        batch_best = float(f.min())
        if batch_best < best_value - VALUE_MARGIN:
            keep = [i for i, val in enumerate(values) if val <= batch_best + VALUE_MARGIN]
            minimizers = [minimizers[i] for i in keep]
            projectors = projectors[keep]
            values = [values[i] for i in keep]
        best_value = min(best_value, batch_best)
        added = 0
        for row in np.flatnonzero(conv & (f <= best_value + VALUE_MARGIN)):
            proj = _projector(psi[row])
            if (_projector_distances(projectors, proj) >= DEDUP_DISTANCE).all():
                minimizers.append(psi[row])
                projectors = np.concatenate([projectors, proj[None]])
                values.append(float(f[row]))
                added += 1
        no_new = 0 if added else no_new + 1
        p_rows, _ = obj.probabilities(np.vstack(minimizers))
        ba = blahut_arimoto(p_rows, tol=1e-10, max_iters=5000)
        gap = (math.log(obj.k) - best_value) - ba.capacity
        if gap <= GAP_TARGET or no_new >= STAGNATION:
            break
        if len(minimizers) >= 8 * obj.k:
            break  # minima form a continuum; the pool is already ample
        spectrum = _deficit_spectrum(obj, minimizers)
    return minimizers, best_value, total_iters


def _ensemble_info(p_rows, weights):
    q = weights @ p_rows
    conditional = (weights * eta(p_rows).sum(axis=1)).sum()
    return float(eta(q).sum() - conditional)


def _ascend_states(obj, pool, weights, steps, step_init):
    """Jacobi gradient-ascent polish of pool states at fixed weights."""
    psi = pool.copy()
    alpha = step_init
    p, amps = obj.probabilities(psi)
    value = _ensemble_info(p, weights)
    for _ in range(steps):
        q = weights @ p
        rel = np.log(np.maximum(p, GRAD_FLOOR)) - np.log(np.maximum(q, GRAD_FLOOR))[None, :]
        ambient = (obj.grad_scale * weights[:, None]) * obj.pullback(rel, psi, amps)
        coeff = np.einsum("bi,bi->b", psi.conj(), ambient)
        tangent = ambient - coeff[:, None] * psi
        g2 = float(np.einsum("bi,bi->", tangent, tangent.conj()).real)
        if g2 < 1e-28:
            break
        accepted = False
        for _ls in range(MAX_BACKTRACKS):
            cand = _normalize_rows(psi + alpha * tangent)
            p_c, amps_c = obj.probabilities(cand)
            value_c = _ensemble_info(p_c, weights)
            if value_c >= value + ARMIJO_C * alpha * g2:
                psi, p, amps, value = cand, p_c, amps_c, value_c
                alpha = min(alpha * 2.0, max(1.0, step_init))
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
    ba = blahut_arimoto(obj.probabilities(pool)[0], tol=1e-13, max_iters=20000)
    keep = ba.prior >= PRUNE_TOL
    return ba, pool[keep], ba.prior[keep] / ba.prior[keep].sum(), bool(keep.all())


def capacity_search(povm, cfg=None):
    """Informational-power search: capacity iteration over a pool of pure states.

    The pool starts from the distinct entropy minimizers found by restart
    batches (run until the certificate gap collapses or the batches stagnate),
    one perturbed copy of each, and 4*d^2 Haar-random states.  Each outer round
    reweights the pool with :func:`blahut_arimoto`, prunes negligible weights,
    and polishes the retained states by gradient ascent of the mutual
    information.  The final value is re-evaluated through
    :func:`hoggar.infotheory.mutual_information` and reported together with the
    certificate gap against ``ln k - min H`` from the entropy search.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    obj = _EntropyObjective(povm)
    d, k = obj.d, obj.k

    minimizers, best_min, total_iters = _collect_minimizers(obj, cfg)
    rng = np.random.default_rng((cfg.seed, 10**9))
    pool = list(minimizers)
    for s in minimizers:
        noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        pool.append((s + 1e-4 * noise) / np.linalg.norm(s + 1e-4 * noise))
    pool.extend(random_pure_state(d, rng, size=4 * d * d))
    pool = np.vstack(pool)

    history = []
    value_prev = -math.inf
    settled = False
    for _ in range(MAX_OUTER):
        ba, pool, weights, kept_all = _reweight(obj, pool)
        value = _ensemble_info(obj.probabilities(pool)[0], weights)
        history.append(value)
        if abs(value - value_prev) < cfg.value_tol:
            # with nothing pruned, the final solve would repeat this one exactly
            settled = kept_all
            break
        value_prev = value
        pool, _ = _ascend_states(obj, pool, weights, ASCENT_STEPS, cfg.step_init)
    if not settled:
        ba, pool, weights, _ = _reweight(obj, pool)

    # merge numerically identical lines so the reported ensemble is minimal
    order = np.argsort(-weights)
    merged_states, merged_weights = [], []
    projectors = np.empty((0, d, d), dtype=np.complex128)
    for i in order:
        proj = _projector(pool[i])
        near = np.flatnonzero(_projector_distances(projectors, proj) < DEDUP_DISTANCE)
        if near.size:
            merged_weights[near[0]] += weights[i]
        else:
            merged_states.append(pool[i])
            merged_weights.append(weights[i])
            projectors = np.concatenate([projectors, proj[None]])
    weights = np.array(merged_weights)
    ensemble = Ensemble(weights=weights / weights.sum(), states=tuple(merged_states))

    value = mutual_information(ensemble, povm)
    upper = math.log(k) - best_min
    return SearchResult(
        best_value=value,
        best_ensemble=ensemble,
        iterations_used=total_iters,
        converged=bool(ba.converged),
        restart_values=tuple(history),
        upper_bound=float(upper),
        certificate_gap=float(upper - value),
        config=cfg,
    )
