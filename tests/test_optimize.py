import math

import numpy as np
import pytest

from hoggar import (
    InvalidArgumentError,
    OptimizerConfig,
    blahut_arimoto,
    capacity_search,
    entropy_gradient,
    min_entropy_search,
    outcome_distribution,
    outcome_matrix,
    projector_distance,
    random_pure_state,
    shannon_entropy,
)
from hoggar.infotheory import eta
from hoggar.optimize import ROW_BLOCK, row_blocks


def entropy_of(psi, fam):
    return shannon_entropy(outcome_distribution(psi, fam))


def test_random_pure_state_determinism():
    a = random_pure_state(8, np.random.default_rng((1, 0)))
    b = random_pure_state(8, np.random.default_rng((1, 0)))
    assert np.array_equal(a, b)
    c = random_pure_state(8, np.random.default_rng((1, 1)))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 10**6]
)
def test_row_blocks_cover_rows_without_lone_tail(n):
    blocks = row_blocks(n)
    covered = [i for rows in blocks for i in range(n)[rows]]
    assert covered == list(range(n))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert all(1 <= size <= ROW_BLOCK for size in sizes)
    assert n == 1 or 1 not in sizes


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("size", [None, 1, 2, 8191, 8192, 8193, 24577])
def test_random_pure_state_matches_one_shot_draw(d, size, one_shot_haar):
    streamed_rng, one_shot_rng = np.random.default_rng((5, d)), np.random.default_rng((5, d))
    streamed = random_pure_state(d, streamed_rng, size=size)
    expected = one_shot_haar(d, one_shot_rng, size=size)
    assert streamed.shape == expected.shape
    assert np.array_equal(streamed.view(np.float64), expected.view(np.float64))
    assert streamed_rng.bit_generator.state == one_shot_rng.bit_generator.state


def test_random_pure_state_checks_size():
    for size in (-1, 2.5, "3", True):
        with pytest.raises(InvalidArgumentError, match="size must be a non-negative integer"):
            random_pure_state(3, 1, size=size)
    assert random_pure_state(3, 1, size=0).shape == (0, 3)
    assert random_pure_state(3, 1, size=np.int64(2)).shape == (2, 3)


def test_random_pure_state_moments(rng):
    samples = random_pure_state(8, rng, size=100000)
    norms = np.linalg.norm(samples, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14
    first = np.abs(samples[:, 0]) ** 2
    se = first.std(ddof=1) / math.sqrt(len(first))
    assert abs(first.mean() - 1 / 8) <= 3 * se


def test_entropy_gradient_tangency(hoggar_v, rng):
    for _ in range(10):
        psi = random_pure_state(8, rng)
        grad = entropy_gradient(psi, hoggar_v)
        assert abs(np.vdot(psi, grad).real) < 1e-12


def test_entropy_gradient_finite_difference(hoggar_v, rng):
    h = 1e-6
    for _ in range(100):
        psi = random_pure_state(8, rng)
        grad = entropy_gradient(psi, hoggar_v)
        direction = grad / np.linalg.norm(grad)
        fwd = psi + h * direction
        bwd = psi - h * direction
        fd = (
            entropy_of(fwd / np.linalg.norm(fwd), hoggar_v)
            - entropy_of(bwd / np.linalg.norm(bwd), hoggar_v)
        ) / (2 * h)
        analytic = np.vdot(direction, grad).real
        assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1e-3)


def test_entropy_gradient_vanishes_at_twin(hoggar_v, hoggar_vbar):
    grad = entropy_gradient(hoggar_vbar.states[7], hoggar_v)
    assert np.linalg.norm(grad) < 1e-6


def test_min_entropy_hoggar(hoggar_v, hoggar_vbar):
    cfg = OptimizerConfig(restarts=64, seed=1)
    result = min_entropy_search(hoggar_v, cfg)
    assert result.converged
    assert result.best_value == pytest.approx(math.log(36), abs=1e-8)
    assert abs(entropy_of(result.best_state, hoggar_v) - result.best_value) < 1e-12
    # the optimum state is one of the twins
    best_dist = min(projector_distance(result.best_state, t) for t in hoggar_vbar.states)
    assert best_dist < 1e-6


def test_min_entropy_minimizer_recovery(hoggar_v, hoggar_vbar):
    # every restart that attained the global minimum is a twin with the
    # 28-zero / 1-36 outcome pattern
    from hoggar.optimize import _EntropyObjective, _descend, _restart_states

    cfg = OptimizerConfig(restarts=64, seed=1)
    obj = _EntropyObjective(hoggar_v)
    psi, f, _, conv = _descend(obj, _restart_states(obj, cfg, 0), cfg)
    winners = np.flatnonzero(conv & (np.abs(f - f.min()) < 1e-8))
    assert winners.size > 0
    for row in winners:
        dist = outcome_distribution(psi[row], hoggar_v)
        assert dist.zero_count == 28
        nonzero = dist.probs[dist.probs >= 1e-10]
        assert np.abs(nonzero - 1 / 36).max() < 1e-7
        assert min(projector_distance(psi[row], t) for t in hoggar_vbar.states) < 1e-6


def test_min_entropy_tetrahedral(tetra_v):
    cfg = OptimizerConfig(restarts=64, seed=1)
    result = min_entropy_search(tetra_v, cfg)
    assert result.best_value == pytest.approx(math.log(3), abs=1e-8)


def test_min_entropy_computational_basis():
    effects = np.zeros((8, 8, 8), dtype=complex)
    for i in range(8):
        effects[i, i, i] = 1.0
    cfg = OptimizerConfig(restarts=16, seed=3)
    result = min_entropy_search(effects, cfg)
    assert abs(result.best_value) < 1e-8
    assert np.sort(np.abs(result.best_state))[-1] == pytest.approx(1.0, abs=1e-6)


def test_min_entropy_seed_determinism(hoggar_v):
    cfg = OptimizerConfig(restarts=16, seed=5)
    r1 = min_entropy_search(hoggar_v, cfg)
    r2 = min_entropy_search(hoggar_v, cfg)
    assert r1.restart_values == r2.restart_values
    assert np.array_equal(r1.best_state, r2.best_state)


def test_blahut_arimoto_identity():
    result = blahut_arimoto(np.eye(2))
    assert result.capacity == pytest.approx(math.log(2), abs=1e-12)
    assert np.abs(result.prior - 0.5).max() < 1e-12
    assert result.converged


def test_blahut_arimoto_identical_rows():
    result = blahut_arimoto(np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]]))
    assert result.capacity == pytest.approx(0.0, abs=1e-14)


def test_blahut_arimoto_bsc():
    flip = 0.1
    q = np.array([[1 - flip, flip], [flip, 1 - flip]])
    result = blahut_arimoto(q, tol=1e-13)
    closed_form = math.log(2) - float(eta([flip, 1 - flip]).sum())
    assert result.capacity == pytest.approx(closed_form, abs=1e-9)
    assert result.converged


def test_blahut_arimoto_grid_oracle(rng):
    # brute-force prior sweep for a random 2-input channel
    q = rng.random((2, 3))
    q /= q.sum(axis=1)[:, None]

    grid = np.linspace(0, 1, 200001)
    joint = np.stack([grid, 1 - grid], axis=1)[:, :, None] * q  # (point, input, output)
    info = eta(joint.sum(1)).sum(1) + eta(joint.sum(2)).sum(1) - eta(joint).sum((1, 2))
    brute = info.max()
    result = blahut_arimoto(q, tol=1e-12)
    assert result.capacity == pytest.approx(brute, abs=1e-8)


def test_blahut_arimoto_monotone_lower_bounds(rng):
    q = rng.random((5, 7))
    q /= q.sum(axis=1)[:, None]
    result = blahut_arimoto(q, tol=1e-13)
    history = np.array(result.lower_history)
    assert (np.diff(history) >= -1e-14).all()
    assert result.upper - result.lower <= 1e-13


def _seed_blahut_arimoto(Q, tol, max_iters):
    """The textbook loop the kernel must match bit for bit (unmasked, fresh temporaries)."""
    from hoggar.optimize import BAResult

    Q = np.maximum(np.asarray(Q, dtype=np.float64), 0.0)
    m = Q.shape[0]
    log_q_cols = np.where(Q > 0, np.log(np.maximum(Q, 1e-300)), 0.0)
    r = np.full(m, 1.0 / m)
    history = []
    lower = 0.0
    upper = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        q = r @ Q
        rel = np.where(Q > 0, log_q_cols - np.log(np.maximum(q, 1e-300)), 0.0)
        div = (Q * rel).sum(axis=1)
        lower = float(r @ div)
        upper = float(div.max())
        history.append(lower)
        if upper - lower <= tol:
            converged = True
            break
        r = r * np.exp(div - upper)
        r /= r.sum()
    return BAResult(r, lower, lower, upper, converged, iterations, tuple(history))


def test_blahut_arimoto_bit_identical_with_subnormal_priors(tetra_v, tetra_vbar):
    # twins plus random states under the tetrahedral SIC: seven priors decay
    # into the subnormal range before the bounds pinch at ~7000 iterations
    pool = np.vstack([tetra_vbar.states, random_pure_state(2, np.random.default_rng(8), size=12)])
    channel = outcome_matrix(pool, tetra_v)
    for layout in (np.ascontiguousarray(channel), np.asfortranarray(channel)):
        ref = _seed_blahut_arimoto(layout, tol=1e-13, max_iters=20000)
        assert ((ref.prior > 0) & (ref.prior < np.finfo(float).tiny)).any()
        got = blahut_arimoto(layout, tol=1e-13, max_iters=20000)
        assert np.array_equal(got.prior, ref.prior)
        assert np.array_equal(got.lower_history, ref.lower_history)
        assert got.upper == ref.upper
        assert got.capacity == ref.capacity
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged


def test_cached_projector_dedup_matches_projector_distance():
    from hoggar.optimize import DEDUP_DISTANCE, _projector, _projector_distances

    rng = np.random.default_rng(5)
    bases = random_pure_state(8, rng, size=6)
    candidates = []
    for x in bases:
        z = random_pure_state(8, rng)
        lo, hi = 0.0, 1e-4  # bisect the perturbation size onto the threshold
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if projector_distance(x + mid * z, x) < DEDUP_DISTANCE:
                lo = mid
            else:
                hi = mid
        candidates += [x + lo * z, x + hi * z]
    sides = [projector_distance(c, x) < DEDUP_DISTANCE for c, x in zip(candidates, np.repeat(bases, 2, 0))]
    assert sides == [True, False] * len(bases)

    pool = list(bases) + candidates
    order = np.random.default_rng(6).permutation(len(pool))
    kept_ref, kept, projectors = [], [], np.empty((0, 8, 8), dtype=np.complex128)
    for i in order:
        ref_dist = np.array([projector_distance(pool[i], pool[j]) for j in kept_ref])
        if all(dist >= DEDUP_DISTANCE for dist in ref_dist):
            kept_ref.append(i)
        proj = _projector(pool[i])
        dist = _projector_distances(projectors, proj)
        assert np.array_equal(dist, ref_dist.reshape(dist.shape))
        if (dist >= DEDUP_DISTANCE).all():
            kept.append(i)
            projectors = np.concatenate([projectors, proj[None]])
    assert kept == kept_ref
    assert len(bases) < len(kept) < len(pool)


def test_blahut_arimoto_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        blahut_arimoto(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(InvalidArgumentError):
        blahut_arimoto(np.array([0.5, 0.5]))


def test_capacity_search_tetrahedral(tetra_v):
    cfg = OptimizerConfig(restarts=64, seed=1)
    result = capacity_search(tetra_v, cfg)
    assert result.best_value == pytest.approx(math.log(4 / 3), abs=1e-6)
    assert result.certificate_gap <= 1e-6
    assert result.best_value <= result.upper_bound + 1e-9
    assert result.capped_solves == 0


def test_capacity_search_counts_capped_solves(tetra_v, monkeypatch):
    from hoggar import optimize

    # on the family, the orbit pool solves in one iteration; the effect stack
    # has no group, so its pool of minimizers and Haar states needs more
    monkeypatch.setattr(optimize, "REWEIGHT_MAX_ITERS", 3)
    result = capacity_search(np.array(tetra_v.effects), OptimizerConfig(restarts=16, seed=1))
    assert result.capped_solves > 0


def test_capacity_search_computational_basis_d2():
    effects = np.zeros((2, 2, 2), dtype=complex)
    effects[0, 0, 0] = 1.0
    effects[1, 1, 1] = 1.0
    cfg = OptimizerConfig(restarts=16, seed=2)
    result = capacity_search(effects, cfg)
    assert result.best_value == pytest.approx(math.log(2), abs=1e-9)
    assert result.best_ensemble.size == 2
    overlap = abs(np.vdot(result.best_ensemble.states[0], result.best_ensemble.states[1]))
    assert overlap < 1e-6


def test_capacity_seed_determinism(tetra_v):
    cfg = OptimizerConfig(restarts=16, seed=9)
    r1 = capacity_search(tetra_v, cfg)
    r2 = capacity_search(tetra_v, cfg)
    assert r1.restart_values == r2.restart_values
    assert r1.best_value == r2.best_value


def test_capacity_search_hoggar_other_seed(hoggar_v):
    # the orbit of batch 0's best state completes the pool on a seed other
    # than the acceptance one too
    result = capacity_search(hoggar_v, OptimizerConfig(restarts=64, seed=7))
    assert result.best_value == pytest.approx(2 * math.log(4 / 3), abs=1e-6)
    assert result.certificate_gap <= 1e-6
    assert result.best_ensemble.size == 64


def test_capacity_search_permuted_sylvester_family(permuted_sylvester_family):
    # the displacement group is read off the matrix, so a permuted, sign-flipped
    # Sylvester source gets the full orbit pool like the Sylvester matrix itself
    fam = permuted_sylvester_family
    cfg = OptimizerConfig(restarts=64, seed=1)
    entropy = min_entropy_search(fam, cfg)
    result = capacity_search(fam, cfg, entropy=entropy)
    assert entropy.best_value == pytest.approx(math.log(36), abs=1e-8)
    assert result.best_value == pytest.approx(2 * math.log(4 / 3), abs=1e-6)
    assert result.certificate_gap <= 1e-6
    assert result.best_ensemble.size == 64


def test_capacity_ensemble_is_the_twin_family(hoggar_v, hoggar_vbar):
    # the paper's theorem: the equiprobable twin family attains the informational power
    result = capacity_search(hoggar_v, OptimizerConfig(restarts=64, seed=1))
    ensemble = result.best_ensemble
    assert ensemble.size == 64
    matched = set()
    for state in ensemble.states:
        dist = [projector_distance(state, twin) for twin in hoggar_vbar.states]
        nearest = int(np.argmin(dist))
        assert dist[nearest] < 1e-6
        matched.add(nearest)
    assert len(matched) == 64
    assert np.abs(ensemble.weights - 1 / 64).max() < 1e-9


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        OptimizerConfig(restarts=0)
    for restarts in (2.5, "8", None, True):
        with pytest.raises(InvalidArgumentError, match="restarts must be an integer"):
            OptimizerConfig(restarts=restarts)
    for seed in (-1, 1.5, "1", None, False):
        with pytest.raises(InvalidArgumentError, match="seed must be a non-negative integer"):
            OptimizerConfig(seed=seed)
    assert OptimizerConfig(restarts=np.int64(4), seed=np.uint32(7)).seed == 7


@pytest.fixture(params=["tetrahedral", "fourier3-v0"])
def small_family(request, tetra_v, fourier3_families):
    return tetra_v if request.param == "tetrahedral" else fourier3_families[0]


@pytest.mark.parametrize("seed", [1, 2])
# 4 restarts and 64, the command-line default
@pytest.mark.parametrize("restarts", [4, 64])
def test_capacity_search_reuses_entropy_batch(small_family, seed, restarts):
    cfg = OptimizerConfig(restarts=restarts, seed=seed)
    alone = capacity_search(small_family, cfg)
    shared = capacity_search(small_family, cfg, entropy=min_entropy_search(small_family, cfg))
    assert shared.best_value == alone.best_value
    assert shared.iterations_used == alone.iterations_used
    assert shared.restart_values == alone.restart_values
    assert shared.certificate_gap == alone.certificate_gap
    assert shared.capped_solves == alone.capped_solves
    assert shared.converged == alone.converged
    assert np.array_equal(shared.best_ensemble.weights, alone.best_ensemble.weights)
    assert np.array_equal(np.array(shared.best_ensemble.states), np.array(alone.best_ensemble.states))


def test_capacity_search_with_entropy_descends_once_less(tetra_v, monkeypatch):
    from hoggar import optimize

    calls = []
    descend = optimize._descend
    monkeypatch.setattr(optimize, "_descend", lambda *args: calls.append(1) or descend(*args))
    cfg = OptimizerConfig(restarts=4, seed=1)
    capacity_search(tetra_v, cfg)
    assert len(calls) == 1
    entropy = min_entropy_search(tetra_v, cfg)
    assert len(calls) == 2
    capacity_search(tetra_v, cfg, entropy=entropy)
    assert len(calls) == 2


def test_capacity_search_refuses_a_foreign_entropy_result(tetra_v):
    from hoggar import tetrahedral_family

    cfg = OptimizerConfig(restarts=16, seed=1)
    entropy = min_entropy_search(tetra_v, cfg)
    for other in (OptimizerConfig(restarts=16, seed=2), OptimizerConfig(restarts=8, seed=1), None):
        with pytest.raises(InvalidArgumentError, match="computed with"):
            capacity_search(tetra_v, other, entropy=entropy)
    # an equal family built anew is another POVM: identity, not value, decides
    with pytest.raises(InvalidArgumentError, match="another POVM"):
        capacity_search(tetrahedral_family(), cfg, entropy=entropy)
    with pytest.raises(InvalidArgumentError, match="min_entropy_search result"):
        capacity_search(tetra_v, cfg, entropy=capacity_search(tetra_v, cfg))
