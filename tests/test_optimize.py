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
from hoggar import optimize as _optimize
from hoggar.infotheory import Measurement, eta
from hoggar.optimize import (
    ARMIJO_C,
    ARMIJO_SHRINK,
    ASCENT_STEPS,
    GRAD_FLOOR,
    GRAD_TOL,
    MAX_BACKTRACKS,
    MAX_ITERS,
    ROW_BLOCK,
    STEP_INIT,
    VALUE_TOL,
    haar_blocks,
    row_blocks,
)


def entropy_of(psi, fam):
    return shannon_entropy(outcome_distribution(psi, fam))


def test_random_pure_state_determinism():
    a = random_pure_state(8, np.random.default_rng((1, 0)))
    b = random_pure_state(8, np.random.default_rng((1, 0)))
    assert np.array_equal(a, b)
    c = random_pure_state(8, np.random.default_rng((1, 1)))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    # counts at the block edges, and fixed counts that span several blocks
    "n",
    [0, 1, 2, 3, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
    + [4095, 4096, 4097, 8191, 8192, 8193, 16385, 10**6],
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


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("n", [0, 1, 2, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 1])
def test_haar_blocks_stream_the_one_shot_draw(d, n, one_shot_haar):
    streamed_rng, one_shot_rng = np.random.default_rng((6, d)), np.random.default_rng((6, d))
    expected = one_shot_haar(d, one_shot_rng, size=n)
    streamed = np.empty((n, d), dtype=np.complex128)
    blocks = []
    for rows, states in haar_blocks(d, streamed_rng, n):
        blocks.append(rows)
        streamed[rows] = states
        # the generator is left as the one-shot draw leaves it once the last block is out
        assert (streamed_rng.bit_generator.state == one_shot_rng.bit_generator.state) == (rows.stop == n)
    assert blocks == row_blocks(n)
    assert np.array_equal(streamed.view(np.float64), expected.view(np.float64))
    assert streamed_rng.bit_generator.state == one_shot_rng.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("k, n", [(1, 2), (1, ROW_BLOCK + 1), (5, ROW_BLOCK), (ROW_BLOCK, 3 * ROW_BLOCK + 1)])
def test_random_pure_state_prefix_is_a_smaller_draw(d, k, n):
    full = random_pure_state(d, np.random.default_rng((7, d)), size=n)
    prefix = random_pure_state(d, np.random.default_rng((7, d)), size=k)
    assert np.array_equal(full[:k].view(np.float64), prefix.view(np.float64))
    single = random_pure_state(d, np.random.default_rng((7, d)))
    assert np.array_equal(full[0].view(np.float64), single.view(np.float64))


@pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK, 3 * ROW_BLOCK + 1])
def test_haar_blocks_rows_are_one_random_pure_state_draw(n):
    d = 3
    expected = random_pure_state(d, np.random.default_rng((8, n)), size=n)
    rng, blockwise = np.random.default_rng((8, n)), np.random.default_rng((8, n))
    for rows, states in haar_blocks(d, rng, n):
        assert np.array_equal(states.view(np.float64), expected[rows].view(np.float64))
        block = random_pure_state(d, blockwise, size=rows.stop - rows.start)
        assert np.array_equal(states.view(np.float64), block.view(np.float64))


def test_haar_blocks_seed_one_generator():
    n = 2 * ROW_BLOCK + 1
    streamed = np.concatenate([states for _, states in haar_blocks(2, 11, n)])
    assert np.array_equal(streamed.view(np.float64), random_pure_state(2, 11, size=n).view(np.float64))


@pytest.mark.parametrize("n", [0, 1, 2, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
def test_haar_draws_take_two_normals_per_coordinate(n):
    d = 8
    reference = np.random.default_rng(9)
    reference.standard_normal(2 * n * d)
    drawn, streamed = np.random.default_rng(9), np.random.default_rng(9)
    random_pure_state(d, drawn, size=n)
    for rows, _ in haar_blocks(d, streamed, n):
        # each block has taken its own 2 * rows * d normals and no more
        so_far = np.random.default_rng(9)
        so_far.standard_normal(2 * rows.stop * d)
        assert streamed.bit_generator.state == so_far.bit_generator.state
    assert drawn.bit_generator.state == reference.bit_generator.state
    assert streamed.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("offset", [0, 7])
def test_restart_rows_are_single_random_pure_states(hoggar_v, offset):
    cfg = OptimizerConfig(restarts=5, seed=3)
    batch = _optimize._restart_states(Measurement(hoggar_v), cfg, offset)
    for i, row in enumerate(batch):
        psi = random_pure_state(8, np.random.default_rng((cfg.seed, offset + i)))
        assert np.array_equal(row.view(np.float64), psi.view(np.float64))


def test_random_pure_state_checks_size():
    for size in (-1, 2.5, "3", True):
        with pytest.raises(InvalidArgumentError, match="size must be a non-negative integer"):
            random_pure_state(3, 1, size=size)
    assert random_pure_state(3, 1, size=0).shape == (0, 3)
    assert random_pure_state(3, 1, size=np.int64(2)).shape == (2, 3)
    for d, shown in ((1, "1"), (2.5, "2.5"), (np.float64(3.0), "3.0"), ("3", "'3'"), (None, "None"), (True, "True")):
        with pytest.raises(InvalidArgumentError, match=f"^dimension must be an integer >= 2, got {shown}$"):
            random_pure_state(d, 1)
    assert random_pure_state(np.int64(3), 1).shape == (3,)


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


def test_entropy_gradient_takes_a_prebuilt_measurement(hoggar_v, rng):
    m = Measurement(hoggar_v)
    for _ in range(5):
        psi = random_pure_state(8, rng)
        assert np.array_equal(entropy_gradient(psi, m), entropy_gradient(psi, hoggar_v))


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


def test_min_entropy_effect_stack_matches_family(hoggar_v):
    # the stack is factored into its own frame; only the last bits may differ
    cfg = OptimizerConfig(restarts=64, seed=1)
    family = min_entropy_search(hoggar_v, cfg)
    stack = min_entropy_search(np.array(hoggar_v.effects), cfg)
    assert abs(stack.best_value - family.best_value) < 1e-13
    assert np.abs(np.subtract(stack.restart_values, family.restart_values)).max() < 1e-10


def test_min_entropy_minimizer_recovery(hoggar_v, hoggar_vbar):
    # every restart that attained the global minimum is a twin with the
    # 28-zero / 1-36 outcome pattern
    cfg = OptimizerConfig(restarts=64, seed=1)
    m = Measurement(hoggar_v)
    psi, f, _, conv = _optimize._descend(m, _optimize._restart_states(m, cfg, 0), cfg)
    winners = np.flatnonzero(conv & (np.abs(f - f.min()) < 1e-8))
    assert winners.size > 0
    for row in winners:
        dist = outcome_distribution(psi[row], hoggar_v)
        assert (dist.probs < 1e-10).sum() == 28
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: blahut_arimoto([[np.nan, 1.0], [0.5, 0.5]]), "channel matrix must be finite"),
        (lambda: entropy_gradient([np.nan, 0.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), "state must be finite"),
    ],
    ids=["blahut_arimoto", "entropy_gradient"],
)
def test_non_finite_optimizer_inputs_are_refused(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


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
    # the 12 random states in the order random_pure_state drew them before it
    # drew state by state: all real parts, then all imaginary parts
    x = np.random.default_rng(8).standard_normal((2, 12, 2))
    randoms = x[0] + 1j * x[1]
    randoms /= np.linalg.norm(randoms, axis=1)[:, None]
    pool = np.vstack([tetra_vbar.states, randoms])
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
    _assert_same_search(shared, alone)


def _assert_same_search(a, b):
    assert a.best_value == b.best_value
    assert a.iterations_used == b.iterations_used
    assert a.restart_values == b.restart_values
    assert a.converged == b.converged
    assert a.upper_bound == b.upper_bound
    assert a.certificate_gap == b.certificate_gap
    assert a.capped_solves == b.capped_solves
    if a.best_state is not None:
        assert np.array_equal(a.best_state, b.best_state)
    if a.best_ensemble is not None:
        assert np.array_equal(a.best_ensemble.weights, b.best_ensemble.weights)
        assert np.array_equal(np.array(a.best_ensemble.states), np.array(b.best_ensemble.states))


@pytest.mark.parametrize("reuse", [False, True], ids=["alone", "entropy"])
def test_searches_take_a_measurement_of_the_family(small_family, reuse):
    cfg = OptimizerConfig(restarts=16, seed=1)
    m = Measurement(small_family)
    results = []
    for povm in (small_family, m):
        entropy = min_entropy_search(povm, cfg)
        results.append((entropy, capacity_search(povm, cfg, entropy=entropy if reuse else None)))
    for family_result, measurement_result in zip(*results):
        _assert_same_search(family_result, measurement_result)


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


# The sphere descent, its restart draw and the ascent polish, frozen as they
# stood before the descent kept a compacted working set of its active rows.
# The library must reproduce them bit for bit: every digest of a search
# depends on them.


def _normalize_rows(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


def _reference_random_pure_state(d, rng):
    x = rng.standard_normal((2, 1, d))
    return _normalize_rows(x[0] + 1j * x[1])[0]


class _ReferenceObjective(Measurement):
    def value(self, psi_rows):
        p, _ = self.probabilities(psi_rows)
        return eta(p).sum(axis=1)

    def value_and_grad(self, psi_rows):
        p, amps = self.probabilities(psi_rows)
        slope = -(np.log(np.maximum(p, GRAD_FLOOR)) + 1.0)  # eta'(p), regularized at 0
        ambient = self.grad_scale * self.pullback(slope, amps)
        coeff = np.einsum("bi,bi->b", psi_rows.conj(), ambient)
        tangent = ambient - coeff[:, None] * psi_rows
        gnorm_sq = np.einsum("bi,bi->b", tangent, tangent.conj()).real
        return eta(p).sum(axis=1), tangent, gnorm_sq


def _reference_descend(obj, psi_rows, cfg=None):
    psi = _normalize_rows(np.array(psi_rows, dtype=np.complex128))
    b = psi.shape[0]
    f = obj.value(psi)
    alpha = np.full(b, STEP_INIT)
    iters = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=bool)
    active = np.ones(b, dtype=bool)
    small_streak = np.zeros(b, dtype=np.int64)

    for _ in range(MAX_ITERS):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        fv, grad, g2 = obj.value_and_grad(psi[idx])
        gnorm = np.sqrt(g2)
        flat = gnorm < GRAD_TOL
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
        alpha[rows] = np.minimum(a[moved] * 2.0, max(1.0, STEP_INIT))

        small = delta < VALUE_TOL
        small_streak[rows[small]] += 1
        small_streak[rows[~small]] = 0
        done = rows[small_streak[rows] >= 2]
        converged[done] = True
        active[done] = False

    return psi, f, iters, converged


def _reference_restart_states(obj, cfg, offset):
    rows = [
        _reference_random_pure_state(obj.d, np.random.default_rng((cfg.seed, offset + i)))
        for i in range(cfg.restarts)
    ]
    return np.vstack(rows)


def _reference_ascend_states(obj, pool, weights):
    psi = pool.copy()
    alpha = STEP_INIT
    p, amps = obj.probabilities(psi)
    value = _optimize._ensemble_info(p, weights)
    for _ in range(ASCENT_STEPS):
        q = weights @ p
        rel = np.log(np.maximum(p, GRAD_FLOOR)) - np.log(np.maximum(q, GRAD_FLOOR))[None, :]
        ambient = (obj.grad_scale * weights[:, None]) * obj.pullback(rel, amps)
        coeff = np.einsum("bi,bi->b", psi.conj(), ambient)
        tangent = ambient - coeff[:, None] * psi
        g2 = float(np.einsum("bi,bi->", tangent, tangent.conj()).real)
        if g2 < 1e-28:
            break
        accepted = False
        for _ls in range(MAX_BACKTRACKS):
            cand = _normalize_rows(psi + alpha * tangent)
            p_c, amps_c = obj.probabilities(cand)
            value_c = _optimize._ensemble_info(p_c, weights)
            if value_c >= value + ARMIJO_C * alpha * g2:
                psi, p, amps, value = cand, p_c, amps_c, value_c
                alpha = min(alpha * 2.0, max(1.0, STEP_INIT))
                accepted = True
                break
            alpha *= ARMIJO_SHRINK
        if not accepted:
            break
    return psi, value


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(
    scope="module",
    params=["tetrahedral", "fourier3-v0", "fourier3-v1+sqrt3i", "hoggar", "hoggar-stack", "rank2-stack"],
)
def frozen_povm(request, tetra_v, fourier3_families, hoggar_v):
    name = request.param
    if name == "rank2-stack":
        # one effect of rank two, so the frame has more rows than outcomes
        e = np.array(fourier3_families[0].effects)
        stack = np.concatenate([(e[0] + e[1])[None], e[2:]])
        assert Measurement(stack).group is not None
        return stack
    return {
        "tetrahedral": tetra_v,
        "fourier3-v0": fourier3_families[0],
        "fourier3-v1+sqrt3i": fourier3_families[2],
        "hoggar": hoggar_v,
        "hoggar-stack": np.array(hoggar_v.effects),
    }[name]


def _descend_both(povm, cfg, offset=0):
    obj, ref = Measurement(povm), _ReferenceObjective(povm)
    start = _optimize._restart_states(obj, cfg, offset)
    assert_same_bits(start, _reference_restart_states(ref, cfg, offset))
    return _optimize._descend(obj, start, cfg), _reference_descend(ref, start, cfg)


# one, two and three restarts make one-row and two-row evaluation batches
@pytest.mark.parametrize("restarts", [1, 2, 3, 64])
def test_descent_matches_the_frozen_descent(frozen_povm, restarts):
    got, expected = _descend_both(frozen_povm, OptimizerConfig(restarts=restarts, seed=1))
    for g, e in zip(got, expected):
        assert_same_bits(g, e)


def test_restart_states_match_the_frozen_draw_at_an_offset(hoggar_v):
    cfg = OptimizerConfig(restarts=5, seed=3)
    obj = Measurement(hoggar_v)
    assert_same_bits(_optimize._restart_states(obj, cfg, 7), _reference_restart_states(obj, cfg, 7))


class _CountingObjective(_ReferenceObjective):
    """The reference objective, counting the trial evaluations of the longest line search."""

    trials = longest = 0

    def value(self, psi_rows):
        self.trials += 1
        self.longest = max(self.longest, self.trials)
        return super().value(psi_rows)

    def value_and_grad(self, psi_rows):
        self.trials = 0
        return super().value_and_grad(psi_rows)


def test_descent_matches_the_frozen_descent_through_a_stalled_row(fourier3_families):
    # at this seed one row of the d = 3 effect stack finds no Armijo step in MAX_BACKTRACKS halvings
    stack = np.array(fourier3_families[0].effects)
    cfg = OptimizerConfig(restarts=64, seed=2)
    ref = _CountingObjective(stack)
    start = _optimize._restart_states(Measurement(stack), cfg, 0)
    expected = _reference_descend(ref, start, cfg)
    assert ref.longest == MAX_BACKTRACKS
    for g, e in zip(_optimize._descend(Measurement(stack), start, cfg), expected):
        assert_same_bits(g, e)


def test_descent_matches_the_frozen_descent_at_the_iteration_cap(hoggar_v, monkeypatch):
    monkeypatch.setattr(_optimize, "MAX_ITERS", 3)
    monkeypatch.setitem(globals(), "MAX_ITERS", 3)
    got, expected = _descend_both(hoggar_v, OptimizerConfig(restarts=64, seed=1))
    for g, e in zip(got, expected):
        assert_same_bits(g, e)
    psi, f, iters, converged = got
    assert not converged.any() and (iters == 3).all()


@pytest.mark.parametrize("family", ["tetrahedral", "fourier3-v0"])
def test_ascent_matches_the_frozen_ascent(family, tetra_v, fourier3_families):
    povm = tetra_v if family == "tetrahedral" else fourier3_families[0]
    obj = Measurement(povm)
    pool = random_pure_state(obj.d, np.random.default_rng(4), size=3 * obj.d)
    weights = np.random.default_rng(5).dirichlet(np.ones(len(pool)))
    got = _optimize._ascend_states(obj, pool, weights)
    expected = _reference_ascend_states(obj, pool, weights)
    assert_same_bits(got[0], expected[0])
    assert got[1] == expected[1]


@pytest.mark.parametrize("search", [min_entropy_search, capacity_search])
def test_searches_refuse_a_one_dimensional_povm(search):
    with pytest.raises(InvalidArgumentError, match="dimension must be >= 2"):
        search(np.ones((1, 1, 1)), OptimizerConfig(restarts=4, seed=1))
