import math

import numpy as np
import pytest

from hoggar import infotheory
from hoggar import (
    Ensemble,
    InvalidArgumentError,
    InvalidPovmError,
    OptimizerConfig,
    OutcomeDistribution,
    UnsupportedError,
    entropy_gradient,
    holevo_quantity,
    ht_minimizer,
    index_of_coincidence,
    min_entropy_search,
    mutual_information,
    outcome_distribution,
    outcome_matrix,
    power_from_min_entropy,
    random_pure_state,
    shannon_entropy,
    sic_min_entropy_bound,
    sic_power_bound,
    twin_ensemble,
    uniform_ensemble,
)
from hoggar.infotheory import Measurement, as_effects, eta
from hoggar.optimize import GRAD_FLOOR


def test_maximally_mixed_is_uniform(hoggar_v):
    dist = outcome_distribution(np.eye(8) / 8, hoggar_v)
    assert np.abs(dist.probs - 1 / 64).max() < 1e-15
    assert dist.zero_count == 0


def test_twin_state_distribution(hoggar_v, hoggar_vbar):
    for idx in range(64):
        dist = outcome_distribution(hoggar_vbar.states[idx], hoggar_v)
        assert dist.zero_count == 28
        nonzero = dist.probs[dist.probs >= 1e-10]
        assert np.abs(nonzero - 1 / 36).max() < 1e-12


def test_self_state_distribution(hoggar_v):
    dist = outcome_distribution(hoggar_v.states[0], hoggar_v)
    probs = np.sort(dist.probs)
    assert probs[-1] == pytest.approx(1 / 8, abs=1e-13)
    assert np.abs(probs[:-1] - 1 / 72).max() < 1e-13
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_pure_and_density_paths_agree(hoggar_v, rng):
    psi = random_pure_state(8, rng)
    rho = np.outer(psi, psi.conj())
    p_pure = outcome_distribution(psi, hoggar_v).probs
    p_mixed = outcome_distribution(rho, hoggar_v).probs
    assert np.abs(p_pure - p_mixed).max() < 1e-13


def test_dimension_mismatch_and_bad_povm(hoggar_v):
    with pytest.raises(InvalidArgumentError):
        outcome_distribution(np.array([1.0, 0.0]), hoggar_v)
    broken = np.array(hoggar_v.effects)[:50]
    with pytest.raises(InvalidPovmError):
        outcome_distribution(np.eye(8) / 8, broken)


def test_shannon_entropy_examples():
    assert shannon_entropy(np.full(64, 1 / 64)) == pytest.approx(math.log(64), abs=1e-12)
    dist = np.zeros(64)
    dist[:36] = 1 / 36
    assert shannon_entropy(dist) == pytest.approx(math.log(36), abs=1e-12)
    point = np.zeros(8)
    point[0] = 1.0
    assert shannon_entropy(point) == 0.0


def test_index_of_coincidence(hoggar_v, rng):
    assert index_of_coincidence(np.full(64, 1 / 64)) == pytest.approx(1 / 64, abs=1e-15)
    point = np.zeros(4)
    point[1] = 1.0
    assert index_of_coincidence(point) == 1.0
    psi = random_pure_state(8, rng)
    dist = outcome_distribution(psi, hoggar_v)
    assert index_of_coincidence(dist) == pytest.approx(1 / 36, abs=1e-12)


def test_ic_constant_many_states(hoggar_v, tetra_v, fourier3_families, rng):
    for fam in (hoggar_v, tetra_v, fourier3_families[0]):
        states = random_pure_state(fam.d, rng, size=10000)
        probs = outcome_matrix(states, fam)
        ics = (probs**2).sum(axis=1)
        expected = 2 / (fam.d * (fam.d + 1))
        assert np.abs(ics - expected).max() < 1e-12


def test_mutual_information_single_state(hoggar_v):
    ens = uniform_ensemble([hoggar_v.states[0]])
    assert mutual_information(ens, hoggar_v) == pytest.approx(0.0, abs=1e-13)


def test_mutual_information_twins(hoggar_v, hoggar_vbar):
    value = mutual_information(twin_ensemble(hoggar_vbar), hoggar_v)
    assert value == pytest.approx(2 * math.log(4 / 3), abs=1e-12)


def test_mutual_information_twins_d2(tetra_v, tetra_vbar):
    value = mutual_information(twin_ensemble(tetra_vbar), tetra_v)
    assert value == pytest.approx(math.log(4 / 3), abs=1e-12)


def test_holevo_equals_mutual_information(hoggar_v, tetra_v, rng):
    for fam in (hoggar_v, tetra_v):
        states = list(random_pure_state(fam.d, rng, size=6))
        weights = rng.random(6)
        ens = Ensemble(weights=weights / weights.sum(), states=tuple(states))
        assert holevo_quantity(ens, fam) == pytest.approx(mutual_information(ens, fam), abs=1e-12)


def test_holevo_single_state_zero(hoggar_v):
    ens = uniform_ensemble([hoggar_v.states[3]])
    assert holevo_quantity(ens, hoggar_v) == pytest.approx(0.0, abs=1e-13)


def test_equality_condition_witness(hoggar_v, hoggar_vbar):
    avg = twin_ensemble(hoggar_vbar).average_state()
    flat = np.einsum("kij,ji->k", hoggar_v.effects, avg).real
    assert np.abs(flat - 1 / 64).max() < 1e-12


def test_bounds():
    assert sic_min_entropy_bound(8) == pytest.approx(math.log(36), abs=1e-15)
    assert sic_power_bound(8) == pytest.approx(math.log(16 / 9), abs=1e-14)
    assert sic_min_entropy_bound(2) == pytest.approx(math.log(3), abs=1e-15)
    assert sic_power_bound(2) == pytest.approx(math.log(4 / 3), abs=1e-14)
    for d in range(2, 17):
        assert sic_power_bound(d) == math.log(d * d) - sic_min_entropy_bound(d)


def test_power_from_min_entropy():
    assert power_from_min_entropy(64, math.log(36)) == pytest.approx(math.log(16 / 9), abs=1e-14)
    assert power_from_min_entropy(4, math.log(3)) == pytest.approx(math.log(4 / 3), abs=1e-14)
    assert power_from_min_entropy(10, math.log(10)) == pytest.approx(0.0, abs=1e-15)


def test_ht_minimizer():
    dist = ht_minimizer(1 / 36, 64)
    assert (dist.probs[:36] == 1 / 36).all() and (dist.probs[36:] == 0).all()
    assert shannon_entropy(dist) == pytest.approx(math.log(36), abs=1e-12)
    assert ht_minimizer(1.0, 5).probs[0] == 1.0
    d2 = ht_minimizer(1 / 3, 4)
    assert shannon_entropy(d2) == pytest.approx(math.log(3), abs=1e-12)
    with pytest.raises(UnsupportedError):
        ht_minimizer(0.3, 8)
    with pytest.raises(UnsupportedError, match=r"^1/r = 3\.3333333333333335 is not"):
        ht_minimizer(np.float64(0.3), 8)
    with pytest.raises(InvalidArgumentError):
        ht_minimizer(1 / 36, 8)


def test_negative_mutual_information_shows_a_plain_float(hoggar_v, monkeypatch):
    # a table that is no distribution gives a negative value: -2 ln 2
    monkeypatch.setattr(infotheory, "_joint_table", lambda ensemble, povm: np.array([[2.0]]))
    with pytest.raises(InvalidArgumentError) as excinfo:
        mutual_information(twin_ensemble(hoggar_v), hoggar_v)
    assert str(excinfo.value) == f"mutual information evaluated to {-2 * math.log(2.0)!r}"


def test_entropy_concavity(hoggar_v, rng):
    for _ in range(20):
        a = random_pure_state(8, rng)
        b = random_pure_state(8, rng)
        lam = rng.random()
        rho_a = np.outer(a, a.conj())
        rho_b = np.outer(b, b.conj())
        mix = lam * rho_a + (1 - lam) * rho_b
        h_mix = shannon_entropy(outcome_distribution(mix, hoggar_v))
        h_parts = lam * shannon_entropy(outcome_distribution(rho_a, hoggar_v)) + (
            1 - lam
        ) * shannon_entropy(outcome_distribution(rho_b, hoggar_v))
        assert h_mix >= h_parts - 1e-12


def test_pure_state_entropy_range(hoggar_v, rng):
    states = random_pure_state(8, rng, size=20000)
    probs = outcome_matrix(states, hoggar_v)
    entropies = np.array([shannon_entropy(p) for p in probs])
    floor = math.log(36)
    # attainable ceiling: the value at the family's own states,
    # ln(d) + ((d-1)/d) ln(d+1); every random sample must stay below it
    ceiling = math.log(8) + (7 / 8) * math.log(9)
    assert entropies.min() >= floor - 1e-9
    assert entropies.max() <= ceiling + 1e-9
    self_entropy = shannon_entropy(outcome_distribution(hoggar_v.states[0], hoggar_v))
    assert self_entropy == pytest.approx(ceiling, abs=1e-12)


def test_distribution_clamps_and_validates():
    probs = np.full(4, 0.25)
    probs[0] -= 5e-15
    probs[1] += 5e-15
    dist = OutcomeDistribution(probs)
    assert (dist.probs >= 0).all()
    # the constructor validates, and the zero count follows the probabilities
    with pytest.raises(InvalidArgumentError, match="sum to 0.9"):
        OutcomeDistribution(np.array([0.5, 0.4]))
    assert OutcomeDistribution(np.array([0.5, 0.5, 0.0])).zero_count == 1


def test_ensemble_validation(rng):
    with pytest.raises(InvalidArgumentError):
        Ensemble(weights=np.array([0.5, 0.6]), states=(np.array([1.0, 0]), np.array([0, 1.0])))
    with pytest.raises(InvalidArgumentError):
        Ensemble(weights=np.array([1.0]), states=(np.array([1.0, 1.0]),))
    bad_density = np.array([[0.8, 0.4], [0.4, 0.2]])  # not PSD-compatible trace/psd combo
    bad_density[1, 1] = 0.2
    ens = Ensemble(weights=np.array([1.0]), states=(np.eye(2) / 2,))
    assert ens.size == 1
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            Ensemble(weights=np.array([bad, 1.0]), states=(np.array([1.0, 0]), np.array([0, 1.0])))


NAN_STATE = np.array([np.nan, 0.0])
NAN_STACK = [[[np.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: OutcomeDistribution([np.nan, 2.0]), InvalidArgumentError, "probabilities must be finite"),
        (lambda: outcome_distribution(NAN_STATE, [np.eye(2)]), InvalidArgumentError, "probabilities must be finite"),
        (lambda: Ensemble(weights=[1.0], states=(NAN_STATE,)), InvalidArgumentError, "states must be finite"),
        (
            lambda: mutual_information(uniform_ensemble([NAN_STATE]), [np.eye(2)]),
            InvalidArgumentError, "states must be finite",
        ),
        (lambda: as_effects(NAN_STACK), InvalidPovmError, "effects must be finite"),
        (lambda: Measurement(NAN_STACK), InvalidPovmError, "effects must be finite"),
    ],
    ids=[
        "outcome_distribution", "nan_state_distribution", "ensemble", "mutual_information", "as_effects",
        "measurement",
    ],
)
def test_non_finite_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _masked_eta(p):
    """eta as a masked gather and scatter: -p*ln(p) where p > 0, and +0 elsewhere (NaN included)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = -p[mask] * np.log(p[mask])
    return out


def test_eta_matches_masked_formula(rng):
    tiny = np.finfo(np.float64).tiny
    edges = np.array([
        0.0, -0.0, -1e-14, -1e-300, -5e-324, 5e-324, tiny / 3, tiny,
        1e-300, 1e-14, 0.5, 1 - 2**-53, 1 + 2**-52, np.inf,
    ])
    uniform = rng.random((4096, 64))
    spread = np.exp(-745 * rng.random((4096, 64)))  # down to the subnormals and 0
    spread[::3, ::5] = rng.uniform(-1e-14, 0.0, size=spread[::3, ::5].shape)
    for p in (edges, uniform, spread):
        assert np.array_equal(eta(p).view(np.int64), _masked_eta(p).view(np.int64))
    # the differences: eta(1) is +0 where the masked product gives -0, and NaN and -inf give NaN, not 0
    assert eta([1.0]).view(np.int64)[0] == 0
    assert _masked_eta([1.0]).view(np.int64)[0] == np.array(-0.0).view(np.int64)
    with np.errstate(invalid="ignore"):
        assert np.isnan(eta([np.nan, -np.inf])).all()


def _einsum_probabilities(effects, rows):
    return np.einsum("bi,kij,bj->bk", rows.conj(), effects, rows).real


def _einsum_pullback(effects, coeff, rows):
    return np.einsum("bk,kij,bj->bi", coeff, effects, rows)


def _check_against_einsum(m, effects, rng):
    """Every evaluation of ``m`` agrees with the einsum formulas on ``effects`` within 1e-12."""
    d = effects.shape[1]
    rows = random_pure_state(d, rng, size=16)
    p, amps = m.probabilities(rows)
    assert np.abs(p - _einsum_probabilities(effects, rows)).max() < 1e-12
    for psi in rows:
        assert np.abs(m.pure(psi) - _einsum_probabilities(effects, psi[None])[0]).max() < 1e-12
    coeff = rng.standard_normal((16, effects.shape[0]))
    pulled = (m.grad_scale / 2) * m.pullback(coeff, amps)
    assert np.abs(pulled - _einsum_pullback(effects, coeff, rows)).max() < 1e-12


@pytest.mark.parametrize("family", ["hoggar_v", "tetra_v", "fourier3_families"])
def test_measurement_representations_agree(family, request, rng):
    fam = request.getfixturevalue(family)
    if family == "fourier3_families":
        fam = fam[2]  # v = 1 + sqrt3 i
    effects = np.array(fam.effects)
    sic = Measurement(fam)
    assert sic.frame is fam.states
    for m in (sic, Measurement(effects)):
        assert m.frame.shape == (fam.k, fam.d)
        _check_against_einsum(m, effects, rng)


def _rank_two_stack():
    u = np.eye(4)
    a = 0.5 * np.outer(u[0], u[0]) + 0.25 * np.outer(u[1], u[1])
    return np.array([a, np.eye(4) - a], dtype=np.complex128), [2, 4]


def _coarse_d3_sic(families):
    effects = np.array(families[2].effects)  # v = 1 + sqrt3 i
    merged = [effects[i] + effects[i + 1] for i in range(0, 8, 2)] + [effects[8]]
    return np.array(merged), [2, 2, 2, 2, 1]


@pytest.mark.parametrize("stack", ["rank_two", "coarse_d3_sic"])
def test_higher_rank_stacks_match_einsum(stack, fourier3_families, rng):
    effects, rows_per_effect = _rank_two_stack() if stack == "rank_two" else _coarse_d3_sic(fourier3_families)
    m = Measurement(effects)
    assert m.group.sum(axis=0).tolist() == rows_per_effect
    _check_against_einsum(m, effects, rng)
    d = effects.shape[1]
    psi = random_pure_state(d, rng)
    rho = 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.eye(d) / d
    expected = np.einsum("kij,ji->k", effects, rho).real
    assert np.abs(outcome_distribution(rho, effects).probs - expected).max() < 1e-12
    p = _einsum_probabilities(effects, psi[None])[0]
    ambient = 2 * np.einsum("k,kij,j->i", -(np.log(np.maximum(p, GRAD_FLOOR)) + 1.0), effects, psi)
    tangent = ambient - np.vdot(psi, ambient) * psi
    assert np.abs(entropy_gradient(psi, effects) - tangent).max() < 1e-12


NOT_PSD = [np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]
NOT_HERMITIAN = [[[1, 1], [0, 0]], [[0, -1], [0, 1]]]


@pytest.mark.parametrize(
    "effects, message",
    [(NOT_PSD, r"eigenvalue -5\.000e-01 below zero"), (NOT_HERMITIAN, r"from Hermitian by 1\.000e\+00")],
    ids=["not_psd", "not_hermitian"],
)
def test_invalid_effect_stacks_are_refused(effects, message):
    effects = np.array(effects, dtype=np.complex128)
    with pytest.raises(InvalidPovmError, match=message):
        Measurement(effects)
    with pytest.raises(InvalidPovmError, match=message):
        outcome_matrix(np.eye(2), effects)
    with pytest.raises(InvalidPovmError, match=message):
        min_entropy_search(effects, OptimizerConfig(restarts=4, seed=1))
