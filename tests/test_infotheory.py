import math

import numpy as np
import pytest

from hoggar import infotheory
from hoggar import (
    Ensemble,
    InvalidArgumentError,
    InvalidPovmError,
    OutcomeDistribution,
    UnsupportedError,
    holevo_quantity,
    ht_minimizer,
    index_of_coincidence,
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
    monkeypatch.setattr(infotheory, "joint_table", lambda ensemble, povm: infotheory.JointTable(table=[[2.0]]))
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
    dist = OutcomeDistribution.from_probs(probs)
    assert (dist.probs >= 0).all()
    with pytest.raises(InvalidArgumentError):
        OutcomeDistribution.from_probs(np.array([0.5, 0.4]))


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


@pytest.mark.parametrize("family", ["hoggar_v", "tetra_v", "fourier3_families"])
def test_measurement_representations_agree(family, request, rng):
    from hoggar.infotheory import Measurement

    fam = request.getfixturevalue(family)
    if family == "fourier3_families":
        fam = fam[2]  # v = 1 + sqrt3 i
    sic, stack = Measurement(fam), Measurement(np.array(fam.effects))
    assert sic.phi is not None and stack.phi is None
    rows = random_pure_state(fam.d, rng, size=16)
    p_sic, amps = sic.probabilities(rows)
    p_stack, _ = stack.probabilities(rows)
    assert np.abs(p_sic - p_stack).max() < 1e-12
    for psi in rows:
        assert np.abs(sic.pure(psi) - stack.pure(psi)).max() < 1e-12
    coeff = rng.standard_normal((16, fam.k))
    pulled_sic = sic.grad_scale * sic.pullback(coeff, rows, amps)
    pulled_stack = stack.grad_scale * stack.pullback(coeff, rows, None)
    assert np.abs(pulled_sic - pulled_stack).max() < 1e-12
