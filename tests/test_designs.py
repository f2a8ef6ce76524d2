import math

import numpy as np
import pytest

from hoggar import (
    InvalidArgumentError,
    NotADesignError,
    StateSet,
    ZeroBlockDesign,
    block_translation_check,
    conjugate_set,
    dephase,
    difference_set_check,
    frame_potential,
    haar_moment,
    random_pure_state,
    verify_symmetric_design,
    zero_blocks,
)


def test_haar_moment_closed_form():
    assert haar_moment(8, 1) == pytest.approx(1 / 8, abs=1e-16)
    assert haar_moment(8, 2) == pytest.approx(1 / 36, abs=1e-16)
    assert haar_moment(8, 3) == pytest.approx(1 / 120, abs=1e-16)
    assert haar_moment(2, 2) == pytest.approx(1 / 3, abs=1e-16)


def test_haar_moment_monte_carlo(rng):
    # one-off sampling oracle for the closed form
    n = 200000
    a = random_pure_state(8, rng, size=n)
    b = random_pure_state(8, rng, size=n)
    u = np.abs(np.einsum("ni,ni->n", a.conj(), b)) ** 2
    mc = (u**2).mean()
    se = (u**2).std(ddof=1) / math.sqrt(n)
    assert abs(mc - haar_moment(8, 2)) <= 3 * se


@pytest.mark.parametrize("d", [2, 3, 8])
def test_one_state_and_two_state_moments_share_a_law(d):
    # unitary invariance: |<a|b>|^2 for Haar a and b has the law of every |<e_i|b>|^2,
    # which the report's oracle draws as d real and d imaginary parts of b
    n = 100000
    rng = np.random.default_rng((20240811, d))
    x = rng.standard_normal((n, 2 * d)) ** 2
    w = (x[:, :d] + x[:, d:]) / x.sum(axis=1)[:, None]
    one_state = w[:, 0]
    a, b = random_pure_state(d, rng, size=n), random_pure_state(d, rng, size=n)
    two_state = np.abs(np.einsum("ni,ni->n", a.conj(), b)) ** 2
    for u in (one_state, two_state):
        for t in (1, 2, 3):
            mc, se = (u**t).mean(), (u**t).std(ddof=1) / math.sqrt(n)
            assert abs(mc - haar_moment(d, t)) <= 4 * se, (t, mc, se)
    # the oracle's basis average (1/d) sum_i |<e_i|b>|^4: the same mean as |<a|b>|^4
    # from independent draws, at a tenth of the variance of one overlap or less
    average, single = (w**2).mean(axis=1), two_state**2
    gap_se = math.hypot(average.std(ddof=1), single.std(ddof=1)) / math.sqrt(n)
    assert abs(average.mean() - single.mean()) <= 3 * gap_se, (average.mean(), single.mean(), gap_se)
    assert average.var(ddof=1) * 10 <= (one_state**2).var(ddof=1)


def test_frame_potentials_hoggar(hoggar_v):
    s = StateSet.from_family(hoggar_v)
    assert frame_potential(s, 1) == pytest.approx(1 / 8, abs=1e-14)
    assert frame_potential(s, 2) == pytest.approx(1 / 36, abs=1e-14)
    expected_t3 = 1 / 64 + (63 / 64) * (1 / 9) ** 3
    assert frame_potential(s, 3) == pytest.approx(expected_t3, abs=1e-14)
    assert frame_potential(s, 3) > haar_moment(8, 3) + 1e-3


def test_welch_lower_bound_random_sets(rng):
    for _ in range(100):
        vectors = random_pure_state(8, rng, size=64)
        s = StateSet(vectors=vectors, d=8)
        for t in (1, 2, 3):
            assert frame_potential(s, t) >= haar_moment(8, t) - 1e-12


@pytest.fixture(scope="module")
def real_d8_designs(hoggar_v, permuted_sylvester_family):
    """The zero blocks over the Sylvester matrix and over a permuted, sign-flipped one, with their families."""
    return [(fam, zero_blocks(fam, conjugate_set(fam))) for fam in (hoggar_v, permuted_sylvester_family)]


def test_zero_blocks_basic(real_d8_designs):
    for fam, design in real_d8_designs:
        assert design.params == (64, 28, 12)
        assert all(len(b) == 28 for b in design.blocks)
        # B_00 is exactly the -1 pattern of the dephased matrix (over Sylvester, the matrix itself)
        signs = dephase(fam.hadamard).signs
        expected = {i * 8 + k for i in range(8) for k in range(8) if signs[i, k] == -1}
        assert set(design.blocks[0]) == expected
        # block (mu, nu) never contains the point (mu, nu)
        assert all(label not in design.blocks[label] for label in range(64))


def test_zero_block_law_over_sylvester_is_xor(hoggar_v, hoggar_vbar):
    # so the one-argument difference_set_check, whose default law is XOR, uses the Sylvester design's own law
    law = zero_blocks(hoggar_v, hoggar_vbar).law
    assert np.array_equal(law, np.arange(64)[:, None] ^ np.arange(64)[None, :])


def test_zero_blocks_rejects_wrong_dimension(tetra_v, tetra_vbar):
    with pytest.raises(InvalidArgumentError):
        zero_blocks(tetra_v, tetra_vbar)


def test_membership_criterion_equivalence(real_d8_designs):
    for fam, design in real_d8_designs:
        signs = dephase(fam.hadamard).signs.ravel()
        for label, members in enumerate(design.blocks):
            assert set(members) == {p for p in range(64) if signs[design.law[label, p]] == -1}


def test_verify_symmetric_design(hoggar_v, hoggar_vbar):
    design = zero_blocks(hoggar_v, hoggar_vbar)
    report = verify_symmetric_design(design)
    assert report.passed
    assert report.block_size == 28
    assert report.replication == 28
    assert report.point_pair_count == 12
    assert report.block_pair_count == 12


def test_verify_symmetric_design_mutation(hoggar_v, hoggar_vbar):
    design = zero_blocks(hoggar_v, hoggar_vbar)
    blocks = [list(b) for b in design.blocks]
    blocks[5] = blocks[5][:-1]  # delete one point from one block
    mutated = ZeroBlockDesign(blocks=tuple(tuple(b) for b in blocks), params=design.params, law=design.law)
    report = verify_symmetric_design(mutated)
    assert not report.passed
    assert "size" in report.counterexample


def test_zero_blocks_not_a_design_error():
    # v = -3 also zeroes the whole same-row stripe, which breaks the constant
    # pairwise intersection; the error carries the offending block pair
    from hoggar import conjugate_set, hadamard_sic_family, sylvester_hadamard

    fam = hadamard_sic_family(sylvester_hadamard(3), -3.0)
    with pytest.raises(NotADesignError) as excinfo:
        zero_blocks(fam, conjugate_set(fam))
    assert excinfo.value.offending is not None


def test_difference_set_development(real_d8_designs):
    for _, design in real_d8_designs:
        report = difference_set_check(design.blocks[0], design.law)
        assert report.passed
        assert report.min_count == report.max_count == 12


def test_difference_set_degenerate_cases():
    empty = difference_set_check([])
    assert not empty.passed and empty.max_count == 0
    full = difference_set_check(range(64))
    assert not full.passed and full.max_count == 64


def test_block_translation(real_d8_designs):
    for _, design in real_d8_designs:
        assert block_translation_check(design)
        shuffled = ZeroBlockDesign(
            blocks=tuple(design.blocks[(i + 1) % 64] for i in range(64)), params=design.params, law=design.law
        )
        assert not block_translation_check(shuffled)


def test_point_and_block_regularity_agree(hoggar_v, hoggar_vbar):
    design = zero_blocks(hoggar_v, hoggar_vbar)
    inc = design.incidence()
    off = ~np.eye(64, dtype=bool)
    assert set(np.unique((inc @ inc.T)[off])) == {12}
    assert set(np.unique((inc.T @ inc)[off])) == {12}


def test_state_set_validation(rng):
    with pytest.raises(InvalidArgumentError):
        StateSet(vectors=2 * random_pure_state(4, rng, size=3), d=4)
