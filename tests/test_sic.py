import math

import numpy as np
import pytest

from hoggar import (
    ADMISSIBLE_V,
    InvalidArgumentError,
    PauliLabel,
    UnsupportedError,
    all_overlap_tables,
    conjugate_set,
    fourier_matrix,
    hadamard_sic_family,
    pauli_operator,
    projector_distance,
    sylvester_hadamard,
    verify_covariance,
    verify_sic,
)
from hoggar.algebra import HadamardMatrix
from hoggar.sic import displacements

SQRT3 = math.sqrt(3.0)


def closed_form_inner(signs, v, j, k, m, n):
    """Independent oracle: the four-case expansion of inner(H_jk(v), H_mn(vbar))."""
    d = signs.shape[0]
    value = (d if j == m else 0) + (v - 1) * (signs[j, n] * signs[m, n] + signs[j, k] * signs[m, k])
    if k == n:
        value += (v - 1) ** 2 * signs[j, k] * signs[m, n]
    return value


def test_construction_vector_examples(hoggar_v):
    raw = hoggar_v.raw
    # row j*8+k holds label (j, k), so label (0, 0) is row 0
    assert np.allclose(raw[0], [-1 + 2j, 1, 1, 1, 1, 1, 1, 1])
    squared_norms = np.einsum("ni,ni->n", raw, raw.conj()).real
    assert squared_norms.shape == (64,)
    assert np.abs(squared_norms - 12.0).max() < 1e-12
    assert np.abs(squared_norms - (7 + abs(hoggar_v.v) ** 2)).max() < 1e-12


def test_degenerate_v_one_gives_d_lines():
    fam = hadamard_sic_family(sylvester_hadamard(3), 1.0)
    distinct = []
    for s in fam.states:
        if all(projector_distance(s, t) > 1e-8 for t in distinct):
            distinct.append(s)
    assert len(distinct) == 8
    assert not verify_sic(fam).is_sic
    # identity still resolves even for the degenerate parameter
    assert verify_sic(fam).identity_deviation < 1e-12


def test_admissible_flags():
    for v in ADMISSIBLE_V[2]:
        assert hadamard_sic_family(sylvester_hadamard(1), v).admissible
    assert not hadamard_sic_family(sylvester_hadamard(1), 1 + 1j).admissible
    assert hadamard_sic_family(sylvester_hadamard(3), -1 + 2j).admissible
    assert not hadamard_sic_family(sylvester_hadamard(3), 2.0).admissible


def test_verify_sic_hoggar(hoggar_v, hoggar_vbar):
    for fam in (hoggar_v, hoggar_vbar):
        report = verify_sic(fam)
        assert report.is_sic
        assert report.overlap_value == pytest.approx(1 / 576, abs=1e-15)
        assert report.identity_deviation < 1e-12


def test_verify_sic_tetrahedral(tetra_v):
    report = verify_sic(tetra_v)
    assert report.is_sic
    # normalized vector overlaps are 1/(d+1) = 1/3
    gram = np.abs(tetra_v.states.conj() @ tetra_v.states.T) ** 2
    off = ~np.eye(4, dtype=bool)
    assert np.abs(gram[off] - 1 / 3).max() < 1e-12


def test_verify_sic_fourier3(fourier3_families):
    for fam in fourier3_families:
        report = verify_sic(fam)
        assert report.is_sic, f"v={fam.v} failed with deviation {report.max_deviation}"


def test_verify_sic_rejects_v2():
    report = verify_sic(hadamard_sic_family(sylvester_hadamard(3), 2.0))
    assert not report.is_sic
    assert report.max_deviation > 0.01


def test_overlap_table_two_valued(hoggar_v, hoggar_vbar):
    # row m*8+n holds |inner(H_jk(v), H_mn(vbar))|^2 at column j*8+k
    tables = all_overlap_tables(hoggar_v, hoggar_vbar)
    assert tables.shape == (64, 64)
    for row in tables:
        zeros = row < 1e-10
        assert zeros.sum() == 28
        assert row[zeros].max() == pytest.approx(0.0, abs=1e-20)
        assert np.abs(row[~zeros] - 32.0).max() < 1e-10


def test_overlap_self_case(hoggar_v, hoggar_vbar):
    # j=m, k=n case: |d + v^2 - 1|^2 with v^2 = -3-4i gives |4-4i|^2 = 32
    tables = all_overlap_tables(hoggar_v, hoggar_vbar)
    assert tables[3 * 8 + 5, 3 * 8 + 5] == pytest.approx(32.0, abs=1e-10)


def test_overlap_table_d2(tetra_v, tetra_vbar):
    for row in all_overlap_tables(tetra_v, tetra_vbar):
        assert (row < 1e-10).sum() == 1
        nonzero = np.sort(row)[1:]
        assert np.abs(nonzero - nonzero[0]).max() < 1e-12


def test_parameter_magnitude_range():
    from hoggar import fourier_matrix

    # past 2**500 the squared vector norms (d - 1) + |v|^2 would overflow
    for hadamard in (sylvester_hadamard(1), fourier_matrix(3)):
        fam = hadamard_sic_family(hadamard, 2.0**499)
        assert np.isfinite(fam.states).all()
        for v in (1e200, 1e200j, complex(math.inf, 0), complex(math.nan, 0)):
            with pytest.raises(InvalidArgumentError):
                hadamard_sic_family(hadamard, v)


def test_overlap_table_rejects_mismatch(hoggar_v, tetra_vbar):
    with pytest.raises(InvalidArgumentError):
        all_overlap_tables(hoggar_v, tetra_vbar)
    with pytest.raises(InvalidArgumentError):
        all_overlap_tables(hoggar_v, hoggar_v)


def test_proof_formula_agreement(hoggar_v, hoggar_vbar):
    # raw numeric inner products match the closed-form case expansion everywhere
    signs = hoggar_v.hadamard.signs
    v = hoggar_v.v
    for m in range(8):
        for n in range(8):
            target = hoggar_vbar.raw[m * 8 + n]
            inner = hoggar_v.raw @ target.conj()
            for j in range(8):
                for k in range(8):
                    expected = closed_form_inner(signs, v, j, k, m, n)
                    assert abs(inner[j * 8 + k] - expected) < 1e-10


def test_diagonal_equivalence_reduction(rng, hoggar_v, hoggar_vbar):
    # |H_jk(v) . H_mn(vbar)| is unchanged when H = D H3 D' with unimodular diagonals
    h3 = sylvester_hadamard(3)
    reference = np.abs(all_overlap_tables(hoggar_v, hoggar_vbar))
    for _ in range(5):
        left = np.exp(2j * np.pi * rng.random(8))
        right = np.exp(2j * np.pi * rng.random(8))
        scrambled = HadamardMatrix.from_array(left[:, None] * h3.matrix * right[None, :])
        fam = hadamard_sic_family(scrambled, -1 + 2j)
        twin = conjugate_set(fam)
        scrambled_tables = np.abs(all_overlap_tables(fam, twin))
        assert np.abs(np.sqrt(scrambled_tables) - np.sqrt(reference)).max() < 1e-10


def test_conjugate_set_is_involution(hoggar_v):
    back = conjugate_set(conjugate_set(hoggar_v))
    assert np.abs(back.raw - hoggar_v.raw).max() == 0.0


def test_conjugate_set_entrywise(hoggar_v, hoggar_vbar):
    assert np.abs(hoggar_vbar.raw - hoggar_v.raw.conj()).max() == 0.0
    # real vectors are fixed points of the conjugation
    fam = hadamard_sic_family(sylvester_hadamard(3), -2.0)
    assert np.abs(conjugate_set(fam).raw - fam.raw).max() == 0.0


def test_conjugation_preserves_overlap_magnitudes(hoggar_v, hoggar_vbar):
    gram_v = np.abs(hoggar_v.raw.conj() @ hoggar_v.raw.T)
    gram_vbar = np.abs(hoggar_vbar.raw.conj() @ hoggar_vbar.raw.T)
    assert np.abs(gram_v - gram_vbar).max() < 1e-12


def test_pauli_operator_basics():
    identity = pauli_operator(PauliLabel.from_ints(0, 0))
    assert np.array_equal(identity, np.eye(8))
    x_last = pauli_operator(PauliLabel.from_ints(0, 1))
    perm = np.zeros((8, 8))
    for i in range(8):
        perm[i ^ 1, i] = 1
    assert np.array_equal(x_last.real, perm)
    for a in range(8):
        for b in range(8):
            op = pauli_operator(PauliLabel.from_ints(a, b))
            assert np.abs(op @ op.conj().T - np.eye(8)).max() < 1e-14
            square = op @ op
            sign = (-1) ** bin(a & b).count("1")
            assert np.abs(square - sign * np.eye(8)).max() < 1e-14
    with pytest.raises(UnsupportedError):
        pauli_operator(PauliLabel.from_ints(0, 0), d=4)


def test_covariance_both_twins(hoggar_v, hoggar_vbar):
    for fam in (hoggar_v, hoggar_vbar):
        report = verify_covariance(fam)
        assert report.covariant
        assert report.worst_deviation < 1e-12


def test_covariance_composition(hoggar_v):
    # acting with g then h moves vectors the same way as g + h, projectively
    g = PauliLabel.from_ints(3, 5)
    h = PauliLabel.from_ints(6, 1)
    op_g, op_h = pauli_operator(g), pauli_operator(h)
    op_sum = pauli_operator(g + h)
    for idx in (0, 17, 42):
        psi = hoggar_v.states[idx]
        assert projector_distance(op_h @ (op_g @ psi), op_sum @ psi) < 1e-12


def _permuted_rephased_fourier3():
    rng = np.random.default_rng(3)
    matrix = fourier_matrix(3).matrix[rng.permutation(3)][:, rng.permutation(3)]
    return matrix * np.exp(2j * np.pi * rng.random(3))[:, None] * np.exp(2j * np.pi * rng.random(3))[None, :]


@pytest.fixture(
    params=[f"d2-{i}" for i in range(8)] + [f"d3-{i}" for i in range(4)]
    + ["d8-v", "d8-vbar", "d8-permuted-sylvester", "d3-permuted-fourier"]
)
def group_family(request, permuted_sylvester_family):
    name = request.param
    if name == "d8-permuted-sylvester":
        return permuted_sylvester_family
    if name == "d3-permuted-fourier":
        return hadamard_sic_family(_permuted_rephased_fourier3(), 1 + SQRT3 * 1j)
    d, i = name[1], name[3:]
    if d == "8":
        return hadamard_sic_family(sylvester_hadamard(3), -1 + 2j if i == "v" else -1 - 2j)
    source = sylvester_hadamard(1) if d == "2" else fourier_matrix(3)
    return hadamard_sic_family(source, ADMISSIBLE_V[int(d)][int(i)])


def test_displacements_permute_the_lines(group_family):
    fam = group_family
    d = fam.d
    ops, rows, cols = displacements(fam)
    assert ops.shape == (d * d, d, d)
    for table in (rows, cols):
        assert (np.sort(table, axis=1) == np.arange(d)).all()
    for a in range(d):
        for b in range(d):
            op = ops[a * d + b]
            assert np.abs(op @ op.conj().T - np.eye(d)).max() < 1e-12
            for j in range(d):
                for k in range(d):
                    moved = op @ fam.states[j * d + k]
                    target = fam.states[rows[a, j] * d + cols[b, k]]
                    assert projector_distance(moved, target) < 1e-12
    report = verify_covariance(fam)
    assert report.covariant and report.worst_deviation < 1e-12


def test_displacements_are_the_pauli_operators_over_sylvester(hoggar_v):
    ops, rows, cols = displacements(hoggar_v)
    for a in range(8):
        for b in range(8):
            assert np.array_equal(ops[a * 8 + b], pauli_operator((a, b)))
    labels = np.arange(8)
    assert np.array_equal(rows, labels[:, None] ^ labels) and np.array_equal(cols, rows)


def test_covariance_requires_a_character_table():
    # a d = 4 Hadamard matrix from a one-parameter family off the group points:
    # its columns are not closed under entrywise multiplication
    z = np.exp(0.4j)
    matrix = np.array([[1, 1, 1, 1], [1, 1j * z, -1, -1j * z], [1, -1, 1, -1], [1, -1j * z, -1, 1j * z]])
    fam = hadamard_sic_family(matrix, 0)
    assert displacements(fam) is None
    with pytest.raises(UnsupportedError, match="character table"):
        verify_covariance(fam)


def test_identity_resolution_invariant(hoggar_v, hoggar_vbar):
    for fam in (hoggar_v, hoggar_vbar):
        total = fam.effects.sum(axis=0)
        assert np.abs(total - np.eye(8)).max() < 1e-12
        traces = np.einsum("nii->n", fam.effects).real
        assert np.abs(traces - 1 / 8).max() < 1e-14
