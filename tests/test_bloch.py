import math

import numpy as np
import pytest

from hoggar import (
    InvalidArgumentError,
    StateSet,
    UnsupportedError,
    bloch_matrix,
    hermitian_basis,
    random_pure_state,
    reflect_coordinates,
    simplex_check,
    transpose_reflection_check,
)


@pytest.mark.parametrize("d", range(2, 9))
def test_basis_counts_and_orthonormality(d):
    basis = hermitian_basis(d)
    assert basis.size == d * d - 1
    assert basis.symmetric_count() == (d + 2) * (d - 1) // 2
    flat = basis.elements.reshape(basis.size, -1)
    gram = (flat.conj() @ flat.T).real
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-14
    traces = np.einsum("aii->a", basis.elements)
    assert np.abs(traces).max() < 1e-14
    for elem, sym in zip(basis.elements, basis.symmetric_mask):
        assert np.abs(elem - elem.conj().T).max() < 1e-14  # Hermitian
        expected = elem if sym else -elem
        assert np.abs(elem.T - expected).max() < 1e-14


def test_basis_d2_matches_pauli_directions():
    basis = hermitian_basis(2)
    sx = np.array([[0, 1], [1, 0]]) / math.sqrt(2)
    sy = np.array([[0, -1j], [1j, 0]]) / math.sqrt(2)
    sz = np.array([[1, 0], [0, -1]]) / math.sqrt(2)
    assert np.abs(basis.elements[0] - sx).max() < 1e-15
    assert np.abs(basis.elements[1] - sy).max() < 1e-15
    assert np.abs(basis.elements[2] - sz).max() < 1e-15
    assert list(basis.symmetric_mask) == [True, False, True]


def test_bloch_vector_basics(hoggar_v, rng):
    basis = hermitian_basis(8)
    psi = random_pure_state(8, rng)
    assert np.linalg.norm(bloch_matrix([psi], basis)[0]) == pytest.approx(1.0, abs=1e-12)
    b0, b1 = bloch_matrix(hoggar_v.states[:2], basis)
    assert float(b0 @ b1) == pytest.approx(-1 / 63, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        bloch_matrix(np.eye(4)[:1], basis)


def test_bloch_isometry(rng):
    basis = hermitian_basis(8)
    for _ in range(50):
        a = random_pure_state(8, rng)
        b = random_pure_state(8, rng)
        hs = abs(np.vdot(a, b)) ** 2
        ba, bb = bloch_matrix([a, b], basis)
        bdot = float(ba @ bb)
        assert hs == pytest.approx(1 / 8 + (7 / 8) * bdot, abs=1e-12)


def test_simplex_check_hoggar(hoggar_v, hoggar_vbar):
    basis = hermitian_basis(8)
    for fam in (hoggar_v, hoggar_vbar):
        report = simplex_check(fam, basis, tol=1e-12)
        assert report.passed
        assert report.expected_inner == pytest.approx(-1 / 63)


def test_simplex_check_tetrahedral(tetra_v, tetra_vbar):
    basis = hermitian_basis(2)
    for fam in (tetra_v, tetra_vbar):
        report = simplex_check(fam, basis, tol=1e-12)
        assert report.passed
        assert report.expected_inner == pytest.approx(-1 / 3)


def test_simplex_check_repeated_state_fails(hoggar_v):
    basis = hermitian_basis(8)
    vectors = np.array(hoggar_v.states)
    vectors[1] = vectors[0]
    report = simplex_check(StateSet(vectors=vectors, d=8), basis, tol=1e-12)
    assert not report.passed
    with pytest.raises(InvalidArgumentError):
        simplex_check(StateSet(vectors=vectors[:10], d=8), basis)


def test_reflection_involution(rng):
    basis = hermitian_basis(8)
    coords = rng.standard_normal((5, 63))
    assert np.array_equal(reflect_coordinates(reflect_coordinates(coords, basis), basis), coords)


def test_transpose_consistency_random_states(rng):
    basis = hermitian_basis(8)
    # transposing |psi><psi| gives the projector of conj(psi)
    psi = random_pure_state(8, rng, size=1000)
    direct = bloch_matrix(psi.conj(), basis)
    reflected = reflect_coordinates(bloch_matrix(psi, basis), basis)
    assert np.abs(direct - reflected).max() < 1e-12


def test_transpose_reflection_hoggar(hoggar_v, hoggar_vbar):
    basis = hermitian_basis(8)
    report = transpose_reflection_check(hoggar_v, hoggar_vbar, basis, tol=1e-12)
    assert report.passed
    assert report.symmetric_dimension == 35


def test_transpose_reflection_d2(tetra_v, tetra_vbar):
    basis = hermitian_basis(2)
    report = transpose_reflection_check(tetra_v, tetra_vbar, basis, tol=1e-12)
    assert report.passed
    assert report.symmetric_dimension == 2


def test_real_state_fixed_by_reflection():
    basis = hermitian_basis(8)
    real_state = np.full(8, 1 / math.sqrt(8), dtype=complex)
    coords = bloch_matrix([real_state], basis)
    assert np.abs(reflect_coordinates(coords, basis) - coords).max() < 1e-15


def test_transpose_reflection_rejects_complex_source(fourier3_families):
    from hoggar import conjugate_set

    fam = fourier3_families[1]
    twin = conjugate_set(fam)
    basis = hermitian_basis(3)
    with pytest.raises(UnsupportedError):
        transpose_reflection_check(fam, twin, basis)


def test_bloch_matrix_matches_vectors(hoggar_v):
    # reference: the coordinates sqrt(d/(d-1)) tr(rho b_a) of each projector rho
    basis = hermitian_basis(8)
    matrix = bloch_matrix(hoggar_v, basis)
    rho = np.outer(hoggar_v.states[17], hoggar_v.states[17].conj())
    single = math.sqrt(8 / 7) * np.einsum("aij,ji->a", basis.elements, rho).real
    assert np.abs(matrix[17] - single).max() < 1e-14
