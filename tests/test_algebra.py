import numpy as np
import pytest

from hoggar import HadamardMatrix, InvalidArgumentError, dephase, fourier_matrix, is_hadamard, sylvester_hadamard
from hoggar.algebra import int_to_bits


def test_sylvester_base_block():
    h = sylvester_hadamard(1)
    assert np.array_equal(h.signs, [[1, 1], [1, -1]])
    assert h.is_real


def test_sylvester_matches_bit_dot_product_formula():
    h = sylvester_hadamard(3)
    for j in range(8):
        for k in range(8):
            bits_j, bits_k = int_to_bits(j, 3), int_to_bits(k, 3)
            dot = sum(a * b for a, b in zip(bits_j, bits_k))
            assert h.signs[j, k] == (-1) ** dot
    # spot-check iota=(1,0,1), kappa=(1,1,1): exponent 1+0+1
    assert h.signs[5, 7] == 1


def test_sylvester_first_row_col_and_minus_count():
    h = sylvester_hadamard(3)
    assert (h.signs[0] == 1).all() and (h.signs[:, 0] == 1).all()
    assert (h.signs == -1).sum() == 28


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sylvester_row_products_exact(n):
    signs = sylvester_hadamard(n).signs
    d = 2**n
    gram = signs @ signs.T
    assert np.array_equal(gram, d * np.eye(d, dtype=np.int64))


def test_real_row_pairs_split_evenly():
    # row orthogonality over +-1 entries forces exactly d/2 sign disagreements
    signs = sylvester_hadamard(3).signs
    for j in range(8):
        for m in range(8):
            if j != m:
                assert (signs[j] * signs[m] == -1).sum() == 4


def test_sylvester_rejects_bad_exponent():
    with pytest.raises(InvalidArgumentError):
        sylvester_hadamard(0)
    # numpy scalars show as plain numbers, not as np.int64(0)
    with pytest.raises(InvalidArgumentError, match=r"integer, got 0$"):
        sylvester_hadamard(np.int64(0))


def test_fourier_small_cases():
    f2 = fourier_matrix(2)
    assert np.array_equal(f2.signs, [[1, 1], [1, -1]])
    f3 = fourier_matrix(3)
    omega = np.exp(2j * np.pi / 3)
    expected = np.array([[1, 1, 1], [1, omega, omega**2], [1, omega**2, omega**4]])
    assert np.abs(f3.matrix - expected).max() < 1e-14
    gram = f3.matrix @ f3.matrix.conj().T
    assert np.abs(gram - 3 * np.eye(3)).max() < 1e-14


def test_fourier_rejects_bad_dimension():
    with pytest.raises(InvalidArgumentError):
        fourier_matrix(1)
    with pytest.raises(InvalidArgumentError, match=r">= 2, got 1$"):
        fourier_matrix(np.int64(1))


def test_is_hadamard_cases():
    assert is_hadamard(sylvester_hadamard(3)).ok
    assert is_hadamard(sylvester_hadamard(3)).max_deviation == 0.0
    assert is_hadamard(fourier_matrix(3), tol=1e-14).ok
    bad = is_hadamard(np.ones((2, 2), dtype=complex))
    assert not bad.ok and bad.max_deviation >= 2.0  # rows not orthogonal
    with pytest.raises(InvalidArgumentError):
        is_hadamard(np.ones((2, 3), dtype=complex))


def test_dephase_fixed_point_and_inverse():
    h3 = sylvester_hadamard(3)
    assert np.array_equal(dephase(h3).signs, h3.signs)
    scaled = h3.matrix.copy()
    scaled[0] *= 1j
    restored = dephase(HadamardMatrix.from_array(scaled))
    assert np.abs(restored.matrix - h3.matrix).max() < 1e-14


def test_dephase_random_rescaled_sylvester_is_real(rng):
    h3 = sylvester_hadamard(3)
    for _ in range(10):
        left = np.exp(2j * np.pi * rng.random(8))
        right = np.exp(2j * np.pi * rng.random(8))
        scrambled = left[:, None] * h3.matrix * right[None, :]
        out = dephase(HadamardMatrix.from_array(scrambled))
        assert out.is_real
        assert (out.signs[0] == 1).all() and (out.signs[:, 0] == 1).all()
        # dephase is idempotent and preserves the Hadamard property
        again = dephase(out)
        assert np.array_equal(again.signs, out.signs)
        assert is_hadamard(out).ok


def test_bit_helpers_roundtrip():
    # MSB-first, as the Sylvester spot check above reads iota=(1,0,1) and kappa=(1,1,1)
    assert [int_to_bits(x, 3) for x in (5, 7)] == [(1, 0, 1), (1, 1, 1)]
    # componentwise mod-2 addition is self-inverse
    a, b = 0b101, 0b110
    assert (a ^ b) ^ b == a
    with pytest.raises(InvalidArgumentError):
        int_to_bits(8, 3)
