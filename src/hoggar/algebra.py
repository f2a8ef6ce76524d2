"""Complex Hadamard matrices and the binary index conventions used everywhere else.

A d x d matrix H is Hadamard when every entry is unimodular and H @ H^dag = d*I.
Real Hadamard matrices additionally keep an exact +-1 integer view (``signs``)
so that combinatorial counts downstream are exact rather than float-thresholded.

Index convention, fixed globally: integer index j in 0..2^n-1 corresponds to its
MSB-first binary expansion (j_1, ..., j_n).  With this convention the Sylvester
matrix built by repeated Kronecker products has entries (-1)^<j,k> where <j,k>
is the mod-2 dot product of the expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_TOL = 1e-12


def _plain(x):
    """``x`` for an error message: a numpy scalar becomes the Python scalar it holds."""
    return x.item() if isinstance(x, np.generic) else x


def int_to_bits(x, width=3):
    """MSB-first binary expansion of ``x`` as a tuple of ``width`` bits."""
    if x < 0 or x >= (1 << width):
        raise InvalidArgumentError(f"index {x} out of range for {width} bits")
    return tuple((x >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True)
class HadamardCheck:
    """Result of a Hadamard-condition test with the worst deviation observed."""

    ok: bool
    max_deviation: float
    unimodular_deviation: float
    gram_deviation: float
    tolerance: float


@dataclass(frozen=True)
class HadamardMatrix:
    """A validated complex Hadamard matrix with an optional exact real view.

    ``matrix`` is complex128; when ``is_real`` is set, ``signs`` holds the exact
    +-1 integers and ``matrix`` equals ``signs`` cast to complex.
    """

    matrix: np.ndarray
    is_real: bool = False
    signs: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"Hadamard matrix must be square, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.is_real:
            if self.signs is None:
                raise InvalidArgumentError("real Hadamard requires exact signs")
            s = np.asarray(self.signs, dtype=np.int64).copy()
            if s.shape != m.shape or not np.isin(s, (-1, 1)).all():
                raise InvalidArgumentError("signs must be a matching matrix of +-1")
            s.setflags(write=False)
            object.__setattr__(self, "signs", s)

    @property
    def d(self):
        return self.matrix.shape[0]

    @classmethod
    def from_array(cls, arr, tol=DEFAULT_TOL):
        """Validate ``arr`` as a Hadamard matrix; detects and snaps exact +-1 entries."""
        arr = np.asarray(arr, dtype=np.complex128)
        check = is_hadamard(arr, tol)
        if not check.ok:
            raise InvalidArgumentError(
                f"matrix is not Hadamard within {tol:g} (deviation {check.max_deviation:.3e})"
            )
        real_like = (
            np.abs(arr.imag).max() <= tol
            and np.abs(np.abs(arr.real) - 1.0).max() <= tol
        )
        if real_like:
            signs = np.where(arr.real > 0, 1, -1).astype(np.int64)
            return cls(matrix=signs.astype(np.complex128), is_real=True, signs=signs)
        return cls(matrix=arr)


def sylvester_hadamard(n):
    """The 2^n x 2^n real Sylvester Hadamard matrix, entry (j,k) = (-1)^<j,k>.

    Built as the n-fold Kronecker power of [[1,1],[1,-1]], which matches the
    bit dot-product formula entrywise under the MSB-first index convention.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"Sylvester exponent must be a positive integer, got {_plain(n)!r}")
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    signs = reduce(np.kron, [block] * n)
    return HadamardMatrix(matrix=signs.astype(np.complex128), is_real=True, signs=signs)


def fourier_matrix(d):
    """The d x d discrete Fourier Hadamard matrix, entry (j,k) = exp(2*pi*i*j*k/d)."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidArgumentError(f"Fourier dimension must be an integer >= 2, got {_plain(d)!r}")
    jk = np.outer(np.arange(d), np.arange(d))
    mat = np.exp(2j * np.pi * jk / d)
    if d == 2:
        return HadamardMatrix.from_array(np.round(mat.real))
    return HadamardMatrix(matrix=mat)


def is_hadamard(M, tol=DEFAULT_TOL):
    """Test the Hadamard condition; returns a report with the worst deviation."""
    if isinstance(M, HadamardMatrix):
        M = M.matrix
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgumentError(f"is_hadamard requires a square matrix, got shape {M.shape}")
    d = M.shape[0]
    uni_dev = float(np.abs(np.abs(M) - 1.0).max())
    gram_dev = float(np.abs(M @ M.conj().T - d * np.eye(d)).max())
    worst = max(uni_dev, gram_dev)
    return HadamardCheck(
        ok=worst <= tol,
        max_deviation=worst,
        unimodular_deviation=uni_dev,
        gram_deviation=gram_dev,
        tolerance=float(tol),
    )


def dephase(H, tol=DEFAULT_TOL):
    """Diagonal-equivalent canonical form with first row and column equal to 1.

    Multiplies rows by the conjugate phases of column 0 and then columns by the
    conjugate phases of the resulting row 0; both operations are diagonal
    unitaries, so the output is Hadamard-equivalent to the input.  Idempotent.
    """
    if not isinstance(H, HadamardMatrix):
        H = HadamardMatrix.from_array(H, tol)
    m = H.matrix
    left = np.conj(m[:, 0] / np.abs(m[:, 0]))
    m2 = left[:, None] * m
    right = np.conj(m2[0, :] / np.abs(m2[0, :]))
    m3 = m2 * right[None, :]
    return HadamardMatrix.from_array(m3, tol)
