"""Construction of SIC-POVM candidates from Hadamard rows and their verification.

The construction takes a d x d complex Hadamard matrix H and a complex scalar v
and forms the d^2 vectors obtained from each row of H by multiplying one chosen
coordinate by v.  For specific (d, v) listed in ``ADMISSIBLE_V`` (d = 2, 3, 8)
the resulting lines are equiangular and the normalized rank-one effects form a
SIC-POVM; for d = 8 over the real Sylvester matrix with v = -1 +- 2i they are
the Hoggar lines.

Inner products follow the convention ``inner(x, y) = sum_l x_l * conj(y_l)``.
All projective comparisons use the phase-free entrywise-max distance between
rank-one projectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, HadamardMatrix, dephase, int_to_bits, sylvester_hadamard
from .errors import InvalidArgumentError, UnsupportedError

_SQRT3 = math.sqrt(3.0)
# every construction vector has squared norm (d - 1) + |v|^2; below this bound
# that sum and the products forming it stay finite
MAX_ABS_V = 2.0**500

# Parameters for which the construction is known to yield equiangular lines.
ADMISSIBLE_V = {
    2: tuple(
        s1 * (1 + s2 * _SQRT3) * (1 + s3 * 1j) / 2
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ),
    3: (0j, -2 + 0j, 1 + _SQRT3 * 1j, 1 - _SQRT3 * 1j),
    8: (-1 + 2j, -1 - 2j),
}

ADMISSIBLE_TOL = 1e-9


def admissible_parameter(d, v, real_hadamard):
    """Whether (d, v) is on the known admissible list (d=8 needs a real Hadamard)."""
    if d not in ADMISSIBLE_V:
        return False
    if d == 8 and not real_hadamard:
        return False
    return any(abs(v - a) <= ADMISSIBLE_TOL for a in ADMISSIBLE_V[d])


@dataclass(frozen=True)
class SicFamily:
    """The d^2 construction vectors of a (H, v) family plus derived effects.

    ``raw`` stacks the unnormalized vectors (row j*d+k for label (j,k)),
    ``states`` the unit-normalized ones, and ``effects`` the d x d matrices
    |phi><phi| / d.  Effects are materialized so identity-resolution checks are
    direct sums; memory is negligible at d <= 8.
    """

    d: int
    v: complex
    hadamard: HadamardMatrix
    raw: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    effects: np.ndarray = field(repr=False)
    admissible: bool = False

    def __post_init__(self):
        for name in ("raw", "states", "effects"):
            a = np.asarray(getattr(self, name), dtype=np.complex128).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def k(self):
        return self.d * self.d

    def flat_index(self, j, k):
        if not (0 <= j < self.d and 0 <= k < self.d):
            raise InvalidArgumentError(f"label ({j},{k}) out of range for d={self.d}")
        return j * self.d + k


def hadamard_sic_family(hadamard, v):
    """Build the d^2-vector family for (hadamard, v); admissibility is advisory.

    Any d >= 2 is accepted so that degenerate and inadmissible parameters stay
    constructible for negative tests; ``admissible`` records whether (d, v)
    is on the known list.
    """
    if not isinstance(hadamard, HadamardMatrix):
        hadamard = HadamardMatrix.from_array(hadamard)
    d = hadamard.d
    if d < 2:
        raise InvalidArgumentError("construction requires d >= 2")
    v = complex(v)
    if not abs(v) < MAX_ABS_V:
        raise InvalidArgumentError(f"|v| = {abs(v):.6g} is out of range: it must be below 2**500")
    raw = np.repeat(hadamard.matrix[:, None, :], d, axis=1).reshape(d * d, d).copy()
    cols = np.tile(np.arange(d), d)
    raw[np.arange(d * d), cols] *= v
    norms_sq = np.einsum("ni,ni->n", raw, raw.conj()).real
    if hadamard.is_real and np.abs(norms_sq - (d - 1 + abs(v) ** 2)).max() > 1e-10:
        raise InvalidArgumentError("construction vectors violate the (d-1)+|v|^2 norm identity")
    states = raw / np.sqrt(norms_sq)[:, None]
    effects = np.einsum("ni,nj->nij", states, states.conj()) / d
    return SicFamily(
        d=d,
        v=v,
        hadamard=hadamard,
        raw=raw,
        states=states,
        effects=effects,
        admissible=admissible_parameter(d, v, hadamard.is_real),
    )


def hoggar_family(conjugate=False):
    """The d=8 family over the Sylvester matrix with v = -1+2i (or its twin)."""
    v = -1 - 2j if conjugate else -1 + 2j
    return hadamard_sic_family(sylvester_hadamard(3), v)


def tetrahedral_family(conjugate=False):
    """The d=2 family with v = (1+sqrt3)(1+i)/2 (or its twin)."""
    v = (1 + _SQRT3) * (1 + 1j) / 2
    if conjugate:
        v = v.conjugate()
    return hadamard_sic_family(sylvester_hadamard(1), v)


def conjugate_set(fam):
    """The twin family (same Hadamard, conjugated parameter).

    For a real source this equals conjugating every coordinate in the
    canonical basis (the distinguished conjugation basis), entrywise; for a
    diagonally-rescaled real source the two agree projectively, the
    conjugation basis being the rescaled one.
    """
    return hadamard_sic_family(fam.hadamard, complex(fam.v).conjugate())


@dataclass(frozen=True)
class SicReport:
    is_sic: bool
    overlap_value: float
    expected_overlap: float
    max_deviation: float
    identity_deviation: float
    tolerance: float


def verify_sic(fam, tol=DEFAULT_TOL):
    """Check identity resolution and constant pairwise Hilbert-Schmidt products.

    ``is_sic`` holds iff the effects sum to the identity within ``tol`` and all
    distinct-pair products tr(Pi_i Pi_j) equal 1/(d^2 (d+1)) within ``tol``.
    """
    if fam.k == 0:
        raise InvalidArgumentError("empty family")
    d, k = fam.d, fam.k
    identity_dev = float(np.abs(fam.effects.sum(axis=0) - np.eye(d)).max())
    gram = fam.states.conj() @ fam.states.T
    hs = np.abs(gram) ** 2 / (d * d)
    expected = 1.0 / (d * d * (d + 1))
    off = ~np.eye(k, dtype=bool)
    overlap_dev = float(np.abs(hs[off] - expected).max())
    worst = max(overlap_dev, identity_dev)
    return SicReport(
        is_sic=worst <= tol,
        overlap_value=float(hs[off].mean()),
        expected_overlap=expected,
        max_deviation=overlap_dev,
        identity_deviation=identity_dev,
        tolerance=float(tol),
    )


@dataclass(frozen=True)
class OverlapTable:
    """Squared magnitudes |inner(H_jk(v), H_mn(vbar))|^2 for one target (m, n)."""

    m: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64).copy()
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    def zero_count(self, threshold=1e-10):
        return int((self.values < threshold).sum())

    def distinct_values(self, rtol=1e-9):
        """Sorted representatives of the value multiset, merged within rtol."""
        vals = np.sort(self.values.ravel())
        scale = max(vals[-1], 1.0)
        reps = [float(vals[0])]
        for x in vals[1:]:
            if x - reps[-1] > rtol * scale:
                reps.append(float(x))
        return reps


def _check_twin_pair(fam_v, fam_vbar):
    if fam_v.d != fam_vbar.d:
        raise InvalidArgumentError("families differ in dimension")
    if abs(complex(fam_v.v).conjugate() - complex(fam_vbar.v)) > 1e-12:
        raise InvalidArgumentError("family parameters are not complex conjugates")
    if not np.allclose(fam_v.hadamard.matrix, fam_vbar.hadamard.matrix, atol=1e-12):
        raise InvalidArgumentError("families are not built over the same Hadamard matrix")


def overlap_table(fam_v, fam_vbar, m, n):
    """Raw inner-product table of the (v, vbar) pair against target vector (m, n)."""
    _check_twin_pair(fam_v, fam_vbar)
    d = fam_v.d
    target = fam_vbar.raw[fam_vbar.flat_index(m, n)]
    inner = fam_v.raw @ target.conj()
    return OverlapTable(m=m, n=n, values=(np.abs(inner) ** 2).reshape(d, d))


def all_overlap_tables(fam_v, fam_vbar):
    """All d^2 overlap tables as one (d^2, d^2) array, row = target flat index."""
    _check_twin_pair(fam_v, fam_vbar)
    return np.abs(fam_vbar.raw.conj() @ fam_v.raw.T) ** 2


@dataclass(frozen=True)
class PauliLabel:
    """A pair of binary triples (alpha, beta) indexing the three-qubit Pauli group."""

    alpha: tuple[int, int, int]
    beta: tuple[int, int, int]

    @classmethod
    def from_ints(cls, a, b):
        return cls(alpha=int_to_bits(a, 3), beta=int_to_bits(b, 3))

    def __add__(self, other):
        return PauliLabel(
            alpha=tuple(a ^ b for a, b in zip(self.alpha, other.alpha)),
            beta=tuple(a ^ b for a, b in zip(self.beta, other.beta)),
        )


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def pauli_operator(label, d=8):
    """The 8x8 unitary Z^a1 X^b1 (x) Z^a2 X^b2 (x) Z^a3 X^b3, MSB-first qubit order."""
    if d != 8:
        raise UnsupportedError("Pauli operators are implemented for d=8 (three qubits) only")
    if not isinstance(label, PauliLabel):
        alpha, beta = label
        if isinstance(alpha, (int, np.integer)):
            label = PauliLabel.from_ints(alpha, beta)
        else:
            label = PauliLabel(alpha=tuple(alpha), beta=tuple(beta))
    op = np.eye(1, dtype=np.complex128)
    for a, b in zip(label.alpha, label.beta):
        factor = np.linalg.matrix_power(_SIGMA_Z, a) @ np.linalg.matrix_power(_SIGMA_X, b)
        op = np.kron(op, factor)
    return op


def projector_distance(x, y):
    """Entrywise-max distance between the rank-one projectors of unit vectors."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    return float(np.abs(np.outer(x, x.conj()) - np.outer(y, y.conj())).max())


@dataclass(frozen=True)
class CovarianceReport:
    covariant: bool
    worst_deviation: float
    tolerance: float


def _product_table(g):
    """``t[b, c]``: the one column of ``g`` equal to columns b and c multiplied entrywise, or None."""
    hits = np.abs(g[:, :, None, None] * g[:, None, :, None] - g[:, None, None, :]).max(axis=0) <= DEFAULT_TOL
    return hits.argmax(axis=2) if (hits.sum(axis=2) == 1).all() else None


def displacements(fam):
    """The displacement operators of ``fam``, derived from its Hadamard matrix.

    Returns ``(ops, rows, cols)``: ``ops[a * d + b]`` is the unitary
    ``D(a, b)``, which maps line ``(j, k)`` of the family to line
    ``(rows[a, j], cols[b, k])``.  With ``c`` the phases of the matrix's row 0
    and ``g`` the matrix's :func:`~hoggar.algebra.dephase`, ``cols`` and
    ``rows`` are the product tables of the columns and of the rows of ``g``,
    and ``D(a, b) = diag(c) diag(g[a]) P_b diag(conj c)`` with
    ``(P_b x)[cols[b, l]] = x[l]``.  ``g`` is the character table of an
    abelian group exactly when both tables exist; otherwise the result is
    None.  Permuted and rephased Sylvester and Fourier matrices are character
    tables once dephased, and so is every Hadamard matrix at d = 2 and 3 and
    every real one at d = 8.
    """
    m = fam.hadamard.matrix
    d = fam.d
    c = m[0] / np.abs(m[0])
    g = dephase(fam.hadamard).matrix
    cols, rows = _product_table(g), _product_table(g.T)
    if cols is None or rows is None:
        return None
    shifts = np.zeros((d, d, d), dtype=np.complex128)
    shifts[np.arange(d)[:, None], cols, np.arange(d)[None, :]] = 1.0
    ops = (c[None, :, None] * g[:, None, :, None]) * shifts[None] * c.conj()
    return ops.reshape(d * d, d, d), rows, cols


def verify_covariance(fam, tol=DEFAULT_TOL):
    """Check that every displacement ``D(a, b)`` moves the projectors as its label says.

    ``D(a, b)`` must map the projector of line ``(j, k)`` onto that of line
    ``(rows[a, j], cols[b, k])`` (see :func:`displacements`); at d = 8 over
    the Sylvester matrix the displacements are the three-qubit Pauli
    operators and the action is label addition.  A family whose Hadamard
    matrix is not a character table raises :class:`UnsupportedError`.
    Comparisons are projective, so phases never enter.
    """
    group = displacements(fam)
    if group is None:
        raise UnsupportedError("covariance check requires a Hadamard matrix that is a character table")
    ops, rows, cols = group
    d = fam.d
    j, k = np.divmod(np.arange(fam.k), d)
    p_states = np.einsum("ni,nj->nij", fam.states, fam.states.conj())
    worst = 0.0
    for a in range(d):
        for b in range(d):
            moved = fam.states @ ops[a * d + b].T
            p_moved = np.einsum("ni,nj->nij", moved, moved.conj())
            worst = max(worst, float(np.abs(p_moved - p_states[rows[a, j] * d + cols[b, k]]).max()))
    return CovarianceReport(covariant=worst <= tol, worst_deviation=worst, tolerance=float(tol))
