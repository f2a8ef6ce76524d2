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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, HadamardMatrix, dephase, sylvester_hadamard
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

    @functools.cached_property
    def displacements(self):
        """The family's :class:`Displacements`, built on first use, or None without a character table."""
        return _displacements(self)


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


def _check_twin_pair(fam_v, fam_vbar):
    if fam_v.d != fam_vbar.d:
        raise InvalidArgumentError("families differ in dimension")
    if abs(complex(fam_v.v).conjugate() - complex(fam_vbar.v)) > 1e-12:
        raise InvalidArgumentError("family parameters are not complex conjugates")
    if not np.allclose(fam_v.hadamard.matrix, fam_vbar.hadamard.matrix, atol=1e-12):
        raise InvalidArgumentError("families are not built over the same Hadamard matrix")


def _projector(x):
    """Rank-one projector of the normalized ``x``."""
    x = np.asarray(x, dtype=np.complex128)
    x = x / np.linalg.norm(x)
    return np.outer(x, x.conj())


def _projector_distances(projectors, proj):
    """Entrywise-max distance from each projector of a ``(n, d, d)`` stack to ``proj``."""
    return np.abs(projectors - proj).max(axis=(1, 2))


def projector_distance(x, y):
    """Entrywise-max distance between the rank-one projectors of unit vectors."""
    return float(_projector_distances(_projector(x)[None], _projector(y))[0])


@dataclass(frozen=True)
class CovarianceReport:
    covariant: bool
    worst_deviation: float
    tolerance: float


def _product_table(g):
    """``t[b, c]``: the one column of ``g`` equal to columns b and c multiplied entrywise, or None."""
    hits = np.abs(g[:, :, None, None] * g[:, None, :, None] - g[:, None, None, :]).max(axis=0) <= DEFAULT_TOL
    return hits.argmax(axis=2) if (hits.sum(axis=2) == 1).all() else None


@dataclass(frozen=True)
class Displacements:
    """The displacement group of a family, read off its Hadamard matrix (:attr:`SicFamily.displacements`).

    ``ops[g]`` is the unitary ``D(a, b)`` for ``g = a * d + b``, and
    ``perm[g, p]`` is the line that ``D_g`` sends line ``p`` to.  The group
    acts regularly on the lines, so ``perm`` is also the addition law of the
    flat labels.  Both arrays are read-only.
    """

    ops: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)


def _displacements(fam):
    """The :class:`Displacements` of ``fam``, or None.

    With ``c`` the phases of the matrix's row 0 and ``g`` the matrix's
    :func:`~hoggar.algebra.dephase`, ``cols`` and ``rows`` are the product
    tables of the columns and of the rows of ``g``; ``D(a, b) = diag(c)
    diag(g[a]) P_b diag(conj c)`` with ``(P_b x)[cols[b, l]] = x[l]``, and it
    maps line ``(j, k)`` to line ``(rows[a, j], cols[b, k])``.  ``g`` is the
    character table of an abelian group exactly when both tables exist;
    otherwise the result is None.  Permuted and rephased Sylvester and Fourier
    matrices are character tables once dephased, and so is every Hadamard
    matrix at d = 2 and 3 and every real one at d = 8.
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
    ops = ((c[None, :, None] * g[:, None, :, None]) * shifts[None] * c.conj()).reshape(d * d, d, d)
    perm = (rows[:, None, :, None] * d + cols[None, :, None, :]).reshape(d * d, d * d)
    ops.setflags(write=False)
    perm.setflags(write=False)
    return Displacements(ops=ops, perm=perm)


def verify_covariance(fam, tol=DEFAULT_TOL):
    """Check that every displacement ``D_g`` moves the projectors as its label says.

    ``D_g`` must map the projector of line ``p`` onto that of line
    ``perm[g, p]`` (see :attr:`SicFamily.displacements`); at d = 8 over the
    Sylvester matrix the displacements are the three-qubit Pauli operators
    and the action is label addition.  A family whose Hadamard matrix is not
    a character table raises :class:`UnsupportedError`.  Comparisons are
    projective, so phases never enter.
    """
    group = fam.displacements
    if group is None:
        raise UnsupportedError("covariance check requires a Hadamard matrix that is a character table")
    p_states = np.einsum("ni,nj->nij", fam.states, fam.states.conj())
    worst = 0.0
    for op, targets in zip(group.ops, group.perm):
        moved = fam.states @ op.T
        p_moved = np.einsum("ni,nj->nij", moved, moved.conj())
        worst = max(worst, float(np.abs(p_moved - p_states[targets]).max()))
    return CovarianceReport(covariant=worst <= tol, worst_deviation=worst, tolerance=float(tol))
