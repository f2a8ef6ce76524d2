"""Generalized Bloch representation and the twin-simplex geometry checks.

States embed into the real (d^2-1)-dimensional space of traceless Hermitian
matrices via coordinates sqrt(d/(d-1)) * tr(rho * basis_a), a scale chosen so
pure states land on the unit sphere.  The basis is the orthonormal generalized
Gell-Mann family ordered as symmetric pairs, antisymmetric pairs, then diagonal
elements; each element carries a flag marking real-symmetric members, which is
what turns complex conjugation of states into a coordinate reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import StateSet
from .errors import InvalidArgumentError, UnsupportedError
from .sic import SicFamily


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal traceless Hermitian basis with a symmetric/antisymmetric mask."""

    d: int
    elements: np.ndarray
    symmetric_mask: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        e = np.asarray(self.elements, dtype=np.complex128).copy()
        m = np.asarray(self.symmetric_mask, dtype=bool).copy()
        e.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "elements", e)
        object.__setattr__(self, "symmetric_mask", m)

    @property
    def size(self):
        return self.elements.shape[0]

    def symmetric_count(self):
        return int(self.symmetric_mask.sum())


def hermitian_basis(d):
    """The d^2-1 generalized Gell-Mann matrices, orthonormal under tr(AB)."""
    if d < 2:
        raise InvalidArgumentError("dimension must be >= 2")
    elements, names, symmetric = [], [], []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = m[j, i] = inv_sqrt2
            elements.append(m)
            names.append(f"sym_{i}_{j}")
            symmetric.append(True)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = -1j * inv_sqrt2
            m[j, i] = 1j * inv_sqrt2
            elements.append(m)
            names.append(f"asym_{i}_{j}")
            symmetric.append(False)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        m = np.diag(diag / math.sqrt(l * (l + 1))).astype(np.complex128)
        elements.append(m)
        names.append(f"diag_{l}")
        symmetric.append(True)
    return HermitianBasis(
        d=d,
        elements=np.stack(elements),
        symmetric_mask=np.array(symmetric),
        names=tuple(names),
    )


def _vectors_of(states):
    if isinstance(states, SicFamily):
        return states.states, states.d
    if not isinstance(states, StateSet):
        states = StateSet(states, np.shape(states)[-1] if np.ndim(states) else 0)
    return states.vectors, states.d


def bloch_matrix(states, basis):
    """Stack of Bloch vectors for a family / state set / array of pure vectors."""
    vectors, d = _vectors_of(states)
    if d != basis.d:
        raise InvalidArgumentError("state dimension does not match the basis")
    scale = math.sqrt(d / (d - 1))
    return scale * np.einsum("ni,aij,nj->na", vectors.conj(), basis.elements, vectors).real


@dataclass(frozen=True)
class SimplexReport:
    passed: bool
    norm_deviation: float
    gram_deviation: float
    centroid_deviation: float
    expected_inner: float
    tolerance: float
    coords: np.ndarray = field(repr=False, compare=False)  # the Bloch matrix measured


def simplex_check(states, basis, tol=1e-12):
    """Regular-simplex test: unit norms, constant pairwise inner products, zero centroid."""
    vectors, d = _vectors_of(states)
    if vectors.shape[0] != d * d:
        raise InvalidArgumentError(f"expected d^2 = {d * d} states, got {vectors.shape[0]}")
    coords = bloch_matrix(states, basis)
    gram = coords @ coords.T
    norms = np.sqrt(np.diag(gram))
    expected = -1.0 / (d * d - 1)
    off = ~np.eye(d * d, dtype=bool)
    norm_dev = float(np.abs(norms - 1.0).max())
    gram_dev = float(np.abs(gram[off] - expected).max())
    centroid_dev = float(np.abs(coords.sum(axis=0)).max())
    passed = max(norm_dev, gram_dev, centroid_dev) <= tol
    return SimplexReport(
        passed=passed,
        norm_deviation=norm_dev,
        gram_deviation=gram_dev,
        centroid_deviation=centroid_dev,
        expected_inner=expected,
        tolerance=float(tol),
        coords=coords,
    )


@dataclass(frozen=True)
class ReflectionReport:
    passed: bool
    worst_deviation: float
    worst_index: int
    symmetric_dimension: int
    tolerance: float


def reflect_coordinates(coords, basis):
    """Negate antisymmetric-flagged coordinates (the Bloch image of transposition)."""
    signs = np.where(basis.symmetric_mask, 1.0, -1.0)
    return np.asarray(coords) * signs


def transpose_reflection_check(states_v, states_vbar, basis, tol=1e-12):
    """Index-aligned check that the twin set is the coordinate reflection of the set.

    Only meaningful when the distinguished conjugation basis is the canonical
    one, i.e. for real-Hadamard sources; complex sources are rejected.
    """
    for s in (states_v, states_vbar):
        if isinstance(s, SicFamily) and not s.hadamard.is_real:
            raise UnsupportedError(
                "transpose reflection requires a real-Hadamard source (canonical conjugation basis)"
            )
    coords_v = bloch_matrix(states_v, basis)
    coords_vbar = bloch_matrix(states_vbar, basis)
    if coords_v.shape != coords_vbar.shape:
        raise InvalidArgumentError("twin sets differ in cardinality")
    residual = np.abs(reflect_coordinates(coords_v, basis) - coords_vbar).max(axis=1)
    worst = int(np.argmax(residual))
    return ReflectionReport(
        passed=float(residual.max()) <= tol,
        worst_deviation=float(residual.max()),
        worst_index=worst,
        symmetric_dimension=basis.symmetric_count(),
        tolerance=float(tol),
    )
