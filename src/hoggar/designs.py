"""Projective t-design tests and the combinatorics of the zero pattern.

Frame potentials use the full double sum over ordered pairs including the
diagonal, matching the reference moment ``t! (d-1)! / (t+d-1)!`` of the
unitarily invariant measure.  The zero-block machinery labels the 64 lines
flat, ``iota*8 + kappa``, and adds labels by the line permutation of the
family's own displacement group (:attr:`hoggar.sic.SicFamily.displacements`).
All design parameters are measured from the data, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import int_to_bits
from .errors import InvalidArgumentError, NotADesignError
from .sic import _check_twin_pair

# the group law of the flat labels over the Sylvester matrix: Z_2^6 as XOR
_SYLVESTER_LAW = np.bitwise_xor.outer(np.arange(64), np.arange(64))
_SYLVESTER_LAW.setflags(write=False)
# the three bits of each coordinate of a flat label (iota, kappa) or (mu, nu)
_BITS = tuple(int_to_bits(x, 3) for x in range(8))
ZERO_OVERLAP = 1e-10  # twin overlaps |<a|b>| of the raw vectors are exactly 0 or at least sqrt(32)


@dataclass(frozen=True)
class StateSet:
    """A finite set of pure states kept as unit vectors (projector view derived)."""

    vectors: np.ndarray
    d: int

    def __post_init__(self):
        a = np.asarray(self.vectors, dtype=np.complex128).copy()
        if a.ndim != 2 or a.shape[1] != self.d:
            raise InvalidArgumentError("state set must be a (k, d) array of vectors")
        norms = np.linalg.norm(a, axis=1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise InvalidArgumentError("state-set vectors must be normalized")
        a.setflags(write=False)
        object.__setattr__(self, "vectors", a)

    @classmethod
    def from_family(cls, fam):
        return cls(vectors=fam.states, d=fam.d)

    @property
    def size(self):
        return self.vectors.shape[0]

    def overlaps(self):
        """Matrix of tr(rho_j rho_m) = |<psi_j|psi_m>|^2 over all ordered pairs."""
        gram = self.vectors.conj() @ self.vectors.T
        return np.abs(gram) ** 2


def frame_potential(state_set, t):
    """(1/k^2) * sum over ordered pairs of tr(rho_j rho_m)^t, diagonal included."""
    if t < 1:
        raise InvalidArgumentError("order t must be >= 1")
    k = state_set.size
    if k == 0:
        raise InvalidArgumentError("state set is empty")
    return float((state_set.overlaps() ** t).sum() / (k * k))


def haar_moment(d, t):
    """The reference pair moment t! (d-1)! / (t+d-1)! of the invariant measure."""
    if d < 2 or t < 1:
        raise InvalidArgumentError("need d >= 2 and t >= 1")
    return math.factorial(t) * math.factorial(d - 1) / math.factorial(t + d - 1)


@dataclass(frozen=True)
class ZeroBlockDesign:
    """64 zero blocks indexed by flat (mu, nu); members are flat (iota, kappa) points.

    ``law[b, p]`` is point ``p`` translated by ``b`` in the displacement group (not serialized).
    """

    blocks: tuple[tuple[int, ...], ...]
    params: tuple[int, int, int]
    law: np.ndarray = field(repr=False, compare=False)

    @property
    def point_count(self):
        return self.params[0]

    def incidence(self):
        """0/1 incidence matrix, rows = blocks, columns = points."""
        v = self.point_count
        inc = np.zeros((len(self.blocks), v), dtype=np.int64)
        for b, members in enumerate(self.blocks):
            inc[b, list(members)] = 1
        return inc

    def to_dict(self):
        return {
            "points": self.point_count,
            "params": list(self.params),
            "blocks": [
                {
                    "mu": list(_BITS[b >> 3]),
                    "nu": list(_BITS[b & 7]),
                    "members": [[list(_BITS[p >> 3]), list(_BITS[p & 7])] for p in members],
                }
                for b, members in enumerate(self.blocks)
            ],
        }


def zero_blocks(fam_v, fam_vbar):
    """Extract the zero blocks of the twin overlap tables and measure (v, k, lambda).

    Its ``law`` is ``fam_v.displacements.perm`` (:attr:`~hoggar.sic.SicFamily.displacements`).

    Raises :class:`NotADesignError` when block sizes or pairwise intersections
    are not constant, carrying the first offending pair.
    """
    _check_twin_pair(fam_v, fam_vbar)
    if fam_v.d != 8 or not fam_v.hadamard.is_real:
        raise InvalidArgumentError("zero blocks are defined for d=8 twins over a real Hadamard matrix")
    tables = np.abs(fam_vbar.raw.conj() @ fam_v.raw.T)  # row b = |inner| against target b
    inc = (tables < ZERO_OVERLAP).astype(np.int64)
    blocks = tuple(tuple(int(p) for p in np.flatnonzero(row)) for row in inc)

    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        small = min(range(64), key=lambda b: len(blocks[b]))
        big = max(range(64), key=lambda b: len(blocks[b]))
        raise NotADesignError(
            f"block sizes are not constant ({len(blocks[small])} vs {len(blocks[big])})",
            offending=(small, big),
        )
    k_blk = sizes.pop()

    meet = inc @ inc.T
    off = ~np.eye(64, dtype=bool)
    lam_values = np.unique(meet[off])
    if lam_values.size != 1:
        bad = np.argwhere(off & (meet != lam_values[0]))[0]
        raise NotADesignError(
            f"block intersections are not constant ({sorted(lam_values.tolist())})",
            offending=(int(bad[0]), int(bad[1])),
        )
    params = (64, int(k_blk), int(lam_values[0]))
    return ZeroBlockDesign(blocks=blocks, params=params, law=fam_v.displacements.perm)


@dataclass(frozen=True)
class DesignReport:
    passed: bool
    points: int
    block_count: int
    block_size: int
    replication: int
    point_pair_count: int
    block_pair_count: int
    counterexample: str | None


def verify_symmetric_design(design):
    """Exact-arithmetic check of all symmetric design axioms on measured data.

    Verifies: equal point/block counts, uniform block size, uniform point
    replication equal to the block size, constant point-pair coverage, and
    constant block-pair intersection equal to the same lambda.
    """
    inc = design.incidence()
    b, v = inc.shape
    if b != v:
        return _design_failure(design, f"{b} blocks over {v} points is not symmetric")

    sizes = inc.sum(axis=1)
    if not (sizes == sizes[0]).all():
        bad = int(np.flatnonzero(sizes != sizes[0])[0])
        return _design_failure(design, f"block {bad} has size {int(sizes[bad])} != {int(sizes[0])}")
    k_blk = int(sizes[0])

    repl = inc.sum(axis=0)
    if not (repl == k_blk).all():
        bad = int(np.flatnonzero(repl != k_blk)[0])
        return _design_failure(design, f"point {bad} lies in {int(repl[bad])} blocks != {k_blk}")

    point_pairs = inc.T @ inc
    off = ~np.eye(v, dtype=bool)
    lam_pts = np.unique(point_pairs[off])
    if lam_pts.size != 1:
        i, j = np.argwhere(off & (point_pairs != lam_pts[0]))[0]
        return _design_failure(design, f"point pair ({int(i)},{int(j)}) covered {int(point_pairs[i, j])} times")

    block_pairs = inc @ inc.T
    lam_blk = np.unique(block_pairs[off])
    if lam_blk.size != 1 or int(lam_blk[0]) != int(lam_pts[0]):
        return _design_failure(design, "block-pair intersections disagree with point-pair coverage")

    return DesignReport(
        passed=True,
        points=v,
        block_count=b,
        block_size=k_blk,
        replication=k_blk,
        point_pair_count=int(lam_pts[0]),
        block_pair_count=int(lam_blk[0]),
        counterexample=None,
    )


def _design_failure(design, message):
    inc = design.incidence()
    return DesignReport(
        passed=False,
        points=inc.shape[1],
        block_count=inc.shape[0],
        block_size=-1,
        replication=-1,
        point_pair_count=-1,
        block_pair_count=-1,
        counterexample=message,
    )


@dataclass(frozen=True)
class DifferenceSetReport:
    passed: bool
    size: int
    min_count: int
    max_count: int


def difference_set_check(members, law=_SYLVESTER_LAW):
    """Count ordered pairs (x, y) in B x B with ``law[x, y] = delta`` for every nonzero delta.

    ``law`` is a design's point-addition table (:attr:`ZeroBlockDesign.law`);
    the default is the Sylvester labelling's.  The group is elementary
    abelian of order 64, so differences coincide with sums.  Passes iff
    |B| = 28 and every one of the 63 nonzero deltas is hit exactly 12 times.
    """
    members = sorted(set(int(p) for p in members))
    if any(p < 0 or p > 63 for p in members):
        raise InvalidArgumentError("points must be flat indices in 0..63")
    counts = np.bincount(law[np.ix_(members, members)].ravel(), minlength=64)
    nonzero = counts[1:]
    passed = len(members) == 28 and (nonzero == 12).all()
    return DifferenceSetReport(
        passed=bool(passed),
        size=len(members),
        min_count=int(nonzero.min()) if len(members) else 0,
        max_count=int(nonzero.max()) if len(members) else 0,
    )


def block_translation_check(design):
    """Whether each block equals the (mu, nu)-translate of the (0, 0) block under ``design.law``."""
    translates = design.law[:, list(design.blocks[0])]
    return all(set(block) == set(translates[b].tolist()) for b, block in enumerate(design.blocks))
