"""Projective t-design tests and the combinatorics of the zero pattern.

Frame potentials use the full double sum over ordered pairs including the
diagonal, matching the reference moment ``t! (d-1)! / (t+d-1)!`` of the
unitarily invariant measure.  The zero-block machinery works on the 64-point
group Z_2^3 x Z_2^3 with points flattened as ``iota*8 + kappa`` (MSB-first),
so group addition is bitwise XOR of flat indices.  All design parameters are
measured from the data, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import int_to_bits
from .errors import InvalidArgumentError, NotADesignError
from .sic import _check_twin_pair, _is_sylvester_source


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


def is_t_design(state_set, t, tol=1e-12):
    """Whether frame potentials match the invariant moments for all orders 1..t."""
    return all(
        abs(frame_potential(state_set, s) - haar_moment(state_set.d, s)) <= tol
        for s in range(1, t + 1)
    )


@dataclass(frozen=True)
class ZeroBlockDesign:
    """64 zero blocks indexed by flat (mu, nu); members are flat (iota, kappa) points."""

    blocks: tuple[tuple[int, ...], ...]
    params: tuple[int, int, int]

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
                    "mu": list(int_to_bits(b >> 3, 3)),
                    "nu": list(int_to_bits(b & 7, 3)),
                    "members": [
                        [list(int_to_bits(p >> 3, 3)), list(int_to_bits(p & 7, 3))]
                        for p in members
                    ],
                }
                for b, members in enumerate(self.blocks)
            ],
        }


def zero_blocks(fam_v, fam_vbar, threshold=1e-10):
    """Extract the zero blocks of the twin overlap tables and measure (v, k, lambda).

    Raises :class:`NotADesignError` when block sizes or pairwise intersections
    are not constant, carrying the first offending pair.
    """
    _check_twin_pair(fam_v, fam_vbar)
    if fam_v.d != 8 or not _is_sylvester_source(fam_v):
        raise InvalidArgumentError("zero blocks are defined for d=8 twins over the Sylvester matrix")
    tables = np.abs(fam_vbar.raw.conj() @ fam_v.raw.T)  # row b = |inner| against target b
    blocks = tuple(tuple(int(p) for p in np.flatnonzero(tables[b] < threshold)) for b in range(64))

    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        small = min(range(64), key=lambda b: len(blocks[b]))
        big = max(range(64), key=lambda b: len(blocks[b]))
        raise NotADesignError(
            f"block sizes are not constant ({len(blocks[small])} vs {len(blocks[big])})",
            offending=(small, big),
        )
    k_blk = sizes.pop()

    inc = np.zeros((64, 64), dtype=np.int64)
    for b, members in enumerate(blocks):
        inc[b, list(members)] = 1
    meet = inc @ inc.T
    off = ~np.eye(64, dtype=bool)
    lam_values = np.unique(meet[off])
    if lam_values.size != 1:
        bad = np.argwhere(off & (meet != lam_values[0]))[0]
        raise NotADesignError(
            f"block intersections are not constant ({sorted(lam_values.tolist())})",
            offending=(int(bad[0]), int(bad[1])),
        )
    return ZeroBlockDesign(blocks=blocks, params=(64, int(k_blk), int(lam_values[0])))


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


def difference_set_check(members):
    """Count ordered pairs (x, y) in B x B with x + y = delta for every nonzero delta.

    The group is elementary abelian of order 64 (addition = XOR of flat
    indices), so differences coincide with sums.  Passes iff |B| = 28 and
    every one of the 63 nonzero deltas is hit exactly 12 times.
    """
    members = sorted(set(int(p) for p in members))
    if any(p < 0 or p > 63 for p in members):
        raise InvalidArgumentError("points must be flat indices in 0..63")
    counts = np.zeros(64, dtype=np.int64)
    for x in members:
        for y in members:
            counts[x ^ y] += 1
    nonzero = counts[1:]
    passed = len(members) == 28 and (nonzero == 12).all()
    return DifferenceSetReport(
        passed=bool(passed),
        size=len(members),
        min_count=int(nonzero.min()) if len(members) else 0,
        max_count=int(nonzero.max()) if len(members) else 0,
    )


def block_translation_check(design):
    """Whether each block equals the (mu, nu)-translate of the (0, 0) block."""
    base = set(design.blocks[0])
    return all(
        set(design.blocks[label]) == {p ^ label for p in base}
        for label in range(len(design.blocks))
    )
