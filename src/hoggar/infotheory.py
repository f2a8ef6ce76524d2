"""Outcome statistics, Shannon entropy of measurements, and mutual information.

All quantities are in nats.  The entropy function eta(t) = -t*ln(t) is extended
by eta(0) = 0; probabilities in [-1e-14, 0) are clamped to zero before eta so
log underflow can never occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidPovmError, UnsupportedError
from .sic import SicFamily

ZERO_THRESHOLD = 1e-10
NEGATIVE_CLAMP = 1e-14
POVM_IDENTITY_TOL = 1e-8


def eta(p):
    """Elementwise -p*ln(p) with eta(0) = 0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = -p[mask] * np.log(p[mask])
    return out


def _clamp_probs(p):
    p = np.asarray(p, dtype=np.float64)
    if p.min() < -NEGATIVE_CLAMP:
        raise InvalidArgumentError(f"probability {p.min():.3e} below the clamp window")
    return np.where(p < 0, 0.0, p)


@dataclass(frozen=True)
class OutcomeDistribution:
    """A length-k probability vector with a count of numerically zero entries."""

    probs: np.ndarray
    zero_count: int

    def __post_init__(self):
        a = np.asarray(self.probs, dtype=np.float64).copy()
        a.setflags(write=False)
        object.__setattr__(self, "probs", a)

    @classmethod
    def from_probs(cls, probs):
        probs = _clamp_probs(probs)
        if abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError(f"probabilities sum to {float(probs.sum())}, not 1")
        return cls(probs=probs, zero_count=int((probs < ZERO_THRESHOLD).sum()))


def shannon_entropy(p):
    """Sum of eta over the entries of a distribution (or raw probability array)."""
    if isinstance(p, OutcomeDistribution):
        p = p.probs
    return float(eta(p).sum())


def index_of_coincidence(p):
    """Sum of squared outcome probabilities."""
    if isinstance(p, OutcomeDistribution):
        p = p.probs
    p = np.asarray(p, dtype=np.float64)
    return float((p * p).sum())


def as_effects(povm):
    """Coerce a SicFamily / array / list of matrices to a (k, d, d) stack resolving the identity."""
    if isinstance(povm, SicFamily):
        effects = povm.effects
    else:
        effects = np.asarray(povm, dtype=np.complex128)
        if effects.ndim != 3 or effects.shape[1] != effects.shape[2]:
            raise InvalidArgumentError(f"POVM must be a (k, d, d) stack, got shape {effects.shape}")
    d = effects.shape[1]
    dev = float(np.abs(effects.sum(axis=0) - np.eye(d)).max())
    if dev > POVM_IDENTITY_TOL:
        raise InvalidPovmError(f"effects deviate from the identity by {dev:.3e}")
    return effects


class Measurement:
    """A validated POVM in the representation its evaluations run on.

    This class is the one place that tells the two representations apart.  A
    :class:`~hoggar.sic.SicFamily` keeps its d^2 unit vectors ``phi`` and
    evaluates rank-one products ``|<phi_k|psi>|^2 / d``; any other POVM is a
    ``(k, d, d)`` effect stack evaluated by einsum, with ``phi`` None.  Both
    paths stay because each serves a workload (the SIC families of the
    certifier, and generic effect stacks in the library), and one factored
    frame for both would change the effect-stack arithmetic and so its
    results in the last bits.  ``effects`` is always the stack.
    """

    def __init__(self, povm):
        self.effects = as_effects(povm)
        self.phi = povm.states if isinstance(povm, SicFamily) else None
        self.k, self.d = self.effects.shape[:2]
        # the SIC pullback leaves out the 1/d of its effects
        self.grad_scale = 2.0 / self.d if self.phi is not None else 2.0

    def probabilities(self, rows):
        """Outcome probabilities (b, k) of the pure states ``rows`` (b, d), and the SIC amplitudes."""
        if self.phi is not None:
            amps = rows.conj() @ self.phi.T
            return (np.abs(amps) ** 2) / self.d, amps
        p = np.einsum("bi,kij,bj->bk", rows.conj(), self.effects, rows).real
        return np.maximum(p, 0.0), None

    def pure(self, psi):
        """Outcome probabilities of one pure state, unclamped."""
        if self.phi is not None:
            return (np.abs(self.phi.conj() @ psi) ** 2) / self.d
        return np.einsum("i,kij,j->k", psi.conj(), self.effects, psi).real

    def pullback(self, coeff, rows, amps):
        """Rows of ``sum_k coeff_bk E_k psi_b``, to be multiplied by ``grad_scale / 2``.

        ``amps`` are the amplitudes :meth:`probabilities` returned for ``rows``.
        """
        if self.phi is not None:
            return (coeff * amps.conj()) @ self.phi
        return np.einsum("bk,kij,bj->bi", coeff, self.effects, rows)


def outcome_probabilities(state, povm):
    """Probability vector tr(rho Pi_j) for a pure state or a density matrix.

    ``povm`` is anything :func:`as_effects` accepts, or a :class:`Measurement`.
    """
    m = povm if isinstance(povm, Measurement) else Measurement(povm)
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        if state.shape[0] != m.d:
            raise InvalidArgumentError("state dimension does not match the POVM")
        probs = m.pure(state)
    elif state.ndim == 2:
        if state.shape != (m.d, m.d):
            raise InvalidArgumentError("density matrix dimension does not match the POVM")
        probs = np.einsum("kij,ji->k", m.effects, state).real
    else:
        raise InvalidArgumentError("state must be a vector or a density matrix")
    return _clamp_probs(probs)


def outcome_distribution(state, povm):
    """Measure ``state`` with ``povm`` and return the validated distribution."""
    probs = outcome_probabilities(state, povm)
    return OutcomeDistribution.from_probs(probs)


def outcome_matrix(states, povm):
    """Rows of outcome probabilities for a batch of pure states (m, d) -> (m, k)."""
    return Measurement(povm).probabilities(np.asarray(states, dtype=np.complex128))[0]


@dataclass(frozen=True)
class Ensemble:
    """Weighted states: weights on the simplex, states pure vectors or densities."""

    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.ndim != 1 or w.size == 0 or w.min() < -NEGATIVE_CLAMP:
            raise InvalidArgumentError("weights must be a nonempty nonnegative vector")
        if not np.isfinite(w).all():
            raise InvalidArgumentError("weights must be finite")
        w = np.where(w < 0, 0.0, w)
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError(f"weights sum to {float(w.sum())}, not 1")
        if len(self.states) != w.shape[0]:
            raise InvalidArgumentError("weights and states differ in length")
        frozen = []
        for s in self.states:
            s = np.asarray(s, dtype=np.complex128).copy()
            if s.ndim == 1:
                if abs(np.linalg.norm(s) - 1.0) > 1e-10:
                    raise InvalidArgumentError("pure state is not normalized")
            elif s.ndim == 2:
                if s.shape[0] != s.shape[1] or abs(np.trace(s).real - 1.0) > 1e-10:
                    raise InvalidArgumentError("density matrix must be square with unit trace")
                if np.abs(s - s.conj().T).max() > 1e-10 or np.linalg.eigvalsh(s).min() < -1e-10:
                    raise InvalidArgumentError("density matrix must be Hermitian positive semidefinite")
            else:
                raise InvalidArgumentError("states must be vectors or matrices")
            s.setflags(write=False)
            frozen.append(s)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", tuple(frozen))

    @property
    def size(self):
        return len(self.states)

    def average_state(self):
        d = self.states[0].shape[0]
        rho = np.zeros((d, d), dtype=np.complex128)
        for w, s in zip(self.weights, self.states):
            rho += w * (np.outer(s, s.conj()) if s.ndim == 1 else s)
        return rho


def uniform_ensemble(states):
    """Equiprobable ensemble over the rows of ``states`` (or a list of states)."""
    states = [np.asarray(s, dtype=np.complex128) for s in states]
    n = len(states)
    return Ensemble(weights=np.full(n, 1.0 / n), states=tuple(states))


def twin_ensemble(fam_vbar):
    """Equiprobable pure ensemble of all states in a family (64 for d=8)."""
    return uniform_ensemble(list(fam_vbar.states))


@dataclass(frozen=True)
class JointTable:
    """Joint input/outcome probabilities P_ij = w_i * tr(tau_i Pi_j)."""

    table: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.table, dtype=np.float64).copy()
        a.setflags(write=False)
        object.__setattr__(self, "table", a)

    def validate(self, weights):
        if abs(self.table.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("joint table does not sum to 1")
        if np.abs(self.table.sum(axis=1) - weights).max() > 1e-12:
            raise InvalidArgumentError("joint table rows do not sum to the weights")


def joint_table(ensemble, povm):
    m = Measurement(as_effects(povm))
    rows = []
    for w, s in zip(ensemble.weights, ensemble.states):
        rows.append(w * outcome_probabilities(s, m))
    table = JointTable(table=np.vstack(rows))
    table.validate(ensemble.weights)
    return table


def mutual_information(ensemble, povm):
    """Three-term mutual information between an ensemble and a measurement."""
    P = joint_table(ensemble, povm).table
    value = eta(P.sum(axis=1)).sum() + eta(P.sum(axis=0)).sum() - eta(P).sum()
    if value < -1e-12:
        raise InvalidArgumentError(f"mutual information evaluated to {float(value)!r}")
    return float(max(value, 0.0))


def holevo_quantity(ensemble, povm):
    """Output-entropy form S(sum w_i Phi(tau_i)) - sum w_i S(Phi(tau_i)).

    The channel sends a state to the diagonal matrix of its outcome
    probabilities, so the von Neumann entropies reduce to Shannon entropies.
    Equals :func:`mutual_information` identically; kept as a separate route.
    """
    m = Measurement(as_effects(povm))
    dists = [outcome_probabilities(s, m) for s in ensemble.states]
    mixture = np.zeros_like(dists[0])
    avg_conditional = 0.0
    for w, p in zip(ensemble.weights, dists):
        mixture += w * p
        avg_conditional += w * float(eta(p).sum())
    return float(eta(mixture).sum() - avg_conditional)


def sic_min_entropy_bound(d):
    """Lower bound ln(d(d+1)/2) on the minimum entropy of a d-dimensional SIC."""
    if d < 2:
        raise InvalidArgumentError("dimension must be >= 2")
    return math.log(d * (d + 1) / 2)


def sic_power_bound(d):
    """Upper bound on SIC informational power; exactly ln(d^2) minus the entropy bound."""
    if d < 2:
        raise InvalidArgumentError("dimension must be >= 2")
    return math.log(d * d) - sic_min_entropy_bound(d)


def power_from_min_entropy(k, min_entropy):
    """The capacity certificate ln(k) - min_entropy."""
    if k < 1:
        raise InvalidArgumentError("outcome count must be >= 1")
    if min_entropy < 0:
        raise InvalidArgumentError("entropy cannot be negative")
    return math.log(k) - min_entropy


def ht_minimizer(r, k):
    """The minimum-entropy distribution with coincidence index r: 1/r entries equal r.

    Only defined when 1/r is an integer (the hypothesis of the minimization
    theorem this encodes); the distribution has entropy ln(1/r).
    """
    if not 0 < r <= 1:
        raise InvalidArgumentError("coincidence index must lie in (0, 1]")
    inv = 1.0 / r
    m = round(inv)
    if abs(inv - m) > 1e-9:
        raise UnsupportedError(f"1/r = {float(inv)!r} is not an integer; minimizer form unknown")
    if m > k:
        raise InvalidArgumentError(f"need at least {m} outcomes, got {k}")
    probs = np.zeros(k)
    probs[:m] = r
    return OutcomeDistribution.from_probs(probs)
