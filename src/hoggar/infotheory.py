"""Outcome statistics, Shannon entropy of measurements, and mutual information.

All quantities are in nats.  The entropy function eta(t) = -t*ln(t) is extended
by eta(0) = 0; probabilities in [-1e-14, 0) are clamped to zero before eta so
log underflow can never occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidPovmError
from .sic import SicFamily

NEGATIVE_CLAMP = 1e-14
POVM_IDENTITY_TOL = 1e-8


def eta(p):
    """Elementwise -p*ln(p) with eta(0) = 0; a NaN or -inf entry gives NaN.

    One guarded log over the whole array: finite entries p <= 0 take ln(1) = 0,
    so they give +0.  Every other entry is exactly -(p*ln(p)), and p = 1 gives +0.
    The log, product and negation run in place on the guarded copy of p; a
    scalar p gives a scalar.
    """
    p = np.asarray(p, dtype=np.float64)
    t = np.where(p > 0, p, 1.0)
    np.log(t, out=t)
    np.multiply(p, t, out=t)
    return np.subtract(0.0, t, out=t)[()]


def _clamp_probs(p):
    p = np.asarray(p, dtype=np.float64)
    if not np.isfinite(p).all():
        raise InvalidArgumentError("probabilities must be finite")
    if p.min() < -NEGATIVE_CLAMP:
        raise InvalidArgumentError(f"probability {p.min():.3e} below the clamp window")
    return np.where(p < 0, 0.0, p)


@dataclass(frozen=True)
class OutcomeDistribution:
    """A finite length-k probability vector summing to 1; entries in [-1e-14, 0) are clamped to 0."""

    probs: np.ndarray

    def __post_init__(self):
        a = _clamp_probs(self.probs)
        if abs(a.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError(f"probabilities sum to {float(a.sum())}, not 1")
        a.setflags(write=False)
        object.__setattr__(self, "probs", a)


def shannon_entropy(p):
    """Sum of eta over the entries of a distribution (or raw probability array)."""
    if isinstance(p, OutcomeDistribution):
        p = p.probs
    return float(eta(p).sum())


class Measurement:
    """A validated POVM as a weighted rank-one frame.

    Effect k is the sum of ``f_r f_r^dagger / scale`` over the rows f_r of
    ``frame`` (R, d) that the 0/1 grouping ``group`` (R, k) assigns to it, so
    every evaluation is the overlap product ``rows.conj() @ frame.T``.  A
    :class:`~hoggar.sic.SicFamily`, kept as ``family``, is its own d^2 unit
    vectors with scale d; any other finite ``(k, d, d)`` stack (``family``
    None) is checked Hermitian positive semidefinite and factored once by
    ``eigh`` into rows ``sqrt(lam) v`` (eigenvalues above 1e-12 of the
    largest) with scale 1.  The effects must sum to the identity.  ``group``
    is None when every outcome has one row.  ``effects`` is the stack;
    density matrices are measured on it.
    """

    def __init__(self, povm):
        self.family = povm if isinstance(povm, SicFamily) else None
        effects = np.asarray(povm if self.family is None else povm.effects, dtype=np.complex128)
        if effects.ndim != 3 or effects.shape[1] != effects.shape[2]:
            raise InvalidArgumentError(f"POVM must be a (k, d, d) stack, got shape {effects.shape}")
        if not np.isfinite(effects).all():
            raise InvalidPovmError("effects must be finite")
        self.effects = effects
        self.k, self.d = effects.shape[:2]
        dev = float(np.abs(effects.sum(axis=0) - np.eye(self.d)).max())
        if dev > POVM_IDENTITY_TOL:
            raise InvalidPovmError(f"effects deviate from the identity by {dev:.3e}")
        if self.family is None:
            self.frame, self.group = _factor(effects)
            self.scale = 1.0
        else:
            # rank one and positive by construction: no factorization to do
            self.frame, self.scale, self.group = povm.states, self.d, None
        # the pullback leaves out the 1/scale of the effects
        self.grad_scale = 2.0 / self.scale

    def _grouped(self, p):
        return p if self.group is None else p @ self.group

    def probabilities(self, rows):
        """Outcome probabilities (b, k) of the pure states ``rows`` (b, d), and the frame amplitudes."""
        return self.probabilities_conj(rows.conj())

    def probabilities_conj(self, rows_conj):
        """:meth:`probabilities` of the rows whose complex conjugates are ``rows_conj``."""
        amps = rows_conj @ self.frame.T
        p = np.abs(amps)
        np.square(p, out=p)
        p /= self.scale
        return self._grouped(p), amps

    def pullback(self, coeff, amps):
        """Rows of ``sum_k coeff_bk E_k psi_b``, to be multiplied by ``grad_scale / 2``.

        ``amps`` are the amplitudes :meth:`probabilities` returned for the rows ``psi_b``.
        """
        if self.group is not None:
            coeff = coeff @ self.group.T
        return (coeff * amps.conj()) @ self.frame


def _measurement(povm):
    """``povm`` itself when it is a :class:`Measurement`, else a new one of it."""
    return povm if isinstance(povm, Measurement) else Measurement(povm)


def _factor(effects):
    """Frame rows and grouping of a ``(k, d, d)`` stack that must be Hermitian and positive semidefinite."""
    skew = float(np.abs(effects - effects.conj().transpose(0, 2, 1)).max())
    if skew > POVM_IDENTITY_TOL:
        raise InvalidPovmError(f"effects deviate from Hermitian by {skew:.3e}")
    lam, vecs = np.linalg.eigh(effects)
    if -lam.min() > POVM_IDENTITY_TOL:
        raise InvalidPovmError(f"effects have an eigenvalue {lam.min():.3e} below zero")
    keep = lam > 1e-12 * lam.max()
    frame = np.sqrt(lam[keep])[:, None] * vecs.transpose(0, 2, 1)[keep]
    rows_per_outcome = keep.sum(axis=1)
    group = None if (rows_per_outcome == 1).all() else np.repeat(np.eye(len(keep)), rows_per_outcome, axis=0)
    return frame, group


def outcome_probabilities(state, povm):
    """Probability vector tr(rho Pi_j) for a pure state or a density matrix.

    ``povm`` is a :class:`Measurement`, or anything its constructor accepts.
    """
    m = _measurement(povm)
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        if state.shape[0] != m.d:
            raise InvalidArgumentError("state dimension does not match the POVM")
        probs = m.probabilities(state[None])[0][0]
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
    return OutcomeDistribution(probs)


def outcome_matrix(states, povm):
    """Rows of outcome probabilities (m, k) of pure states (m, d); ``povm`` as in :func:`outcome_probabilities`."""
    m = _measurement(povm)
    states = np.asarray(states, dtype=np.complex128)
    if states.shape[-1:] != (m.d,):
        raise InvalidArgumentError("state dimension does not match the POVM")
    return m.probabilities(states)[0]


def validated_state(state):
    """``state`` as a read-only complex array: a unit vector, or a Hermitian PSD matrix of unit trace."""
    s = np.asarray(state, dtype=np.complex128).copy()
    if not np.isfinite(s).all():
        raise InvalidArgumentError("states must be finite")
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
    return s


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
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", tuple(validated_state(s) for s in self.states))

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


def _joint_table(ensemble, povm):
    """Joint input/outcome probabilities P_ij = w_i * tr(tau_i Pi_j); rows must sum to the weights."""
    m = _measurement(povm)
    rows = []
    for w, s in zip(ensemble.weights, ensemble.states):
        rows.append(w * outcome_probabilities(s, m))
    table = np.vstack(rows)
    if abs(table.sum() - 1.0) > 1e-12:
        raise InvalidArgumentError("joint table does not sum to 1")
    if np.abs(table.sum(axis=1) - ensemble.weights).max() > 1e-12:
        raise InvalidArgumentError("joint table rows do not sum to the weights")
    return table


def mutual_information(ensemble, povm):
    """Three-term mutual information between an ensemble and a measurement."""
    P = _joint_table(ensemble, povm)
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
    m = _measurement(povm)
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
