"""Shared domain types and outcome-level primitives for two-tier voting systems.

A voting outcome is a vector of spins in {-1, +1} ("yes"/"no"). All measures
in this package are symmetric under a global sign flip, so every expectation
of an odd statistic vanishes; the primitives here are the even ones (margins,
counts) plus the sign rule used for delegate votes.
"""

import math
from dataclasses import dataclass

import numpy as np

SPIN_DTYPE = np.int8

#: Largest population for which 2^N enumeration of outcomes stays practical.
ENUMERATION_CAP = 24


def as_outcome(votes, expected_n=None):
    """Validate a vote vector and return it as an int8 spin array.

    Every entry must be exactly -1 or +1. If ``expected_n`` is given the
    length must match it.
    """
    arr = np.asarray(votes)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("outcome must be a non-empty 1-d sequence of spins")
    if not ((arr == 1) | (arr == -1)).all():
        raise ValueError("outcome entries must be exactly -1 or +1")
    if expected_n is not None and arr.size != expected_n:
        raise ValueError(f"outcome has {arr.size} votes, expected {expected_n}")
    return arr.astype(SPIN_DTYPE)


def margin(outcome):
    """Absolute gap between yes- and no-votes, |sum of spins|."""
    votes = as_outcome(outcome)
    return int(abs(int(votes.sum(dtype=np.int64))))


def q_margin(outcome, q):
    """Margin relative to a quota-q acceptance threshold: |sum - (2q-1) N|.

    For q just above 1/2 this reduces to the plain margin.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quota must lie in (0, 1), got {q}")
    votes = as_outcome(outcome)
    n = votes.size
    return abs(int(votes.sum(dtype=np.int64)) - (2.0 * q - 1.0) * n)


def affirmative_count(outcome):
    """Number of yes-votes, (sum of spins + N) / 2."""
    votes = as_outcome(outcome)
    return (int(votes.sum(dtype=np.int64)) + votes.size) // 2


def majority_sign(x):
    """Sign rule for majority decisions: +1 if x > 0, else -1.

    Ties (x == 0) count as "no"; an even-population state with a tied
    popular vote therefore votes no in the council.
    """
    return 1 if x > 0 else -1


def signs(values):
    """Vectorized majority_sign."""
    return np.where(np.asarray(values) > 0, 1, -1).astype(np.int64)


def check_population(n):
    """Return the population n as an int; raise ValueError unless it is a
    whole number >= 1. The binomial ufuncs and numpy's binomial draws take
    a real n and would return a value for a fractional one."""
    if n < 1:
        raise ValueError("population must be >= 1")
    if n % 1 != 0:
        raise ValueError(f"population must be a whole number, got {n!r}")
    return int(n)


# --------------------------------------------------------------------------
# voting models
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Independent:
    """Voters cast fair, mutually independent +-1 votes."""


@dataclass(frozen=True)
class CommonBelief:
    """A hidden belief Z ~ mu on [-1, 1] sets every voter's yes-probability
    to (1 + Z)/2; voters are independent given Z.

    ``belief`` is one of the distribution types in :mod:`faircouncil.measures`;
    it is validated there whenever the model is used.
    """

    belief: object


@dataclass(frozen=True)
class MeanField:
    """Curie-Weiss interaction: every voter pair is coupled with strength
    J/(N-1), read over unordered pairs so that the Gibbs exponent is
    J * S^2 / (2 (N-1)) in the total spin S.
    """

    coupling: float

    def __post_init__(self):
        j = float(self.coupling)
        if not np.isfinite(j) or j < 0.0:
            raise ValueError(f"mean-field coupling must be finite and >= 0, got {self.coupling}")
        object.__setattr__(self, "coupling", j)


# --------------------------------------------------------------------------
# estimates
# --------------------------------------------------------------------------

EXACT = "exact"
MONTE_CARLO = "monte_carlo"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class MarginEstimate:
    """A value for the expected margin E|sum of spins|, in votes.

    ``std_error`` is zero except for Monte Carlo estimates, where it is the
    sample standard deviation divided by sqrt(samples).
    """

    value: float
    std_error: float = 0.0
    method: str = EXACT
    samples: int = 0

    def __post_init__(self):
        if self.method not in (EXACT, MONTE_CARLO, ASYMPTOTIC):
            raise ValueError(f"unknown estimate method {self.method!r}")
        if not self.value >= 0.0:
            raise ValueError(f"expected margin must be >= 0, got {self.value}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")
        if self.method != MONTE_CARLO:
            if self.std_error != 0.0:
                raise ValueError(f"{self.method} estimates must have std_error 0")
            if self.samples != 0:
                raise ValueError(f"{self.method} estimates must have samples 0")
        elif self.samples < 1:
            raise ValueError("Monte Carlo estimates need samples >= 1")


# --------------------------------------------------------------------------
# deterministic random streams
# --------------------------------------------------------------------------

class RngStream:
    """A Philox-backed random stream keyed by (seed, stream_id).

    Philox is counter-based: the key fixes the sequence, so two streams
    constructed with the same (seed, stream_id) yield identical draws, and
    distinct stream_ids give statistically independent sequences. Worker
    substreams live in disjoint counter blocks of the same keyed cipher,
    which keeps parallel Monte Carlo bit-reproducible for a fixed worker
    count.

    The stream is the single stateful object in this package; each worker
    must own its generator exclusively.
    """

    def __init__(self, seed=0, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must fit in 64 bits")
        self._generator = np.random.Generator(self._philox())

    def _philox(self, counter=None):
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Philox(counter=counter, key=key)

    def generator(self):
        """The stream's own generator; draws advance shared state."""
        return self._generator

    def worker(self, index):
        """A fresh generator for worker ``index`` in a disjoint counter block.

        Block 0 is reserved for the stream's own generator, so workers never
        collide with direct draws from the same stream.
        """
        if index < 0:
            raise ValueError("worker index must be >= 0")
        counter = np.array([0, 1 + index, 0, 0], dtype=np.uint64)
        return np.random.Generator(self._philox(counter=counter))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def pooled_mean(values, trials, rng, workers):
    """The one Monte Carlo accumulation loop: mean, standard error and
    count of ``trials`` per-trial values. The trials are split into one
    chunk per worker, the first chunks taking the remainder; chunk k is the
    array ``values(rng.worker(k), size)``, and the chunks merge by pooled
    sums. The partition, not the execution order, is what makes merged
    results reproducible."""
    if workers < 1:
        raise ValueError("need at least one worker")
    count = int(trials)
    base, extra = divmod(count, workers)
    total = total_sq = 0.0
    for k in range(min(workers, count)):
        x = values(rng.worker(k), base + (1 if k < extra else 0))
        total += float(x.sum())
        total_sq += float((x**2).sum())
    mean = total / count
    var = max(total_sq - count * mean**2, 0.0) / max(count - 1, 1)
    return mean, math.sqrt(var / count), count
