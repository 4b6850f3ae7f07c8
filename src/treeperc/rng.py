"""Deterministic lazy edge sampling for percolation on the infinite tree.

Edges are never enumerated up front.  Each tail vertex owns a private random
stream derived by keyed hashing from a 64-bit master seed, so edge statuses
are independent across vertices, reproducible across runs and query orders,
and shareable between different exploration algorithms running on the same
realization.

Per tail vertex the open out-edges of each kind are drawn in one batch: a
binomial count via inverse-CDF lookup followed by a uniform subset, which is
exactly the product-Bernoulli law restricted to that vertex.  This keeps the
cost per vertex proportional to the number of *open* long edges rather than
to d^k.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from functools import lru_cache

from .errors import check_probabilities
from .tree import TreeParams, long_selector

_SHORT = b"s"
_LONG = b"l"


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Statistically independent 64-bit seed for one trial of an experiment."""
    payload = master_seed.to_bytes(8, "little", signed=False) + trial.to_bytes(
        8, "little", signed=False
    )
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _binomial_cdf(n: int, prob: float) -> list[float]:
    """Cumulative Bin(n, prob) table for inverse-CDF sampling."""
    cdf = []
    acc = 0.0
    logp = math.log(prob) if prob > 0 else None
    log1mp = math.log1p(-prob) if prob < 1 else None
    for m in range(n + 1):
        if prob == 0.0:
            pm = 1.0 if m == 0 else 0.0
        elif prob == 1.0:
            pm = 1.0 if m == n else 0.0
        else:
            pm = math.exp(
                math.lgamma(n + 1)
                - math.lgamma(m + 1)
                - math.lgamma(n - m + 1)
                + m * logp
                + (n - m) * log1mp
            )
        acc += pm
        cdf.append(min(acc, 1.0))
    cdf[-1] = 1.0
    return cdf


@lru_cache(maxsize=64)
def _oracle_tables(params: TreeParams, p: float, q: float) -> tuple[tuple, tuple, tuple]:
    """The short and long binomial CDF tables and the list of all d^k long
    selectors: one build per (d, k, p, q), shared by every oracle (each
    trial makes its own)."""
    return (
        tuple(_binomial_cdf(params.d, p)),
        tuple(_binomial_cdf(params.n_long_children, q)),
        tuple(long_selector(i, params) for i in range(params.n_long_children)),
    )


class EdgeOracle:
    """Memoized sampler of edge statuses for one percolation realization.

    Short edges out of a vertex are open with probability ``p``, long edges
    with probability ``q``.  Re-queries return the memoized batch; distinct
    vertices use independent streams keyed by (master seed, vertex, kind).
    """

    def __init__(self, params: TreeParams, p: float, q: float, seed: int, trial: int = 0):
        check_probabilities(p=p, q=q)
        self.params = params
        self.p = p
        self.q = q
        self.seed = derive_trial_seed(seed, trial) if trial else seed % (1 << 64)
        self._key = self.seed.to_bytes(8, "little")
        self._short_cdf, self._long_cdf, self._selectors = _oracle_tables(params, p, q)
        self._short_memo: dict[tuple, tuple] = {}
        self._long_memo: dict[tuple, tuple] = {}

    def _stream(self, v: tuple, kind: bytes) -> random.Random:
        data = bytes(v) + b"\x00" + kind
        digest = hashlib.blake2b(data, digest_size=8, key=self._key).digest()
        return random.Random(int.from_bytes(digest, "little"))

    def open_short_children(self, v: tuple) -> tuple:
        """Sorted tuple of child digits j with the short edge v -> v.j open."""
        hit = self._short_memo.get(v)
        if hit is not None:
            return hit
        rng = self._stream(v, _SHORT)
        m = bisect_left(self._short_cdf, rng.random())
        out = tuple(sorted(j + 1 for j in rng.sample(range(self.params.d), m)))
        self._short_memo[v] = out
        return out

    def open_long_children(self, v: tuple) -> tuple:
        """Sorted tuple of selectors s in [d]^k with the long edge v -> v.s open."""
        hit = self._long_memo.get(v)
        if hit is not None:
            return hit
        rng = self._stream(v, _LONG)
        m = bisect_left(self._long_cdf, rng.random())
        idx = sorted(rng.sample(range(self.params.n_long_children), m))
        out = tuple(self._selectors[i] for i in idx)
        self._long_memo[v] = out
        return out

