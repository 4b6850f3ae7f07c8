"""Deterministic lazy edge sampling for percolation on the infinite tree.

Edges are never enumerated up front.  Each tail vertex owns a private random
stream derived by keyed hashing from a 64-bit master seed, so edge statuses
are independent across vertices, reproducible across runs and query orders,
and shareable between different exploration algorithms running on the same
realization.

A stream is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): its block b is the 64-byte BLAKE2b digest of the
stream's input, followed for b >= 1 by the 4-byte counter b, keyed with the
realization's 8-byte seed and read as 8 little-endian uint64 words.  Every
input is prefix-free (no input is a proper prefix of another), so distinct
(input, block) pairs hash distinct messages.  A word w gives the uniform
(w >> 11) 2^-53 in [0, 1).

Per tail vertex the open out-edges of each kind are drawn in one batch from
the stream at ``bytes(v) + b"\\x00" + kind``: word 0's uniform gives a
binomial count m by inverse-CDF lookup, and words 1..m a uniform m-subset of
the n edges by a sparse partial Fisher-Yates shuffle, whose step i swaps in
index i + ((w (n - i)) >> 64) (Lemire's multiply-shift, ACM TOMACS 2019).
Count and subset together are the product-Bernoulli law restricted to that
vertex, up to two grains: the count uniform is a multiple of 2^-53, and each
shuffle index's probability is off by a relative error below
(n - i)/2^64 <= 2^-55 for n <= 361, finer than the 2^-53 grain of the count.
A batch costs one hash while m <= 7 and ceil((m + 1)/8) + 1 beyond, in
proportion to the number of *open* edges rather than to d^k.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from functools import lru_cache
from hashlib import blake2b

from .errors import SEED_LIMIT, ParameterError, check_probabilities, check_seed
from .tree import TreeParams, long_selector

# the kind suffix of a vertex's stream input; vertex digits are nonzero, so
# the zero byte ends the vertex and makes every input prefix-free
_SHORT = b"\x00s"
_LONG = b"\x00l"

#: One block: a 64-byte digest read as 8 little-endian uint64 words.
_BLOCK = struct.Struct("<8Q")

#: The spacing of the uniforms: a word keeps its top 53 bits.
_GRAIN = 2.0**-53


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Statistically independent 64-bit seed for one trial of an experiment."""
    check_seed(master_seed)
    if not 0 <= trial < SEED_LIMIT:
        raise ParameterError(f"trial must lie in [0, 2^64), got {trial}")
    payload = master_seed.to_bytes(8, "little") + trial.to_bytes(8, "little")
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "little")


def realization_seed(seed: int, trial: int) -> int:
    """The seed of one trial's realization: the master seed itself for
    trial 0, a derived one for every later trial."""
    if trial:
        return derive_trial_seed(seed, trial)
    check_seed(seed)
    return seed


def keyed_hash(seed: int):
    """BLAKE2b keyed with a realization's seed, before any input: each
    stream block hashes a copy of it, so the key block is compressed once."""
    return blake2b(key=seed.to_bytes(8, "little"), digest_size=64)


def _block(keyed, data: bytes, b: int) -> tuple:
    h = keyed.copy()
    h.update(data + b.to_bytes(4, "little") if b else data)
    return _BLOCK.unpack(h.digest())


def keyed_words(keyed, data: bytes, count: int) -> tuple:
    """At least the first ``count`` words of the stream at the prefix-free
    input ``data`` under ``keyed_hash`` state ``keyed``: whole blocks, in
    order."""
    words = _block(keyed, data, 0)
    for b in range(1, (count + 7) >> 3):
        words += _block(keyed, data, b)
    return words


def keyed_uniforms(keyed, data: bytes, count: int) -> list[float]:
    """The first ``count`` uniforms in [0, 1) of the stream at ``data``."""
    return [(w >> 11) * _GRAIN for w in keyed_words(keyed, data, count)[:count]]


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
def _oracle_tables(params: TreeParams, p: float, q: float) -> tuple[tuple, tuple, tuple, tuple]:
    """The short and long binomial CDF tables, the d child digits and the
    d^k long selectors: one build per (d, k, p, q), shared by every oracle
    (each trial makes its own)."""
    return (
        tuple(_binomial_cdf(params.d, p)),
        tuple(_binomial_cdf(params.n_long_children, q)),
        tuple(range(1, params.d + 1)),
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
        self.seed = realization_seed(seed, trial)
        self._keyed = keyed_hash(self.seed)
        self._short_cdf, self._long_cdf, self._digits, self._selectors = _oracle_tables(
            params, p, q
        )
        self._short_memo: dict[tuple, tuple] = {}
        self._long_memo: dict[tuple, tuple] = {}

    def _draw(self, v: tuple, kind: bytes, cdf: tuple, table: tuple) -> tuple:
        """The entries of ``table`` (sorted) at a uniform subset, of size
        drawn from ``cdf``, of its indices: the open edges of one kind."""
        data = bytes(v) + kind
        words = _block(self._keyed, data, 0)
        n = len(table)
        # the count of CDF entries <= u: m is 0 on every stream at prob 0, n at 1
        m = bisect_right(cdf, (words[0] >> 11) * _GRAIN)
        if m == 0:
            return ()
        if m == n:
            return table
        if m > 7:
            words = keyed_words(self._keyed, data, m + 1)
        # position -> index, only where a swap moved it
        moved: dict[int, int] = {}
        for i in range(m):
            j = i + ((words[i + 1] * (n - i)) >> 64)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return tuple(table[i] for i in sorted(moved[i] for i in range(m)))

    def open_short_children(self, v: tuple) -> tuple:
        """Sorted tuple of child digits j with the short edge v -> v.j open."""
        hit = self._short_memo.get(v)
        if hit is None:
            hit = self._short_memo[v] = self._draw(v, _SHORT, self._short_cdf, self._digits)
        return hit

    def open_long_children(self, v: tuple) -> tuple:
        """Sorted tuple of selectors s in [d]^k with the long edge v -> v.s open."""
        hit = self._long_memo.get(v)
        if hit is None:
            hit = self._long_memo[v] = self._draw(v, _LONG, self._long_cdf, self._selectors)
        return hit
