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

``open_edges`` draws all of a tail's open out-edges, short and long, from
its one stream (vertex v's is at ``v + b"\\x00"``, v being the byte string
of its digits).  Word 0's uniform gives the short count m_s and word 1's the
long count m_l by inverse-CDF lookup, so probability 0 or 1 is exact on
every stream.  The next m_s words draw a uniform m_s-subset of the short
edges, and the m_l words after them one of the long edges, by a sparse
partial Fisher-Yates shuffle whose step i swaps in index
i + ((w (n - i)) >> 64) (Lemire's multiply-shift, ACM TOMACS 2019).  A kind
with one open edge, the common case near criticality, takes that first
step's index (w n) >> 64 directly: the same draw, without the shuffle.
Counts and subsets together are the product-Bernoulli law of the tail's
edges, up to two grains: a count uniform is a multiple of 2^-53, and
each shuffle index's probability is off by a relative error below
(n - i)/2^64 <= 2^-55 for n <= 361, finer than the counts' grain.  A draw
hashes one block while m_s + m_l <= 6, and a further block per 8 words
beyond, in proportion to the number of *open* edges rather than to d^k.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from functools import lru_cache
from hashlib import blake2b

from .errors import check_probabilities, check_seed
from .tree import TreeParams, long_selector

#: One block: a 64-byte digest read as 8 little-endian uint64 words.
_BLOCK = struct.Struct("<8Q")

#: The spacing of the uniforms: a word keeps its top 53 bits.
_GRAIN = 2.0**-53


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Statistically independent 64-bit seed for one trial of an experiment."""
    check_seed(master_seed)
    check_seed(trial, "trial")
    payload = master_seed.to_bytes(8, "little") + trial.to_bytes(8, "little")
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "little")


def realization_seed(seed: int, trial: int) -> int:
    """The seed of one trial's realization: the master seed itself for
    trial 0, a derived one for every later trial."""
    check_seed(seed)
    check_seed(trial, "trial")
    return derive_trial_seed(seed, trial) if trial else seed


def keyed_hash(seed: int):
    """BLAKE2b keyed with a realization's seed, before any input: each
    stream block hashes a copy of it, so the key block is compressed once."""
    return blake2b(key=seed.to_bytes(8, "little"), digest_size=64)


def _block(keyed, data: bytes, b: int) -> tuple:
    h = keyed.copy()
    h.update(data + b.to_bytes(4, "little") if b else data)
    return _BLOCK.unpack(h.digest())


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
def edge_tables(params: TreeParams, p: float, q: float) -> tuple[tuple, tuple]:
    """The short and long (binomial CDF, edge table) pairs of ``open_edges``
    on the two-range tree, whose tables are the d one-byte child digits and
    the d^k k-byte long selectors, so a head is its tail plus an entry: one
    build per (d, k, p, q), shared by every oracle (each trial makes its own)
    and, for the CDFs, by the cover slab."""
    n = params.n_long_children
    return (
        (tuple(_binomial_cdf(params.d, p)), tuple(bytes((j,)) for j in range(1, params.d + 1))),
        (tuple(_binomial_cdf(n, q)), tuple(long_selector(i, params) for i in range(n))),
    )


def _subset(table: tuple, m: int, words: tuple, at: int) -> tuple:
    """The entries of ``table`` (sorted) at a uniform m-subset of its indices,
    shuffled by the words from ``at`` on."""
    n = len(table)
    if m == n:
        return table
    # position -> index, only where a swap moved it
    moved: dict[int, int] = {}
    for i in range(m):
        j = i + ((words[at + i] * (n - i)) >> 64)
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return tuple(table[i] for i in sorted(moved[i] for i in range(m)))


def _pick(table: tuple, m: int, words: tuple, at: int) -> tuple:
    """``_subset(table, m, words, at)``; at m = 1 the index of the shuffle's
    first step, (w n) >> 64, picks the one entry directly."""
    if m > 1:
        return _subset(table, m, words, at)
    return (table[(words[at] * len(table)) >> 64],) if m else ()


def open_edges(keyed, data: bytes, short: tuple, long: tuple) -> tuple[tuple, tuple]:
    """The open (short, long) out-edges of one tail, each a sorted tuple, from
    the stream at the prefix-free input ``data`` under ``keyed_hash`` state
    ``keyed``; ``short`` and ``long`` are (binomial CDF, edge table) pairs."""
    (short_cdf, short_table), (long_cdf, long_table) = short, long
    words = _block(keyed, data, 0)
    # the count of CDF entries <= u: m is 0 on every stream at prob 0, n at 1
    m_s = bisect_right(short_cdf, (words[0] >> 11) * _GRAIN)
    m_l = bisect_right(long_cdf, (words[1] >> 11) * _GRAIN)
    # 2 + m_s + m_l words in all: a further block once they pass 8
    for b in range(1, (m_s + m_l + 9) >> 3):
        words += _block(keyed, data, b)
    return _pick(short_table, m_s, words, 2), _pick(long_table, m_l, words, 2 + m_s)


class EdgeOracle:
    """Memoized sampler of edge statuses for one percolation realization.

    Short edges out of a vertex are open with probability ``p``, long edges
    with probability ``q``.  Both kinds are drawn together by ``open_edges``
    from the vertex's stream at its first query; re-queries of either kind
    return the memoized draw.
    """

    def __init__(self, params: TreeParams, p: float, q: float, seed: int, trial: int = 0):
        p, q = check_probabilities(p=p, q=q)
        self.params = params
        self.seed = realization_seed(seed, trial)
        self._keyed = keyed_hash(self.seed)
        self._short, self._long = edge_tables(params, p, q)
        self._memo: dict[bytes, tuple] = {}

    def _open(self, v: bytes) -> tuple:
        # vertex digits are nonzero, so the zero byte ends the vertex and
        # makes every input prefix-free
        self._memo[v] = edges = open_edges(self._keyed, v + b"\x00", self._short, self._long)
        return edges

    def open_short_children(self, v: bytes) -> tuple:
        """Sorted tuple of one-byte child digits j with the short edge
        v -> v + j open."""
        return (self._memo.get(v) or self._open(v))[0]

    def open_long_children(self, v: bytes) -> tuple:
        """Sorted tuple of k-byte selectors s in [d]^k with the long edge
        v -> v + s open."""
        return (self._memo.get(v) or self._open(v))[1]
