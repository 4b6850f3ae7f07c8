"""Exact branching-process representation of the cluster by window types.

The trace of the cluster in the height-(k-1) slab below a vertex (its
"window") evolves as a multi-type branching process over nonempty window
bitmasks.  The one-step law for the window of child ``i`` of a vertex with
window ``A`` factorizes:

* slots of height <= k-2 are determined: slot u is set iff ``i.u`` is in A;
* each height-(k-1) slot u is set independently with probability
  ``1 - (1 - p*a) * (1 - q*b)``, where a indicates that the slot's parent
  ``i.parent(u)`` is in A (short edge from the parent) and b indicates that
  the base vertex itself is in A (long edge from the base).

These are exactly the edges a height-layered exploration has not queried
before, so the chain is Markov.  :class:`ChildWindowLaw` is the one encoding
of this law, vectorised over parent windows, and the exact pmf
(``child_window_dist``) reads it directly.  Over all nonempty parent
windows, the law of one child is one CSR block (``_law_block``), window w as
column w and column 0 the empty window.  The sparse mean offspring matrix
(``build_offspring_matrix``) is the sum of the d blocks, and the count-level
simulation (``simulate_window_chain``) samples the rows of the blocks, each
row only for the trials that hold its type.

``critical`` solves the quotient of that matrix over window orbits, and
builds it in orbit space alone.  A window orbit is coded per level as its
root bit and the sorted orbits of its d child subtrees (``_orbit_codes``),
and child i's law depends only on the parent's root bit and its i-th child
orbit: that orbit is the child window's deterministic low part.  Swapping
two top slots below the same bottom vertex v (a height-(k-2) slot) is a
slab automorphism that fixes every other slot, so the child window's orbit
depends only on that low part and on how many top slots are set below each
v.  Those counts are independent Binomial(d, pi_v), with pi_v the top-slot
probability above, so a child has (d+1)^m outcomes per parent row, not
2^(dm), for m = d^(k-2) bottom vertices, and the orbit of each outcome is
read level by level from its child orbit's code.  Everything but the
binomial pmfs is computed once per (d, k) (``_count_layout``); nothing on
this path is sized by the 2^W windows.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import ParameterError, SizeCapError, check_probabilities
from .tree import TreeParams, parent, slot_index, slot_vertex

#: Bytes an offspring-matrix build or a count-level chain run may hold.
MAX_ARRAY_BYTES = 1 << 30

#: Total population at which a count-level chain run stops.
POPULATION_CAP = 10**8


class SparseOffspringMatrix:
    """Mean offspring rates M(A, B) over nonempty types, stored row-sparse.

    A type is a window or a window orbit.  Windows are encoded as bitmask
    integers in [1, 2^W), and orbits by their per-level codes in [1,
    n_orbits] from ``_orbit_codes``; row/column index ``i - 1`` names window or
    orbit ``i``.
    """

    def __init__(self, csr: sparse.csr_matrix):
        self.csr = csr

    @property
    def n_types(self) -> int:
        return self.csr.shape[0]

    def iter_entries(self):
        """Yield (A, B, rate) in deterministic row-major, column-sorted order."""
        coo = self.csr.tocoo()
        for a, b, v in zip(coo.row, coo.col, coo.data):
            yield int(a) + 1, int(b) + 1, float(v)


def _child_slot_maps(params: TreeParams):
    """Per child digit i: slot targets of the deterministic part and slot
    sources of the top-slot short-edge indicators."""
    d, base, t = params.d, params.top_slot_base, params.n_top_slots
    low_targets = []
    top_sources = []
    for i in range(1, d + 1):
        low_targets.append(
            np.array(
                [slot_index((i,) + slot_vertex(j, params), params) for j in range(base)],
                dtype=np.int64,
            )
        )
        top_sources.append(
            np.array(
                [
                    slot_index((i,) + parent(slot_vertex(base + u, params)), params)
                    for u in range(t)
                ],
                dtype=np.int64,
            )
        )
    return low_targets, top_sources


def _low_part(a: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The deterministic slots of height <= k-2 of one child's window, for
    each parent window in ``a``: slot j is bit ``targets[j]`` of the parent."""
    det = np.zeros_like(a)
    for j, tgt in enumerate(targets):
        det |= (a >> tgt & 1) << j
    return det


def _open_prob(p: float, q: float, a, b):
    """Probability that a top slot is set: the short edge from its parent
    (in the window iff ``a``) or the long edge from the base (in the window
    iff ``b``) is open."""
    return 1.0 - (1.0 - p * a) * (1.0 - q * b)


class ChildWindowLaw:
    """One-step law of the window of child ``i`` given parent windows ``A``.

    ``law(a, i)`` takes an int64 array of n nonempty parent windows and a
    child digit i in [1, d] and returns ``(windows, probs)``, both of shape
    (n, 2^t) for t top slots.  Column m is the outcome whose top slots are
    the set bits of m, so windows increase along each row; outcomes of
    probability zero are kept.  The product over top slots is built in slot
    order, one factor per slot.
    """

    def __init__(self, params: TreeParams, p: float, q: float):
        check_probabilities(p=p, q=q)
        self.params = params
        self.p = p
        self.q = q
        self._low_targets, self._top_sources = _child_slot_maps(params)
        self._top_windows = (
            np.arange(1 << params.n_top_slots, dtype=np.int64) << params.top_slot_base
        )

    def __call__(self, a: np.ndarray, child: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= child <= self.params.d:
            raise ParameterError(f"child digit {child} outside [1, {self.params.d}]")
        det = _low_part(a, self._low_targets[child - 1])
        b = a & 1
        probs = np.ones((len(a), 1))
        for src in self._top_sources[child - 1]:
            pi = _open_prob(self.p, self.q, a >> src & 1, b)[:, None]
            probs = np.concatenate([probs * (1.0 - pi), probs * pi], axis=1)
        return det[:, None] | self._top_windows, probs


def _law_bytes(params: TreeParams) -> int:
    """Estimated bytes of the d law blocks over all 2^W - 1 nonempty parent
    windows: the 8 * 2^W-byte row array, and d * 2^t outcomes per row at 32
    bytes each, which covers one child's law arrays while they become its
    block together with the blocks (or their running sum) already built."""
    n_rows = (1 << params.window_slots) - 1
    return (8 << params.window_slots) + 32 * (n_rows * params.d << params.n_top_slots)


def _check_bytes(need: int, what: str) -> None:
    if need > MAX_ARRAY_BYTES:
        raise SizeCapError(
            f"{what} needs about {need / 2**30:.2f} GiB, above the cap of "
            f"{MAX_ARRAY_BYTES / 2**30:.1f} GiB"
        )


def child_window_dist(a: int, child: int, p: float, q: float, params: TreeParams) -> dict[int, float]:
    """Exact pmf over the child's window (0 encodes the empty window)."""
    if a <= 0:
        raise ParameterError("parent window must be nonempty")
    windows, probs = ChildWindowLaw(params, p, q)(np.array([a], dtype=np.int64), child)
    keep = probs[0] > 0.0
    return dict(zip(windows[0, keep].tolist(), probs[0, keep].tolist()))


def initial_window_dist(params: TreeParams, p: float) -> dict[int, float]:
    """Law of the root's window: short-edge subtrees truncated at height k-1.

    Supported on windows that contain the root slot and are closed under
    taking parents; the empty window has mass zero since the root always
    belongs to its own cluster.
    """
    base = params.top_slot_base
    d = params.d
    # grow the subtree level by level: state maps window -> prob
    pmf = {1: 1.0}
    for j in range(base):  # slots whose children lie in the slab
        child_slots = [d * j + c for c in range(1, d + 1)]
        nxt: dict[int, float] = {}
        for w, pr in pmf.items():
            if not w >> j & 1:
                nxt[w] = nxt.get(w, 0.0) + pr
                continue
            for mask in range(1 << d):
                prob = pr
                add = 0
                for c in range(d):
                    if mask >> c & 1:
                        prob *= p
                        add |= 1 << child_slots[c]
                    else:
                        prob *= 1.0 - p
                if prob > 0.0:
                    nxt[w | add] = nxt.get(w | add, 0.0) + prob
        pmf = nxt
    return pmf


def _law_block(child_law: ChildWindowLaw, child: int):
    """The law of child ``child`` given each nonempty parent window, as a CSR
    matrix with window w as row w - 1 and as column w, column 0 the empty
    window.  The law's rows are already fixed-width CSR rows with increasing
    columns, so nothing is summed.  Zero outcomes are dropped."""
    rows = np.arange(1, 1 << child_law.params.window_slots, dtype=np.int64)
    windows, probs = child_law(rows, child)
    width = windows.shape[1]
    block = sparse.csr_matrix(
        (probs.ravel(), windows.ravel(), np.arange(0, len(rows) * width + 1, width)),
        shape=(len(rows), len(rows) + 1),
    )
    block.eliminate_zeros()
    return block


def _n_orbits(params: TreeParams) -> int:
    """Number of nonempty window orbits: a height-0 subtree has f(0) = 2
    orbits (its bit), and a height-h one f(h) = 2 C(f(h-1) + d - 1, d) (its
    bit, and a multiset of d child orbits)."""
    f = 2
    for _ in range(params.k - 1):
        f = 2 * math.comb(f + params.d - 1, params.d)
    return f - 1


def _quotient_bytes(params: TreeParams) -> int:
    """Estimated bytes of the orbit quotient's count layout
    (``_count_layout``): d * n_orbits * (d+1)^m outcomes at 48 bytes each,
    which covers its sort while it is built and one evaluation afterwards.
    The orbit codes it reads are smaller: their largest array has d entries
    per height-(k-2) orbit and count vector, at most half the outcomes."""
    m = params.n_top_slots // params.d
    return 48 * params.d * _n_orbits(params) * (params.d + 1) ** m


@lru_cache(maxsize=None)
def _orbit_codes(params: TreeParams):
    """Orbit codes of the windows, ``(kids, leaves, grown)``, built one
    height at a time from the two top-slot bits up.

    A height-0 orbit is a top slot's bit.  A height-h orbit is its bit and
    the sorted ids of its d height-(h-1) child orbits, numbered in
    lexicographic order: id = bit * T + rank of the child tuple among the T
    nondecreasing d-tuples, so the empty window has id 0.  These are the
    canonical codes of bit-labelled rooted trees (Aho, Hopcroft & Ullman,
    1974): two windows share an orbit under the slab's automorphisms iff
    they share a code.  Window orbit o places its child orbits ``kids[o]``,
    in decreasing order, at the children 1..d of its root; ``leaves[o]`` are
    then its top-slot bits in slot order.  A count vector j over the leaves
    of a height-(k-2) orbit c, leaf 0 the most significant base-(d+1) digit,
    sets that many slots below each leaf, and ``grown[c, j]`` is the window
    orbit of the result, found through the extensions of c's children.  All
    arrays are read-only.
    """
    d = params.d
    kids, leaves = np.zeros((2, 0), dtype=np.int64), np.arange(2)[:, None]
    for h in range(params.k - 1):
        n = len(kids)
        tuples = np.array(list(itertools.combinations_with_replacement(range(n), d)))
        if h == 0:  # the d new slots below a top slot, the last s of them set
            new = np.broadcast_to(np.arange(d) >= d - np.arange(d + 1)[:, None], (n, d + 1, d))
        else:  # child p extended by count vector j_p, j_0 most significant
            digits = np.indices((grown.shape[1],) * d).reshape(d, -1).T
            new = grown[kids[:, None, :], digits]
        radix = n ** np.arange(d - 1, -1, -1)
        grown = (np.arange(n) >= n // 2)[:, None] * len(tuples) + np.searchsorted(
            tuples @ radix, np.sort(new, axis=2) @ radix
        )
        kids = np.tile(tuples[:, ::-1], (2, 1))
        leaves = leaves[kids].reshape(len(kids), -1)
    for array in (kids, leaves, grown):
        array.flags.writeable = False
    return kids, leaves, grown


def _count_pmf(d: int, key_rows: np.ndarray, p: float, q: float) -> np.ndarray:
    """Probability of every count vector (columns) given each row of
    ``key_rows``: below each bottom vertex v the count of set top slots is
    Binomial(d, pi_v), independently over v, where pi_v is the top-slot
    probability of ``ChildWindowLaw`` for the (parent bit, base bit) pair
    ``key % 2, key // 2``."""
    s = np.arange(d + 1)
    pi = _open_prob(p, q, np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))[:, None]
    pmf = np.array([math.comb(d, j) for j in s]) * pi**s * (1.0 - pi) ** (d - s)
    probs = np.ones((len(key_rows), 1))
    for v in range(key_rows.shape[1]):
        probs = (probs[:, :, None] * pmf[key_rows[:, v]][:, None, :]).reshape(len(key_rows), -1)
    return probs


class _CountLayout(NamedTuple):
    """The (p, q)-free part of the orbit quotient's law.

    Outcome (i, r, j) is child i + 1 of window orbit r + 1 (``_orbit_codes``)
    with count vector j.  Its orbit column is ``cols[i, r, j]``, 0 the empty
    window, and its probability is entry j of the ``_count_pmf`` row of
    ``key_rows[key_ids[i, r]]``, that row's (parent bit + 2 * base bit) per
    bottom vertex.  ``collect`` maps the flattened pmf rows to the entries
    of the summed matrix, whose CSR pattern is ``indices``/``indptr``: for C
    = (d+1)^m count vectors, entry (e, u * C + j) counts the outcomes with
    key row u and count vector j that land on entry e.
    """

    key_rows: np.ndarray
    key_ids: np.ndarray
    cols: np.ndarray
    collect: sparse.csr_matrix
    indices: np.ndarray
    indptr: np.ndarray


@lru_cache(maxsize=None)
def _count_layout(params: TreeParams) -> _CountLayout:
    """Count layout of the orbit quotient's law, computed once per (d, k)
    after its memory estimate is checked.  Child i of a window orbit is its
    child orbit ``kids[i]`` extended by one level: its bottom vertices are
    the leaves of that orbit, whose bits and the parent's root bit set the
    count pmf, and ``grown`` names its orbit.  All arrays are read-only."""
    _check_bytes(_quotient_bytes(params), f"the orbit quotient at (d={params.d}, k={params.k})")
    kids, leaves, grown = _orbit_codes(params)
    d, n, m = params.d, len(kids) - 1, params.n_top_slots // params.d
    cols = grown.astype(np.int32)[kids[1:].T]
    base = np.arange(1, n + 1) >= (n + 1) // 2
    keys = leaves[1:].reshape(n, d, m).transpose(1, 0, 2) + 2 * base[:, None]
    key_rows, key_ids = np.unique(keys.reshape(d * n, m), axis=0, return_inverse=True)
    key_ids = key_ids.reshape(d, n)
    # (key row, count vector) of every outcome; at p = q = 1/2 the count pmf
    # is positive except where pi_v = 0 for all (p, q), so this keeps the
    # outcomes of positive probability somewhere, those of nonempty windows
    n_counts = cols.shape[2]
    width = n_counts * len(key_rows)
    src = key_ids[..., None] * n_counts + np.arange(n_counts)
    live = (cols > 0) & (_count_pmf(d, key_rows, 0.5, 0.5).ravel()[src] > 0.0)
    # row r, orbit column c > 0 is entry r * n + c - 1
    entry = np.arange(n)[:, None] * n + cols - 1
    pairs, multiplicity = np.unique((entry * width + src)[live], return_counts=True)
    del src, live, entry
    entries, first = np.unique(pairs // width, return_index=True)
    collect = sparse.csr_matrix(
        (multiplicity.astype(float), pairs % width, np.append(first, len(pairs))),
        shape=(len(entries), width),
    )
    indptr = np.searchsorted(entries, np.arange(n + 1) * n)
    indices = entries % n
    for array in (key_rows, key_ids, cols, indices, indptr, collect.data, collect.indices, collect.indptr):
        array.flags.writeable = False
    return _CountLayout(key_rows, key_ids, cols, collect, indices, indptr)


def build_offspring_matrix(
    params: TreeParams, p: float, q: float, quotient: bool = False
) -> SparseOffspringMatrix:
    """Exact mean offspring matrix M(A, B), the child-window law summed over
    the d children, without the empty-window column.

    By default it spans all 2^W - 1 nonempty windows: the running sum of the
    law blocks, one block at a time.  With ``quotient`` it is the orbit
    quotient M_L(O, O') = sum over B in O' of M(A, B) for any A in O: the
    count law's pmf rows (``_count_pmf``), collected into the cached pattern
    of ``_count_layout``.
    Raises ``SizeCapError`` before building when the estimated memory
    exceeds ``MAX_ARRAY_BYTES``.
    """
    check_probabilities(p=p, q=q)
    if quotient:
        layout = _count_layout(params)
        n = len(layout.indptr) - 1
        data = layout.collect @ _count_pmf(params.d, layout.key_rows, p, q).ravel()
        csr = sparse.csr_matrix((data, layout.indices, layout.indptr), shape=(n, n), copy=True)
        csr.eliminate_zeros()
        return SparseOffspringMatrix(csr)
    _check_bytes(_law_bytes(params), f"the offspring matrix at (d={params.d}, k={params.k})")
    child_law = ChildWindowLaw(params, p, q)
    total = _law_block(child_law, 1)
    for i in range(2, params.d + 1):
        total = total + _law_block(child_law, i)
    return SparseOffspringMatrix(total[:, 1:])


def chain_survival(
    params: TreeParams,
    p: float,
    q: float,
    depth: int,
    trials: int,
    rng: np.random.Generator,
    batch: int = 20000,
):
    """Survival frequency of the cluster at a given depth, with binomial SE.

    "Alive at depth n" means the cluster holds a vertex with height in
    [n-k+1, n]; generation n-k+1 of the window chain covers exactly that slab,
    so the frequency is the fraction of trials whose chain population is
    nonzero there.  Trials run in batches to bound memory.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if depth < params.k:
        raise ParameterError(f"depth must be >= k={params.k}")
    generations = depth - params.k + 1
    alive = 0
    for done in range(0, trials, batch):
        n = min(batch, trials - done)
        final, _ = simulate_window_chain(params, p, q, rng, generations, trials=n)
        alive += int((final.sum(axis=1) > 0).sum())
    freq = alive / trials
    return freq, float(np.sqrt(freq * (1.0 - freq) / trials))


def simulate_window_chain(
    params: TreeParams,
    p: float,
    q: float,
    rng: np.random.Generator,
    generations: int,
    trials: int = 1,
):
    """Simulate the window chain for many independent trials at once.

    Offspring are aggregated per type with multinomial draws, which is the
    exact law of summed i.i.d. child windows, so the cost per generation does
    not grow with the population size.  The draws for a parent type and a
    child read that type's row of the child's law block, and run only over
    the trials that hold that type.  numpy's multinomial returns zeros for
    n = 0 without reading the bit generator, so this consumes the stream
    exactly as drawing over all trials would: the outputs and the generator
    state after the call are those of the all-trials loop.  Only the current
    and the next generation are held in memory.

    Returns ``(final_counts, x)`` where ``final_counts`` has shape
    (trials, 2^W - 1) with the per-type populations of the last generation
    and ``x`` has shape (trials, generations + 1) with the number of
    individuals per generation whose window contains the root, i.e. the
    height-layer occupation counts of the underlying cluster.

    The initial type is drawn from the root-window law at parameter p.
    Raises ``SizeCapError`` before allocating when the estimated memory
    exceeds ``MAX_ARRAY_BYTES``, and once the total population exceeds
    ``POPULATION_CAP``.
    """
    if generations < 0:
        raise ParameterError("generations must be >= 0")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    check_probabilities(p=p, q=q)
    n_types = (1 << params.window_slots) - 1
    # the law blocks, then two generations and x
    _check_bytes(
        _law_bytes(params) + 8 * trials * (2 * n_types + generations + 1),
        f"{trials} chain trials over {generations} generations at "
        f"(d={params.d}, k={params.k})",
    )
    child_law = ChildWindowLaw(params, p, q)
    blocks = [_law_block(child_law, i) for i in range(1, params.d + 1)]

    cur = np.zeros((trials, n_types), dtype=np.int64)
    nxt = np.zeros_like(cur)
    x = np.zeros((trials, generations + 1), dtype=np.int64)
    support, pvals = map(np.array, zip(*sorted(initial_window_dist(params, p).items())))
    drawn = support[rng.choice(len(support), size=trials, p=pvals / pvals.sum())]
    cur[np.arange(trials), drawn - 1] = 1
    # windows holding the root are the odd bitmasks, i.e. the even columns
    x[:, 0] = cur[:, 0::2].sum(axis=1)

    for gen in range(generations):
        nxt.fill(0)
        for row in np.flatnonzero(cur.any(axis=0)):
            holders = np.flatnonzero(cur[:, row])
            n_parents = cur[holders, row]
            for block in blocks:
                s, e = block.indptr[row], block.indptr[row + 1]
                draws = rng.multinomial(n_parents, block.data[s:e])
                outcomes = block.indices[s:e]
                live = outcomes > 0
                nxt[holders[:, None], outcomes[live] - 1] += draws[:, live]
        total = int(nxt.sum())
        if total > POPULATION_CAP:
            raise SizeCapError(
                f"population {total} exceeds cap {POPULATION_CAP} at generation {gen + 1}"
            )
        cur, nxt = nxt, cur
        x[:, gen + 1] = cur[:, 0::2].sum(axis=1)
        if total == 0:
            break  # extinct in every trial: later generations stay empty
    return cur, x
