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
(``child_window_dist``) reads it directly.  Over all nonempty parent windows,
the law of one child is one CSR block (``_law_block``): row ``A - 1`` holds
the outcome windows of positive probability as columns, with column 0 the
empty window.  The sparse mean offspring matrix (``build_offspring_matrix``)
is the sum of the d blocks, and the count-level simulation
(``simulate_window_chain``) samples their rows.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ParameterError, SizeCapError, check_probabilities
from .tree import TreeParams, parent, slot_index, slot_vertex

#: Enumerating a child-window law costs 2^(top slots); refuse beyond this.
MAX_TOP_SLOTS = 16

#: Bytes an offspring-matrix build or a count-level chain run may hold.
MAX_ARRAY_BYTES = 1 << 30

#: Total population at which a count-level chain run stops.
POPULATION_CAP = 10**8


class SparseOffspringMatrix:
    """Mean offspring rates M(A, B) over nonempty windows, stored row-sparse.

    Windows are encoded as bitmask integers in [1, 2^W); row/column index
    ``w - 1`` corresponds to window ``w``.
    """

    def __init__(self, params: TreeParams, p: float, q: float, csr: sparse.csr_matrix):
        self.params = params
        self.p = p
        self.q = q
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
        if params.n_top_slots > MAX_TOP_SLOTS:
            raise SizeCapError(
                f"a child-window law has 2^{params.n_top_slots} outcomes; "
                f"(d={params.d}, k={params.k}) exceeds the enumeration cap"
            )
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
        det = np.zeros_like(a)
        for j, tgt in enumerate(self._low_targets[child - 1]):
            det |= (a >> tgt & 1) << j
        b = a & 1
        probs = np.ones((len(a), 1))
        for src in self._top_sources[child - 1]:
            pi = (1.0 - (1.0 - self.p * (a >> src & 1)) * (1.0 - self.q * b))[:, None]
            probs = np.concatenate([probs * (1.0 - pi), probs * pi], axis=1)
        return det[:, None] | self._top_windows, probs


def _law_bytes(params: TreeParams) -> int:
    """Estimated bytes of the d law blocks: n_types * d * 2^t outcomes, 32
    bytes each, which covers one child's law arrays while they become its
    block together with the blocks (or their running sum) already built."""
    n_types = (1 << params.window_slots) - 1
    return 32 * (n_types * params.d << params.n_top_slots)


def _check_bytes(need: int, what: str) -> None:
    if need > MAX_ARRAY_BYTES:
        raise SizeCapError(
            f"{what} needs about {need / 2**30:.1f} GiB, above the cap of "
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


def _law_block(child_law: ChildWindowLaw, child: int) -> sparse.csr_matrix:
    """The law of child ``child`` over every nonempty parent window, as an
    (n_types, n_types + 1) CSR matrix: row A - 1, column w is the probability
    of window w, and column 0 the empty window.  The law's rows are already
    fixed-width CSR rows with increasing columns; zero outcomes are dropped."""
    n_types = (1 << child_law.params.window_slots) - 1
    windows, probs = child_law(np.arange(1, n_types + 1, dtype=np.int64), child)
    width = windows.shape[1]
    block = sparse.csr_matrix(
        (probs.ravel(), windows.ravel(), np.arange(0, n_types * width + 1, width)),
        shape=(n_types, n_types + 1),
    )
    block.eliminate_zeros()
    return block


def build_offspring_matrix(params: TreeParams, p: float, q: float) -> SparseOffspringMatrix:
    """Exact mean offspring matrix over all 2^W - 1 nonempty windows.

    M(A, B) is the child-window law summed over the d children: the running
    sum of the law blocks, one block at a time, without the empty-window
    column.  Raises ``SizeCapError`` before building when the estimated
    memory exceeds ``MAX_ARRAY_BYTES``.
    """
    child_law = ChildWindowLaw(params, p, q)
    _check_bytes(_law_bytes(params), f"the offspring matrix at (d={params.d}, k={params.k})")
    total = _law_block(child_law, 1)
    for i in range(2, params.d + 1):
        total = total + _law_block(child_law, i)
    return SparseOffspringMatrix(params, p, q, total[:, 1:])


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
    child read that type's row of the child's law block.  Only the current
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
    child_law = ChildWindowLaw(params, p, q)
    n_types = (1 << params.window_slots) - 1
    # the law blocks, then two generations and x
    _check_bytes(
        _law_bytes(params) + 8 * trials * (2 * n_types + generations + 1),
        f"{trials} chain trials over {generations} generations at "
        f"(d={params.d}, k={params.k})",
    )
    blocks = [_law_block(child_law, i) for i in range(1, params.d + 1)]

    cur = np.zeros((trials, n_types), dtype=np.int64)
    nxt = np.zeros_like(cur)
    x = np.empty((trials, generations + 1), dtype=np.int64)
    support, pvals = map(np.array, zip(*sorted(initial_window_dist(params, p).items())))
    drawn = support[rng.choice(len(support), size=trials, p=pvals / pvals.sum())]
    cur[np.arange(trials), drawn - 1] = 1
    # windows holding the root are the odd bitmasks, i.e. the even columns
    x[:, 0] = cur[:, 0::2].sum(axis=1)

    for gen in range(generations):
        nxt.fill(0)
        for row in np.flatnonzero(cur.any(axis=0)):
            n_parents = cur[:, row]
            for block in blocks:
                s, e = block.indptr[row], block.indptr[row + 1]
                draws = rng.multinomial(n_parents, block.data[s:e])
                outcomes = block.indices[s:e]
                live = outcomes > 0
                nxt[:, outcomes[live] - 1] += draws[:, live]
        total = int(nxt.sum())
        if total > POPULATION_CAP:
            raise SizeCapError(
                f"population {total} exceeds cap {POPULATION_CAP} at generation {gen + 1}"
            )
        cur, nxt = nxt, cur
        x[:, gen + 1] = cur[:, 0::2].sum(axis=1)
    return cur, x
