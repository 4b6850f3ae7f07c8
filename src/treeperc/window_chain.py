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

``critical`` solves a smaller matrix with the same Perron root, the ray's
(``build_offspring_matrix(..., ray=True)``).  A top slot's k bits along its
path from the window's base are the last k cluster indicators of its
ancestral ray, and they form a Markov chain: each of the slot's d children
is set independently with the probability pi above, a the slot's own bit
(the newest) and b the base's (the oldest).  Counting vertices by that
state is a (2^k - 1)-type Galton-Watson process with mean matrix d * T.
"""

from __future__ import annotations

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

    A type is a window or a ray state, encoded as a bitmask integer in
    [1, 2^W) or [1, 2^k); row/column index ``i - 1`` names type ``i``.
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


def _ray_matrix(params: TreeParams, p: float, q: float) -> sparse.csr_matrix:
    """d * T over the 2^k - 1 nonzero ray states, state s as row and column
    s - 1: bit 0 of s is the newest indicator and bit k-1 the oldest, and
    each of the d children of a vertex in state s is set with the top-slot
    probability pi_s of its newest and oldest bits."""
    n = (1 << params.k) - 1
    s = np.arange(1, n + 1)
    pi = _open_prob(p, q, s & 1, s >> (params.k - 1) & 1)
    to = (s << 1) & n  # the child's state with its own bit unset; | 1 when set
    # the zero state is no type: its entry (only at s = 2^(k-1)) is zeroed
    # and dropped with the other zeros
    data = np.column_stack([params.d * (1.0 - pi) * (to > 0), params.d * pi]).ravel()
    indices = np.column_stack([np.maximum(to - 1, 0), to]).ravel()
    csr = sparse.csr_matrix((data, indices, np.arange(0, 2 * n + 1, 2)), shape=(n, n))
    csr.eliminate_zeros()
    return csr


def build_offspring_matrix(
    params: TreeParams, p: float, q: float, ray: bool = False
) -> SparseOffspringMatrix:
    """Exact mean offspring matrix M(A, B), the child-window law summed over
    the d children, without the empty-window column.

    By default it spans all 2^W - 1 nonempty windows: the running sum of the
    law blocks, one block at a time, after its estimated memory is checked
    against ``MAX_ARRAY_BYTES`` (``SizeCapError`` otherwise).  With ``ray``
    it is the mean matrix d * T of the ray process instead, over its 2^k - 1
    nonzero states, which has the same Perron root.
    """
    check_probabilities(p=p, q=q)
    if ray:
        return SparseOffspringMatrix(_ray_matrix(params, p, q))
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
