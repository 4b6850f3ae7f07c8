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
of this law, vectorised over parent windows.  The exact pmf
(``child_window_dist``), the sparse mean offspring matrix over all nonempty
windows (``build_offspring_matrix``) and the transition tables of the
count-level simulation (``simulate_window_chain``) are all read from it.
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
    """Estimated bytes of the child-window law enumerated over every
    (window, child) pair, once as arrays and once as the copy built from
    them: n_types * d * 2^t outcomes, 16 bytes each per copy."""
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


def build_offspring_matrix(
    params: TreeParams, p: float, q: float, *, chunk: int = 2048
) -> SparseOffspringMatrix:
    """Exact mean offspring matrix over all 2^W - 1 nonempty windows.

    M(A, B) is the child-window law summed over the d children.  Rows are
    built ``chunk`` parent windows at a time, which bounds the law's
    temporary (chunk, 2^t) arrays.  Raises ``SizeCapError`` before building
    when the estimated memory exceeds ``MAX_ARRAY_BYTES``.
    """
    child_law = ChildWindowLaw(params, p, q)
    _check_bytes(
        _law_bytes(params),
        f"the offspring matrix at (d={params.d}, k={params.k})",
    )
    n_types = (1 << params.window_slots) - 1
    rows_parts, cols_parts, data_parts = [], [], []
    for start in range(1, n_types + 1, chunk):
        a = np.arange(start, min(start + chunk, n_types + 1), dtype=np.int64)
        for i in range(1, params.d + 1):
            windows, probs = child_law(a, i)
            keep = (windows > 0) & (probs > 0.0)
            rows, _ = np.nonzero(keep)
            # int32 suffices (MAX_WINDOW_BITS is 20) and is the index type
            # scipy stores, so the COO build makes no wider copy
            rows_parts.append((rows + (start - 1)).astype(np.int32))
            cols_parts.append((windows[keep] - 1).astype(np.int32))
            data_parts.append(probs[keep])

    coo = sparse.coo_matrix(
        (
            np.concatenate(data_parts),
            (np.concatenate(rows_parts), np.concatenate(cols_parts)),
        ),
        shape=(n_types, n_types),
    )
    csr = coo.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    return SparseOffspringMatrix(params, p, q, csr)


def chain_survival(
    params: TreeParams,
    p: float,
    q: float,
    depth: int,
    trials: int,
    rng: np.random.Generator,
    initial=None,
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
    done = 0
    while done < trials:
        n = min(batch, trials - done)
        final, _ = simulate_window_chain(
            params, p, q, rng, generations, trials=n, initial=initial
        )
        alive += int((final.sum(axis=1) > 0).sum())
        done += n
    freq = alive / trials
    return freq, float(np.sqrt(freq * (1.0 - freq) / trials))


def _transition_tables(child_law: ChildWindowLaw):
    """Per parent window A (list index A-1), one entry per child: the
    outcome windows of positive probability, in increasing order, as
    ``(columns of the nonempty outcomes, nonempty mask, probabilities)``.
    """
    a = np.arange(1, 1 << child_law.params.window_slots, dtype=np.int64)
    laws = [child_law(a, i) for i in range(1, child_law.params.d + 1)]
    tables = []
    for r in range(len(a)):
        per_child = []
        for windows, probs in laws:
            keep = probs[r] > 0.0
            outcomes = windows[r, keep]
            live = outcomes > 0
            per_child.append((outcomes[live] - 1, live, probs[r, keep]))
        tables.append(per_child)
    return tables


def simulate_window_chain(
    params: TreeParams,
    p: float,
    q: float,
    rng: np.random.Generator,
    generations: int,
    trials: int = 1,
    initial=None,
    population_cap: int = 10**8,
):
    """Simulate the window chain for many independent trials at once.

    Offspring are aggregated per type with multinomial draws, which is the
    exact law of summed i.i.d. child windows, so the cost per generation does
    not grow with the population size.  Only the current and the next
    generation are held in memory.

    Returns ``(final_counts, x)`` where ``final_counts`` has shape
    (trials, 2^W - 1) with the per-type populations of the last generation
    and ``x`` has shape (trials, generations + 1) with the number of
    individuals per generation whose window contains the root, i.e. the
    height-layer occupation counts of the underlying cluster.

    ``initial`` may be a window bitmask (fixed initial type) or a pmf mapping
    windows to probabilities; default is the root-window law at parameter p.
    Raises ``SizeCapError`` before allocating when the estimated memory
    exceeds ``MAX_ARRAY_BYTES``.
    """
    if generations < 0:
        raise ParameterError("generations must be >= 0")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    child_law = ChildWindowLaw(params, p, q)
    n_types = (1 << params.window_slots) - 1
    # the law's arrays and their copies in the tables, then two generations
    # and x
    _check_bytes(
        _law_bytes(params) + 8 * trials * (2 * n_types + generations + 1),
        f"{trials} chain trials over {generations} generations at "
        f"(d={params.d}, k={params.k})",
    )
    tables = _transition_tables(child_law)

    cur = np.zeros((trials, n_types), dtype=np.int64)
    nxt = np.zeros_like(cur)
    x = np.empty((trials, generations + 1), dtype=np.int64)
    if initial is None:
        initial = initial_window_dist(params, p)
    if isinstance(initial, int):
        cur[:, initial - 1] = 1
    else:
        support = np.array(sorted(initial), dtype=np.int64)
        pvals = np.array([initial[w] for w in support])
        pvals = pvals / pvals.sum()
        drawn = support[rng.choice(len(support), size=trials, p=pvals)]
        for w in np.unique(drawn):
            cur[drawn == w, w - 1] = 1
    # windows holding the root are the odd bitmasks, i.e. the even columns
    x[:, 0] = cur[:, 0::2].sum(axis=1)

    for gen in range(generations):
        nxt.fill(0)
        for a in np.flatnonzero(cur.any(axis=0)) + 1:
            n_parents = cur[:, a - 1]
            for cols, live, pvals in tables[a - 1]:
                draws = rng.multinomial(n_parents, pvals)
                nxt[:, cols] += draws[:, live]
        total = int(nxt.sum())
        if total > population_cap:
            raise SizeCapError(
                f"population {total} exceeds cap {population_cap} at generation {gen + 1}"
            )
        cur, nxt = nxt, cur
        x[:, gen + 1] = cur[:, 0::2].sum(axis=1)
    return cur, x
