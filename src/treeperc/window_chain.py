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
before, so the chain is Markov.  The root's window is the short-edge
subtree cut at height k-1: a slot is set with probability p if its parent
slot is, else never.  Both laws set one slot at a time, independently, in
slot order (``_set_slots``); ``child_window_dist`` and
``initial_window_dist`` are their exact pmfs.

The one mean matrix, and the count-level simulation, run on the ancestral
ray instead.  A top slot's k bits along its path from the window's base are
the last k cluster indicators of its ancestral ray, and they form a Markov
chain: each of the slot's d children is set independently with the
probability pi above, a the slot's own bit (the newest) and b the base's
(the oldest).  Counting vertices by that state is a (2^k - 1)-type
Galton-Watson process.  ``_ray_pi`` and ``_ray_children`` define its step
once.  Its mean matrix d * T (``build_offspring_matrix``, behind ``rho``,
``qc`` and ``matrix``) is that step applied to d vertices of each state,
held dense (at most 15 states under ``MAX_WINDOW_BITS``), and has the
Perron root of the 2^W-type window process; ``simulate_window_chain`` and
``chain_survival`` sample it with one binomial draw per generation.  The
per-height history of a run is kept only where it is read (``limits`` and
the acceptance criteria), not by ``chain_survival``, whose depth is bounded
by a worst-case work cap instead (``_check_run``).
"""

from __future__ import annotations

import numpy as np

from .errors import SizeCapError, check_count, check_probabilities
from .tree import TreeParams, parent, slot_index, slot_vertex

#: Bytes a count-level chain run may hold.
MAX_ARRAY_BYTES = 1 << 30

#: Count cells a chain run may draw in its worst case, every trial alive to
#: the last generation: a generation of a batch draws its (trials, 2^k) count
#: array, and its fixed cost counts as ``GENERATION_CELLS`` more.  On a 2-core
#: x86 VM a generation took 1.4 ms for 20000 trials at k = 2, 7.1 ms at
#: k = 4 and 19 us for one trial, 17 to 22 ns a cell, so a run at the cap
#: draws for about five minutes at most.
MAX_CHAIN_CELLS = 15 * 10**9
GENERATION_CELLS = 1000

#: Total population at which a count-level chain run stops: the ray
#: individuals of a generation, the vertices with a cluster vertex among
#: their last k ancestors, themselves included.
POPULATION_CAP = 10**8


class OffspringMatrix:
    """Mean offspring rates M(s, s') of the ray process, held dense.

    A type is a nonzero ray state, a bitmask integer in [1, 2^k) with the
    vertex's own cluster indicator as bit 0 and its (k-1)-th ancestor's as
    bit k-1; row/column index ``s - 1`` names state ``s``.
    """

    def __init__(self, dense: np.ndarray):
        self.dense = dense

    @property
    def n_types(self) -> int:
        return len(self.dense)

    @property
    def csr(self):
        """The rates as a scipy CSR matrix, for readers outside the package;
        scipy is imported on first read."""
        from scipy import sparse

        return sparse.csr_matrix(self.dense)

    def iter_entries(self):
        """Yield (s, s', rate) in deterministic row-major, column-sorted order."""
        for a, b in zip(*np.nonzero(self.dense)):
            yield int(a) + 1, int(b) + 1, float(self.dense[a, b])


def _open_prob(p: float, q: float, a, b):
    """Probability that a top slot is set: the short edge from its parent
    (in the window iff ``a``) or the long edge from the base (in the window
    iff ``b``) is open."""
    return 1.0 - (1.0 - p * a) * (1.0 - q * b)


def _set_slots(pmf: dict[int, float], slots, prob) -> dict[int, float]:
    """Set each slot j of ``slots`` in turn, independently, with probability
    ``prob(w, j)`` in the outcome w so far: one factor per slot, in slot
    order.  Each slot lies above every bit set before it, so the outcomes
    that leave it unset, then those that set it, stay in increasing window
    order.  Outcomes of zero mass are dropped."""
    for j in slots:
        off, on = [], []
        for w, pr in pmf.items():
            pi = prob(w, j)
            off.append((w, pr * (1.0 - pi)))
            on.append((w | 1 << j, pr * pi))
        pmf = {w: pr for w, pr in off + on if pr > 0.0}
    return pmf


def child_window_dist(a: int, child: int, p: float, q: float, params: TreeParams) -> dict[int, float]:
    """Exact pmf over the child's window (0 encodes the empty window), in
    increasing window order.  A low slot is set iff its vertex below the
    child is in ``a``; a top slot j is set with ``_open_prob`` of its
    parent's bit in ``a`` and the base's."""
    check_count("parent window", a, 1, 1 << params.window_slots)
    p, q = check_probabilities(p=p, q=q)
    check_count("child digit", child, 1, params.d + 1)

    def bit(u):  # whether vertex u below the child is in the parent window
        return a >> slot_index(bytes((child,)) + u, params) & 1

    base = params.top_slot_base
    low = sum(bit(slot_vertex(j, params)) << j for j in range(base))
    top = {
        j: _open_prob(p, q, bit(parent(slot_vertex(j, params))), a & 1)
        for j in range(base, params.window_slots)
    }
    return _set_slots({low: 1.0}, top, lambda w, j: top[j])


def initial_window_dist(params: TreeParams, p: float) -> dict[int, float]:
    """Law of the root's window: short-edge subtrees truncated at height k-1,
    in increasing window order.  Slot j is set with probability p if its
    parent slot (j - 1) // d is set, else never.

    Supported on windows that contain the root slot and are closed under
    taking parents; the empty window has mass zero since the root always
    belongs to its own cluster.
    """
    (p,) = check_probabilities(p=p)
    d = params.d
    return _set_slots(
        {1: 1.0}, range(1, params.window_slots), lambda w, j: p * (w >> (j - 1) // d & 1)
    )


def _ray_pi(params: TreeParams, p: float, q: float) -> np.ndarray:
    """pi_s for every ray state s in [0, 2^k): the probability that a child
    of a vertex in state s is in the cluster, through the short edge from
    the vertex (bit 0, the newest) or the long edge from the child's k-th
    ancestor (bit k-1, the oldest).  The zero state gets pi = 0."""
    s = np.arange(1 << params.k)
    return _open_prob(p, q, s & 1, s >> (params.k - 1) & 1)


def _ray_shift(params: TreeParams, s: np.ndarray) -> np.ndarray:
    """The ray state of an unset child of a vertex in state s: the vertex's
    indicators one step older, the oldest dropped, i.e. (s << 1) mod 2^k.
    A set child's state is one more."""
    return (s << 1) & ((1 << params.k) - 1)


def _ray_children(params: TreeParams, stay: np.ndarray, born: np.ndarray) -> np.ndarray:
    """Counts by ray state of the children of vertices counted by state along
    the last axis, ``born`` of them set and ``stay`` not.  The states s and
    s + 2^(k-1) differ only in the oldest bit, which ``_ray_shift`` drops, so
    they share their children's states.  The zero state is no type, so its
    count is dropped."""
    h = stay.shape[-1] // 2
    to = _ray_shift(params, np.arange(h))
    nxt = np.empty_like(stay)
    nxt[..., to] = stay[..., :h] + stay[..., h:]
    nxt[..., to + 1] = born[..., :h] + born[..., h:]
    nxt[..., 0] = 0
    return nxt


def _ray_matrix(params: TreeParams, p: float, q: float) -> np.ndarray:
    """d * T over the 2^k - 1 nonzero ray states, state s as row and column
    s - 1: the children (``_ray_children``) of d vertices in state s, each
    set with probability pi_s."""
    pi = _ray_pi(params, p, q)
    d = params.d
    return _ray_children(params, np.diag(d * (1.0 - pi)), np.diag(d * pi))[1:, 1:]


def build_offspring_matrix(params: TreeParams, p: float, q: float) -> OffspringMatrix:
    """Exact mean offspring matrix d * T of the ray process over its 2^k - 1
    nonzero states (``_ray_matrix``), which has the Perron root of the
    window process's 2^W-type mean matrix."""
    p, q = check_probabilities(p=p, q=q)
    return OffspringMatrix(_ray_matrix(params, p, q))


def _chain_bytes(params: TreeParams, trials: int, generations: int, history: bool = True) -> int:
    """Estimated bytes of a ray chain run: the (trials, generations + 1)
    int64 history if it is kept, five (trials, 2^k) int64 count arrays (a
    generation, its children and births, the next generation, and one for
    temporaries), and 1 MiB for numpy's buffers and small arrays."""
    return (1 << 20) + 8 * trials * ((5 << params.k) + (generations + 1 if history else 0))


def _check_run(params: TreeParams, generations: int, trials: int, batch: int, history: bool):
    """Refuse a chain run of ``trials`` trials over ``generations``
    generations, in batches of ``batch``, before its first draw: when a
    batch's arrays (``_chain_bytes``) pass ``MAX_ARRAY_BYTES``, or the
    run's worst-case draws pass ``MAX_CHAIN_CELLS``."""
    what = f"{trials} chain trials over {generations} generations at (d={params.d}, k={params.k})"
    need = _chain_bytes(params, min(batch, trials), generations, history)
    if need > MAX_ARRAY_BYTES:
        raise SizeCapError(
            f"{what} need about {need / 2**30:.2f} GiB a batch, above the cap of "
            f"{MAX_ARRAY_BYTES / 2**30:.1f} GiB"
        )
    cells = generations * ((trials << params.k) + -(-trials // batch) * GENERATION_CELLS)
    if cells > MAX_CHAIN_CELLS:
        raise SizeCapError(
            f"{what} may draw {cells:.3g} count cells, above the cap of {MAX_CHAIN_CELLS:.3g}"
        )


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
    [n-k+1, n], which is exactly when generation n of the ray process is
    nonempty.  Trials run in batches to bound memory, without the history,
    which only ``limits`` reads; the run's memory and work are checked
    before its first draw (``_check_run``).
    """
    check_count("trials", trials, 1)
    check_count("depth", depth, params.k)
    check_count("batch", batch, 1)
    _check_run(params, depth, trials, batch, history=False)
    alive = 0
    for done in range(0, trials, batch):
        final = simulate_window_chain(
            params, p, q, rng, depth, min(batch, trials - done), history=False
        )[0]
        alive += int(final.any(axis=1).sum())
    freq = alive / trials
    return freq, float(np.sqrt(freq * (1.0 - freq) / trials))


def simulate_window_chain(
    params: TreeParams,
    p: float,
    q: float,
    rng: np.random.Generator,
    generations: int,
    trials: int = 1,
    history: bool = True,
):
    """Simulate the ray process for many independent trials at once, from
    the root alone in state 1 up to ``generations`` or the first generation
    that is empty in every trial.  The N * d children of the N vertices in
    state s are independent, each set with probability pi_s, so one binomial
    draw over the (trials, 2^k) count array is a generation of every trial.

    Returns ``(final_counts, x)`` where ``final_counts`` has shape
    (trials, 2^k - 1), the last generation's count in ray state j + 1 as
    column j, and ``x`` has shape (trials, generations + 1) with the count
    of each generation in the odd states, i.e. the height-layer occupation
    counts of the underlying cluster; with ``history`` false, ``x`` is None
    and not held.  Raises ``SizeCapError`` before allocating when the run's
    memory or work passes its cap (``_check_run``), and once the total
    population exceeds ``POPULATION_CAP``.
    """
    check_count("generations", generations, 0)
    check_count("trials", trials, 1)
    p, q = check_probabilities(p=p, q=q)
    _check_run(params, generations, trials, trials, history)
    pi = _ray_pi(params, p, q)
    cur = np.zeros((trials, 1 << params.k), dtype=np.int64)
    cur[:, 1] = 1
    x = None
    if history:
        # generations after the first empty one are never drawn and stay 0
        x = np.zeros((trials, generations + 1), dtype=np.int64)
        x[:, 0] = 1
    for gen in range(1, generations + 1):
        children = params.d * cur
        born = rng.binomial(children, pi)
        children -= born
        cur = _ray_children(params, children, born)
        total = int(cur.sum())
        if total > POPULATION_CAP:
            raise SizeCapError(
                f"population {total} exceeds cap {POPULATION_CAP} at generation {gen}"
            )
        if history:
            x[:, gen] = cur[:, 1::2].sum(axis=1)
        if total == 0:
            break
    return cur[:, 1:], x
