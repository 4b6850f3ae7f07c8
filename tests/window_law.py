"""Test-side oracles: the vectorised window law and the full window mean
matrix.  ``ChildWindowLaw`` is the child-window law written a second way,
vectorised over parent windows, for ``window_chain.child_window_dist`` to
be checked against.  ``window_matrix`` builds from it the mean matrix M
over all 2^W - 1 nonempty windows, with no byte cap; the product solves rho
on the ray instead, whose mean matrix d T is M lumped along the ray counts
R (M R = R d T), and the tests check that identity.  ``window_rho`` is M's
Perron root by ARPACK, a solver independent of the package's.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigs

from treeperc.errors import ParameterError, check_probabilities
from treeperc.tree import TreeParams, parent, slot_index, slot_vertex
from treeperc.window_chain import _open_prob


def _child_slot_maps(params: TreeParams):
    """Per child digit i: slot targets of the deterministic part and slot
    sources of the top-slot short-edge indicators."""
    d, base, t = params.d, params.top_slot_base, params.n_top_slots
    low_targets = []
    top_sources = []
    for i in range(1, d + 1):
        low_targets.append(
            np.array(
                [slot_index(bytes((i,)) + slot_vertex(j, params), params) for j in range(base)],
                dtype=np.int64,
            )
        )
        top_sources.append(
            np.array(
                [
                    slot_index(bytes((i,)) + parent(slot_vertex(base + u, params)), params)
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


def law_block(child_law, child):
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


def law_blocks(params, p, q):
    """``law_block`` of each child digit 1..d."""
    child_law = ChildWindowLaw(params, p, q)
    return [law_block(child_law, i) for i in range(1, params.d + 1)]


def window_matrix(params, p, q):
    """Mean offspring matrix M(A, B) over the nonempty windows, as CSR with
    window w as row and column w - 1: the running sum of the d law blocks,
    one block at a time, without the empty-window column."""
    child_law = ChildWindowLaw(params, p, q)
    total = law_block(child_law, 1)
    for i in range(2, params.d + 1):
        total = total + law_block(child_law, i)
    return total[:, 1:]


def window_rho(params, p, q):
    """The Perron root of ``window_matrix``: for a nonnegative matrix, the
    eigenvalue of largest real part, by ARPACK from the all-ones vector."""
    m = window_matrix(params, p, q)
    return float(eigs(m, k=1, which="LR", v0=np.ones(m.shape[0]))[0][0].real)
