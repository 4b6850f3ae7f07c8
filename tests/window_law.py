"""The full window mean matrix, kept as a test-side oracle for the ray.

``window_chain.ChildWindowLaw`` is the one encoding of the window law; the
product solves rho on the (2^k - 1)-state ray instead, whose mean matrix
d T is the window matrix M lumped along the ray counts R (M R = R d T).
This builds M itself over all 2^W - 1 nonempty windows, with no byte cap,
so the tests can check that identity and the window chain against the ray.
"""

import numpy as np
from scipy import sparse

from treeperc.window_chain import ChildWindowLaw


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
