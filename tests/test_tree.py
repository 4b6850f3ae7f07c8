import itertools

import pytest
from hypothesis import given, strategies as st

from treeperc.errors import OutOfSlabError, ParameterError, SizeCapError
from treeperc.tree import (
    TreeParams,
    long_selector,
    parent,
    slot_height,
    slot_index,
    slot_vertex,
    window_height,
    window_size,
    window_vertices,
)


def test_params_validation():
    with pytest.raises(ParameterError):
        TreeParams(1, 2)
    with pytest.raises(ParameterError):
        TreeParams(2, 1)
    # window would need 31 slots, above the exact-computation cap
    with pytest.raises(SizeCapError):
        TreeParams(2, 5)


def test_params_counts():
    tp = TreeParams(2, 3)
    assert tp.window_slots == 7
    assert tp.n_long_children == 8
    assert tp.top_slot_base == 3
    assert tp.n_top_slots == 4


def test_basic_addressing():
    assert parent(b"\x01\x02") == b"\x01"
    with pytest.raises(ValueError):
        parent(b"")


def test_digits_fit_one_byte():
    # a vertex stores one digit per byte: every (d, k) under the width cap
    # has d <= 255, since a window holds the root and its d children
    accepted = []
    for d in range(2, 300):
        for k in range(2, 12):
            try:
                accepted.append(TreeParams(d, k))
            except SizeCapError:
                pass
    assert TreeParams(19, 2) in accepted
    assert all(tp.d <= 255 for tp in accepted)


params_strategy = st.sampled_from([TreeParams(2, 2), TreeParams(2, 3), TreeParams(3, 2), TreeParams(2, 4)])


@given(params_strategy, st.data())
def test_slot_round_trip(tp, data):
    h = data.draw(st.integers(0, tp.k - 1))
    v = bytes(data.draw(st.integers(1, tp.d)) for _ in range(h))
    i = slot_index(v, tp)
    assert slot_vertex(i, tp) == v
    assert slot_height(i, tp) == h


@given(params_strategy, st.data())
def test_long_selector_round_trip(tp, data):
    i = data.draw(st.integers(0, tp.n_long_children - 1))
    s = long_selector(i, tp)
    assert len(s) == tp.k
    assert all(1 <= digit <= tp.d for digit in s)
    # read s back as a base-d numeral with digits 1..d
    index = 0
    for digit in s:
        index = index * tp.d + digit - 1
    assert index == i


def test_long_selector_order_is_lexicographic():
    for tp in (TreeParams(2, 2), TreeParams(2, 3), TreeParams(3, 2)):
        sels = [long_selector(i, tp) for i in range(tp.n_long_children)]
        assert sels == [bytes(s) for s in itertools.product(range(1, tp.d + 1), repeat=tp.k)]
        with pytest.raises(ValueError):
            long_selector(tp.n_long_children, tp)


def test_slot_rejects_out_of_slab():
    tp = TreeParams(2, 2)
    # the message shows the vertex's digits, not a bytes repr
    with pytest.raises(OutOfSlabError, match=r"vertex \(1, 1\) has height 2"):
        slot_index(b"\x01\x01", tp)
    with pytest.raises(OutOfSlabError):
        slot_vertex(3, tp)


@given(params_strategy, st.data())
def test_window_round_trip(tp, data):
    bits = data.draw(st.integers(1, (1 << tp.window_slots) - 1))
    verts = window_vertices(bits, tp)
    assert sum(1 << slot_index(v, tp) for v in verts) == bits
    assert window_size(bits) == len(verts)
    assert window_height(bits, tp) == max(len(v) for v in verts)
