"""Addressing and combinatorics of the two-range oriented tree.

Vertices are finite sequences over {1..d}, stored as byte strings, one byte
per digit (``TreeParams`` caps d far below 256); the empty string is the
root.  A vertex is thus its own stream input prefix for the edge oracle, and
a set or memo key whose hash is computed once.  Every vertex points to its d
children with short edges and to its d^k descendants k levels below with
long edges; a child is ``v + j`` for a one-byte digit j, a long descendant
``v + s`` for a k-byte selector s.  The "window" of a vertex is the slab of
its descendants fewer than k levels down; windows are encoded as bitmasks
over a breadth-first slot order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfSlabError, ParameterError, SizeCapError, check_count

#: Largest admissible window bitmask width.  The exact window chain is
#: exponential in this width, so larger (d, k) are rejected outright.  A
#: window holds 1 + d slots at least, so the cap also keeps d <= 19 and every
#: digit fits one byte.
MAX_WINDOW_BITS = 20

ROOT = b""


@dataclass(frozen=True)
class TreeParams:
    """Branching number d and long-edge range k."""

    d: int
    k: int

    def __post_init__(self):
        check_count("d", self.d, 2)
        check_count("k", self.k, 2)
        # a window has 1 + d slots and k at least: d^k is computed only below that
        if max(self.d + 1, self.k) > MAX_WINDOW_BITS or self.window_slots > MAX_WINDOW_BITS:
            raise SizeCapError(
                f"(d={self.d}, k={self.k}) needs a window above the exact chain's cap of "
                f"{MAX_WINDOW_BITS} slots"
            )

    @property
    def window_slots(self) -> int:
        """Number of vertices in a window slab: 1 + d + ... + d^(k-1)."""
        return (self.d**self.k - 1) // (self.d - 1)

    @property
    def n_long_children(self) -> int:
        return self.d**self.k

    @property
    def top_slot_base(self) -> int:
        """Slot index of the first height-(k-1) vertex."""
        return (self.d ** (self.k - 1) - 1) // (self.d - 1)

    @property
    def n_top_slots(self) -> int:
        return self.d ** (self.k - 1)


def parent(v: bytes) -> bytes:
    if not v:
        raise ParameterError("the root has no parent")
    return v[:-1]


def slot_index(u: bytes, params: TreeParams) -> int:
    """Breadth-first slot of a window vertex: slot(o)=0, slot(u.j)=d*slot(u)+j."""
    if len(u) >= params.k:
        raise OutOfSlabError(f"vertex {tuple(u)} has height {len(u)} >= k={params.k}")
    i = 0
    for digit in u:
        check_count("digit", digit, 1, params.d + 1)
        i = params.d * i + digit
    return i


def slot_vertex(i: int, params: TreeParams) -> bytes:
    """Inverse of :func:`slot_index`."""
    if not 0 <= i < params.window_slots:
        raise OutOfSlabError(f"slot {i} outside [0, {params.window_slots})")
    digits = []
    while i > 0:
        digits.append((i - 1) % params.d + 1)
        i = (i - 1) // params.d
    return bytes(reversed(digits))


def slot_height(i: int, params: TreeParams) -> int:
    """Height of the vertex occupying slot i: its number of digits."""
    return len(slot_vertex(i, params))


def window_size(bits: int) -> int:
    """Number of slots set in a window bitmask."""
    return bits.bit_count()


def window_height(bits: int, params: TreeParams) -> int:
    """Maximum slot height present in a nonempty window."""
    check_count("window", bits, 1)
    return slot_height(bits.bit_length() - 1, params)


def window_vertices(bits: int, params: TreeParams) -> list[bytes]:
    """Window bitmask as a list of (relative) vertex paths, slot order."""
    return [slot_vertex(i, params) for i in range(params.window_slots) if bits >> i & 1]


def long_selector(index: int, params: TreeParams) -> bytes:
    """The index-th element of [d]^k in lexicographic order (0-based index),
    as the k-byte string a long edge appends to its tail."""
    check_count("long selector index", index, 0, params.n_long_children)
    digits = []
    for _ in range(params.k):
        digits.append(index % params.d + 1)
        index //= params.d
    return bytes(reversed(digits))

