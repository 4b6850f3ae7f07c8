"""Slab comparison between the two-range tree and its unconstrained cover.

The cover is the (d + d^k)-ary tree: every vertex points to d "short" and
d^k "long" children, so its cluster is the family tree of the branching
process with offspring Bin(d, p) + Bin(d^k, q).  A digit substitution map
sends cover vertices onto tree vertices, short digits to single digits and
long digits to k-digit blocks.  Tree vertices are ``tree``'s byte strings;
cover vertices stay tuples of ints, since cover digits run up to d + d^k,
beyond one byte at (19, 2).  Finite slabs on both sides are cut at image
height 2k, with leaves at image heights [2k, 3k).

This module provides the substitution map, lazy slab configurations, leaf
counts Z and Z-hat, the conflict-aware simultaneous exploration whose output
satisfies Z <= Z-hat pathwise, the distinguished configuration driving the
strict inequality, a generic pivot coupling for finite distributions, and an
empirical stochastic-dominance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import SEED_LIMIT, FeasibilityError, ParameterError, check_count
from .errors import check_probabilities, check_real
from .percolation import sweep_layers
from .rng import EdgeOracle, edge_tables, keyed_hash, open_edges, realization_seed
from .tree import ROOT, TreeParams, long_selector

#: Violation, in combined standard errors, above which ``dominance_test``
#: rejects dominance.
SIGMA_LIMIT = 3.0


class PhiMap:
    """Digit substitution from the (d + d^k)-ary tree onto the two-range tree.

    Digit j <= d maps to the single digit (j); digit d + m maps to the m-th
    element of [d]^k in lexicographic order.  The induced vertex map is
    blockwise concatenation, so short cover edges land on short edges and
    long cover edges on long edges.
    """

    def __init__(self, params: TreeParams):
        self.params = params
        self.n_digits = params.d + params.n_long_children

    def is_long_digit(self, j: int) -> bool:
        check_count("digit", j, 1, self.n_digits + 1)
        return j > self.params.d

    def phi(self, j: int) -> bytes:
        """Image block of one cover digit, as tree digit bytes."""
        if self.is_long_digit(j):
            return long_selector(j - self.params.d - 1, self.params)
        return bytes((j,))


def leaf_band(params: TreeParams) -> tuple[int, int]:
    """Half-open height band [2k, 3k) of the slab leaves."""
    return 2 * params.k, 3 * params.k


def n_slab_leaves(params: TreeParams) -> int:
    """Number of leaves of the two-range slab: sum of d^h over the band."""
    lo, hi = leaf_band(params)
    return sum(params.d**h for h in range(lo, hi))


@lru_cache(maxsize=64)
def _cover_tables(params: TreeParams, p: float, q: float) -> tuple[tuple, tuple]:
    """The short and long (binomial CDF, digit table) pairs of ``open_edges``
    on the cover: the two-range tree's CDFs, with the int digits 1..d and
    d+1..d+d^k in place of the tree's digit bytes and selectors; one build
    per (d, k, p, q)."""
    (short_cdf, _digits), (long_cdf, _selectors) = edge_tables(params, p, q)
    d, n = params.d, params.d + params.n_long_children
    return (short_cdf, tuple(range(1, d + 1))), (long_cdf, tuple(range(d + 1, n + 1)))


class HatConfig:
    """Edge configuration on the cover slab, materialized lazily.

    Out-edges of a tail are drawn in one batch by ``rng.open_edges``, the
    draw of the two-range tree's edge oracle, from a per-tail keyed stream
    (independent across tails, reproducible across query orders), or
    supplied by a deterministic rule.
    """

    def __init__(self, params: TreeParams, rule=None, p=None, q=None, seed=None, trial=0):
        self.phi_map = PhiMap(params)
        self._rule = rule
        self._memo: dict[tuple, tuple] = {}
        if rule is None:
            p, q = check_probabilities(p=p, q=q)
            self._keyed = keyed_hash(realization_seed(seed, trial))
            # bytes per digit of a tail's stream input: 1 while digits fit a
            # byte; a zero digit ends the input, so inputs are prefix-free
            self._width = (self.phi_map.n_digits.bit_length() + 7) // 8
            self._end = bytes(self._width)
            self._short, self._long = _cover_tables(params, p, q)

    @classmethod
    def random(cls, params: TreeParams, p: float, q: float, seed: int, trial: int = 0):
        return cls(params, p=p, q=q, seed=seed, trial=trial)

    @classmethod
    def from_rule(cls, params: TreeParams, rule):
        """``rule(tail, digit) -> bool`` decides every edge deterministically."""
        return cls(params, rule=rule)

    def open_digits(self, vhat: tuple) -> tuple:
        """Sorted open out-digits of a tail (no slab membership check here)."""
        hit = self._memo.get(vhat)
        if hit is not None:
            return hit
        if self._rule is not None:
            out = tuple(j for j in range(1, self.phi_map.n_digits + 1) if self._rule(vhat, j))
        else:
            data = b"".join(j.to_bytes(self._width, "little") for j in vhat) + self._end
            short, long = open_edges(self._keyed, data, self._short, self._long)
            out = short + long
        self._memo[vhat] = out
        return out


def omega_bar(params: TreeParams) -> HatConfig:
    """The distinguished configuration: all root edges open, subtrees under
    long root children fully open, subtrees under short root children open
    only on short edges whose head has cover height at most k."""
    d, k = params.d, params.k

    def rule(vhat: tuple, digit: int) -> bool:
        if not vhat:
            return True
        if vhat[0] > d:
            return True
        return digit <= d and len(vhat) + 1 <= k

    return HatConfig.from_rule(params, rule)


def leaf_count_Z(params: TreeParams, oracle: EdgeOracle) -> int:
    """Leaves of the two-range slab reachable from the root by open paths.

    Only edges whose tail has height below 2k exist in the slab, so every
    vertex at heights [2k, 3k) is terminal.  The leaves are the cluster's
    layer 2k and the heads of the open long edges out of its vertices at
    heights k+1..2k-1; those heads are distinct and fill heights 2k+1..3k-1.
    """
    lo, _hi = leaf_band(params)
    z = 0
    for n, (layer, _population) in enumerate(islice(sweep_layers(oracle), lo), 1):
        if n == lo:
            z += len(layer)
        elif n > params.k:
            z += sum(len(oracle.open_long_children(u)) for u in layer)
    return z


def leaf_count_Zhat(params: TreeParams, config: HatConfig) -> int:
    """Leaves of the cover slab reachable from its root under a configuration.

    Cover leaves are vertices whose image height falls in [2k, 3k); tails
    with image height below 2k carry the slab's edges.
    """
    lo, _hi = leaf_band(params)
    stack = [((), 0)]
    leaves = 0
    d, k = params.d, params.k
    while stack:
        u, w = stack.pop()
        if w >= lo:
            leaves += 1
            continue
        # the cover is a tree and open digits are distinct, so no vertex
        # is pushed twice
        for j in config.open_digits(u):
            stack.append((u + (j,), w + (k if j > d else 1)))
    return leaves


@dataclass
class HatExploration:
    """Outcome of the simultaneous conflict-aware exploration."""

    vertices: set  # constructed subgraph of the two-range slab
    edges: set  # (tail, head) pairs, both edge kinds
    conflicts: set  # cover vertices whose image was already present

    def leaf_count(self, params: TreeParams) -> int:
        lo, hi = leaf_band(params)
        return sum(1 for v in self.vertices if lo <= len(v) < hi)


def explore_hat_to_C(params: TreeParams, config: HatConfig) -> HatExploration:
    """Build a two-range subgraph from a cover configuration.

    Four closures, each over the open edges of one kind: short edges from the
    root, long edges from everything explored, short edges from the vertices
    the long closure added, and long edges from the vertices that closure
    added.  A cover vertex whose image is already present is a conflict: its
    edge is added but its subtree is never explored.  The construction leaves
    the cover cluster's law intact on the explored part while its image never
    double-counts a slab vertex, which forces the leaf count of the image to
    be at most the cover cluster's.
    """
    phi_map = config.phi_map
    d = params.d
    cut = 2 * params.k
    c_vertices = {ROOT}
    c_edges: set = set()
    conflicts: set = set()
    # cover vertices carried as (path, image vertex)
    root = ((), ROOT)

    def closure(frontier, long: bool):
        """Depth-first walk from ``frontier`` over open long edges, or over
        open short edges; returns the cover vertices it added.  The cover is
        a tree, the frontiers are disjoint and each closure follows one edge
        kind, so no cover vertex is reached twice."""
        added = []
        stack = list(frontier)
        while stack:
            u, img = stack.pop()
            if len(img) >= cut:
                continue
            for j in config.open_digits(u):
                if (j > d) != long:
                    continue
                v = u + (j,)
                head_img = img + phi_map.phi(j)
                c_edges.add((img, head_img))
                if head_img in c_vertices:
                    conflicts.add(v)
                    continue
                c_vertices.add(head_img)
                node = (v, head_img)
                added.append(node)
                stack.append(node)
        return added

    step1 = closure([root], long=False)
    step2 = closure([root] + step1, long=True)
    step3 = closure(step2, long=False)
    closure(step3, long=True)
    return HatExploration(vertices=c_vertices, edges=c_edges, conflicts=conflicts)


@dataclass
class CouplingTable:
    """Joint law J of (X, Y) with X ~ P1, Y ~ P2, supported on agreement or
    on either coordinate hitting the pivot."""

    outcomes: tuple
    pivot: object
    joint: dict  # (x, y) -> probability
    p1: dict
    p2: dict

    def marginal_errors(self) -> tuple[float, float]:
        """Sup-norm mismatch of the joint's row and column sums."""
        row = {x: 0.0 for x in self.outcomes}
        col = {y: 0.0 for y in self.outcomes}
        for (x, y), pr in self.joint.items():
            row[x] += pr
            col[y] += pr
        e1 = max(abs(row[x] - self.p1.get(x, 0.0)) for x in self.outcomes)
        e2 = max(abs(col[y] - self.p2.get(y, 0.0)) for y in self.outcomes)
        return e1, e2

    def off_support_mass(self) -> float:
        return sum(
            pr
            for (x, y), pr in self.joint.items()
            if x != y and x != self.pivot and y != self.pivot
        )


def finite_coupling(p1: dict, p2: dict, pivot) -> CouplingTable:
    """Couple two finite distributions so they differ only through the pivot.

    Requires the total variation-style condition sum |P1 - P2| < P1(pivot);
    the overlap min(P1, P2) is kept diagonal, the excess of P1 is routed to
    Y = pivot and the excess of P2 to X = pivot.
    """
    outcomes = tuple(sorted(set(p1) | set(p2), key=repr))
    for dist, name in ((p1, "P1"), (p2, "P2")):
        mass = sum(check_probabilities(**{f"{name}[{x!r}]": v for x, v in dist.items()}))
        if abs(mass - 1.0) > 1e-9:
            raise ParameterError(f"{name} is not a distribution (mass {mass})")
    if pivot not in p1 or p1[pivot] <= 0.0:
        raise FeasibilityError("the pivot must carry positive P1 mass")
    l1 = sum(abs(p1.get(x, 0.0) - p2.get(x, 0.0)) for x in outcomes)
    if l1 >= p1[pivot]:
        raise FeasibilityError(
            f"sum |P1 - P2| = {l1} is not below P1(pivot) = {p1[pivot]}"
        )
    joint: dict = {}
    excess1 = 0.0
    for x in outcomes:
        m = min(p1.get(x, 0.0), p2.get(x, 0.0))
        e1 = p1.get(x, 0.0) - m
        e2 = p2.get(x, 0.0) - m
        excess1 += e1
        if x == pivot:
            continue
        if m > 0:
            joint[(x, x)] = m
        if e1 > 0:
            joint[(x, pivot)] = e1
        if e2 > 0:
            joint[(pivot, x)] = e2
    m_piv = min(p1[pivot], p2.get(pivot, 0.0))
    e2_piv = p2.get(pivot, 0.0) - m_piv
    joint[(pivot, pivot)] = p1[pivot] - excess1 + e2_piv
    if joint[(pivot, pivot)] < 0:
        raise FeasibilityError("pivot cell went negative; condition violated")
    return CouplingTable(outcomes=outcomes, pivot=pivot, joint=joint, p1=dict(p1), p2=dict(p2))


@dataclass
class DominanceRow:
    threshold: int
    surv_z: float
    se_z: float
    surv_zhat: float
    se_zhat: float
    violation_sigma: float


@dataclass
class DominanceReport:
    rows: list
    max_violation_sigma: float
    dominates: bool


def dominance_test(
    params: TreeParams,
    p: float,
    q: float,
    delta: float,
    trials: int,
    seed: int,
) -> DominanceReport:
    """Empirical check that the slab leaf count at (p, q) is stochastically
    dominated by the cover's leaf count at (p, q - delta).

    Samples are independent on the two sides; for every threshold t the
    survival functions P(Z >= t) and P(Z-hat >= t) are compared in units of
    their combined standard error; dominance is declared when no threshold
    exceeds ``SIGMA_LIMIT`` of them.
    """
    p, q = check_probabilities(p=p, q=q)
    check_probabilities(q_minus_delta=q - check_real("delta", delta))
    check_count("trials", trials, 1)
    zs = []
    zhs = []
    for trial in range(trials):
        oracle = EdgeOracle(params, p, q, seed, trial)
        zs.append(leaf_count_Z(params, oracle))
        config = HatConfig.random(params, p, q - delta, (seed + 1) % SEED_LIMIT, trial)
        zhs.append(leaf_count_Zhat(params, config))
    top = max(max(zs), max(zhs))
    rows = []
    worst = 0.0
    for t in range(top + 2):
        fz = sum(z >= t for z in zs) / trials
        fh = sum(z >= t for z in zhs) / trials
        se_z = math.sqrt(fz * (1.0 - fz) / trials)
        se_h = math.sqrt(fh * (1.0 - fh) / trials)
        combined = math.hypot(se_z, se_h)
        excess = fz - fh
        sigma = excess / combined if combined > 0 else (math.inf if excess > 0 else 0.0)
        rows.append(
            DominanceRow(
                threshold=t,
                surv_z=fz,
                se_z=se_z,
                surv_zhat=fh,
                se_zhat=se_h,
                violation_sigma=max(sigma, 0.0),
            )
        )
        worst = max(worst, sigma)
    return DominanceReport(
        rows=rows,
        max_violation_sigma=worst,
        dominates=worst <= SIGMA_LIMIT,
    )
