"""Monte Carlo exploration of the percolation cluster.

Every walk over the lazy edge oracle goes through one of two kernels:

* ``sweep_layers``, a height-layered sweep that yields each new layer with
  the population of the k most recent layers and holds only those layers;
  ``explore_layers`` (layer counts), ``estimate_survival`` (survival
  frequency at a depth), ``conditioned_cluster_sample`` (the root's
  neighborhood in large clusters) and the slab leaf count of ``coupling``
  read it;
* ``short_cluster`` / ``long_boundary``, the two-stage step whose boundary
  pieces, grouped by subtree proximity, reproduce the cluster as a branching
  process over admissible-set shapes (``expand_admissible`` takes one step
  of it, ``criteria_eval`` two).

Vertices are the byte strings of ``tree`` (``ROOT`` is ``b""``): a head is
its tail plus the one-byte digit or k-byte selector the oracle returns.
Closed-form expectations for the long-boundary count and the two-point short
cluster are included for cross-checking the samplers.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from hashlib import blake2b
from itertools import count, islice

from .errors import ConsistencyError, ParameterError, SizeCapError, check_count
from .errors import check_probabilities, check_real
from .rng import EdgeOracle
from .tree import ROOT, TreeParams, slot_index, window_height, window_size, window_vertices

DEFAULT_CLUSTER_CAP = 10**7
#: Smallest acceptance rate the conditioned sampler reports a law for.
MIN_ACCEPTANCE = 1e-5
#: Population of the k most recent layers at which a survival trial counts
#: as alive without further exploration.
ESCAPE_POPULATION = 1000


@dataclass(frozen=True)
class PercParams:
    """Short- and long-edge open probabilities."""

    p: float
    q: float

    def __post_init__(self):
        for name, value in zip("pq", check_probabilities(p=self.p, q=self.q)):
            object.__setattr__(self, name, value)


@dataclass
class LayerStats:
    """Per-height occupation counts of the explored cluster."""

    x: list[int]


@dataclass(frozen=True)
class AdmissibleSet:
    """A boundary piece: its base vertex and shape relative to the base.

    ``base`` is a vertex (a byte string of digits); ``rel_type`` is a window
    bitmask over the base's slab; the slot-0 bit is always set since the
    base belongs to the set.
    """

    base: bytes
    rel_type: int

    def __post_init__(self):
        check_count("rel_type", self.rel_type, 1)
        if not self.rel_type & 1:
            raise ConsistencyError("an admissible set must contain its own base")

    @property
    def size(self) -> int:
        return window_size(self.rel_type)


def make_oracle(params: TreeParams, perc: PercParams, seed: int, trial: int = 0) -> EdgeOracle:
    return EdgeOracle(params, perc.p, perc.q, seed, trial)


def _cap_error(held: int) -> SizeCapError:
    return SizeCapError(f"cluster population {held} exceeded cap of {DEFAULT_CLUSTER_CAP} vertices")


def sweep_layers(oracle: EdgeOracle):
    """Reveal the root's cluster one height layer at a time, without end.

    A vertex of height n is in the cluster iff its parent is and the short
    edge between them is open, or n >= k and its k-th ancestor is and the
    long edge is open.  For n = 1, 2, ... yields ``(layer, population)``:
    the cluster vertices at height n, as the keys of a dict, and the number
    of cluster vertices at heights [n-k+1, n].  A dict keeps insertion
    order, so the walk visits vertices in the same order in every process:
    a set of byte strings would iterate in the order of their salted hashes.
    Only those k layers are held; raises ``SizeCapError`` as soon as they
    would hold more than ``DEFAULT_CLUSTER_CAP``, while the layer is built.
    """
    k = oracle.params.k
    short, long = oracle.open_short_children, oracle.open_long_children
    window: list[dict] = [{} for _ in range(k)]
    window[0][ROOT] = None
    population = 1
    for n in count(1):
        # the other k-1 layers stay; the height n-k one is evicted
        kept = population - len(window[n % k])
        room = DEFAULT_CLUSTER_CAP - kept  # checked once per parent vertex
        layer: dict = {}
        for u in window[(n - 1) % k]:
            for j in short(u):
                layer[u + j] = None
            if len(layer) > room:
                raise _cap_error(kept + len(layer))
        if n >= k:
            for u in window[n % k]:
                for s in long(u):
                    layer[u + s] = None
                if len(layer) > room:
                    raise _cap_error(kept + len(layer))
        window[n % k] = layer
        population = kept + len(layer)
        yield layer, population


def explore_layers(
    params: TreeParams, perc: PercParams, oracle: EdgeOracle, n_max: int
) -> LayerStats:
    """Occupation counts of heights 0..n_max.  The layers come from
    ``oracle``; ``params`` and ``perc`` must be the oracle's own."""
    if params != oracle.params or perc != PercParams(oracle.p, oracle.q):
        raise ParameterError(
            f"explore_layers got {params} and {perc}, but the oracle draws from "
            f"{oracle.params} at p={oracle.p}, q={oracle.q}"
        )
    check_count("n_max", n_max, 0)
    x = [1]
    for layer, _population in islice(sweep_layers(oracle), n_max):
        x.append(len(layer))
    return LayerStats(x=x)


def open_children(oracle: EdgeOracle, u: bytes) -> list:
    """Heads of the open short edges, then of the open long edges, out of u."""
    return [u + j for j in oracle.open_short_children(u)] + [
        u + s for s in oracle.open_long_children(u)
    ]


def _neighborhood_hash(cluster: set, edges, radius: int) -> str:
    """Canonical label of the rooted radius-m ball of the cluster graph.

    Edges are undirected for the metric.  Rooted-graph classes are separated
    by the Weisfeiler-Lehman subtree hash (Shervashidze et al., JMLR 12, 2011),
    four rounds seeded with distance-from-root labels, which distinguishes
    every pair arising at radius <= 2 on these graphs.
    """
    nbrs = {v: set() for v in cluster}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    labels, frontier = {ROOT: "0"}, {ROOT}
    for dist in range(1, radius + 1):
        frontier = {w for v in frontier for w in nbrs[v]} - labels.keys()
        labels.update(dict.fromkeys(frontier, str(dist)))
    counts = []
    for _ in range(4):
        labels = {
            v: _digest(label + "".join(sorted(labels[w] for w in nbrs[v] if w in labels)))
            for v, label in labels.items()
        }
        counts.extend(sorted(Counter(labels.values()).items()))
    return _digest(str(tuple(counts)))


def _digest(text: str) -> str:
    return blake2b(text.encode(), digest_size=16).hexdigest()


def conditioned_cluster_sample(
    params: TreeParams,
    perc: PercParams,
    size_threshold: int,
    radius: int,
    trials: int,
    seed: int,
):
    """Empirical law of the root's neighborhood in clusters larger than n.

    Rejection sampling: a trial is accepted once the layers swept so far hold
    more than ``size_threshold`` vertices, and rejected once the population
    of the k most recent layers hits 0 (critical clusters are a.s. finite,
    so rejected trials terminate).  The returned pmf is over isomorphism
    classes of the rooted radius-``radius`` ball of the cluster graph, both
    edge kinds undirected.  Raises when the trials are spent with acceptance
    below ``MIN_ACCEPTANCE``.
    """
    check_count("radius", radius, 0, 3)
    check_count("trials", trials, 1)
    check_count("size_threshold", size_threshold, 0)
    # membership of a vertex depends only on edges above it, so the ball is
    # determined by the cluster restricted to this many levels
    local_height = radius * params.k
    accepted: dict[str, int] = {}
    n_accepted = 0
    for trial in range(trials):
        oracle = make_oracle(params, perc, seed, trial)
        # sweep until the cluster is known to exceed the threshold or to be
        # finished; the root alone is the size and population before layer 1
        size = population = 1
        layers = sweep_layers(oracle)
        while population and size <= size_threshold:
            layer, population = next(layers)
            size += len(layer)
        if size <= size_threshold:
            continue
        n_accepted += 1
        local = {ROOT}.union(
            *(layer for layer, _population in islice(sweep_layers(oracle), local_height))
        )
        edges = [
            (u, v) for u in local for v in open_children(oracle, u) if v in local
        ]
        label = _neighborhood_hash(local, edges, radius)
        accepted[label] = accepted.get(label, 0) + 1
    rate = n_accepted / trials
    if n_accepted == 0 or rate < MIN_ACCEPTANCE:
        raise SizeCapError(
            f"acceptance rate {rate:.2e} below {MIN_ACCEPTANCE} after "
            f"{trials} trials"
        )
    pmf = {label: c / n_accepted for label, c in sorted(accepted.items())}
    return pmf, rate


def short_cluster(vertices, oracle: EdgeOracle) -> set:
    """Closure of a vertex set under open short edges; raises
    ``SizeCapError`` past ``DEFAULT_CLUSTER_CAP`` vertices.  The walk is
    breadth-first: a supercritical cluster then grows in height like the
    logarithm of its size, where a depth-first walk would follow one path and
    hold vertices (byte strings) about as long as half the cap."""
    if not vertices:
        raise ParameterError("short_cluster needs a nonempty starting set")
    cluster = set(vertices)
    frontier = deque(cluster)
    while frontier:
        u = frontier.popleft()
        for j in oracle.open_short_children(u):
            v = u + j
            if v not in cluster:
                cluster.add(v)
                frontier.append(v)
                if len(cluster) > DEFAULT_CLUSTER_CAP:
                    raise SizeCapError(
                        f"short cluster exceeded cap of {DEFAULT_CLUSTER_CAP} vertices"
                    )
    return cluster


def long_boundary(cluster: set, oracle: EdgeOracle) -> set:
    """Endpoints of open long edges leaving a short cluster."""
    out = set()
    for u in cluster:
        for s in oracle.open_long_children(u):
            v = u + s
            if v not in cluster:
                out.add(v)
    return out


def decompose(boundary: set, params: TreeParams) -> list[AdmissibleSet]:
    """Split a long boundary into admissible sets.

    A boundary vertex joins the set based at its shortest boundary prefix, or
    bases its own set if it has none; it must lie fewer than k levels below
    that base.  Two vertices share a base exactly when a chain of boundary
    prefix relations links them: a boundary prefix of a base would be a
    shorter boundary prefix of every vertex in its set.
    """
    bits: dict[bytes, int] = {}
    # by (height, digits): every base is in ``bits`` before the vertices above
    # it, and the first violation raised does not depend on set order
    for u in sorted(boundary, key=lambda v: (len(v), v)):
        base = next((u[:h] for h in range(len(u)) if u[:h] in bits), u)
        if len(u) - len(base) >= params.k:
            raise ConsistencyError(
                f"boundary vertices {tuple(base)} and {tuple(u)} are {len(u) - len(base)} "
                f">= k={params.k} levels apart in the same subtree"
            )
        bits[base] = bits.get(base, 0) | 1 << slot_index(u[len(base):], params)
    return [AdmissibleSet(base=base, rel_type=rel) for base, rel in sorted(bits.items())]


def expand_admissible(b: AdmissibleSet, oracle: EdgeOracle, params: TreeParams):
    """One two-stage step: short cluster, then long boundary, then grouping."""
    vertices = {b.base + rel for rel in window_vertices(b.rel_type, params)}
    cs = short_cluster(vertices, oracle)
    cl = long_boundary(cs, oracle)
    return cs, cl, decompose(cl, params)


def estimate_survival(params: TreeParams, perc: PercParams, trials: int, depth: int, seed: int):
    """Fraction of explorations still alive at the given depth, with SE.

    "Alive at depth n" means some vertex with height in [n-k+1, n] belongs to
    the cluster; long edges can jump over empty layers, so a single empty
    layer does not imply death.  When the number of vertices in the k most
    recent layers reaches ``ESCAPE_POPULATION`` the trial is declared alive
    without exploring further: with that many independent subtrees open the
    probability of all of them dying before the horizon is negligible
    (bounded by (1 - zeta)^escape for per-vertex survival probability zeta).
    """
    check_count("trials", trials, 1)
    check_count("depth", depth, params.k)
    alive_count = 0
    for trial in range(trials):
        oracle = make_oracle(params, perc, seed, trial)
        for _layer, population in islice(sweep_layers(oracle), depth):
            if population == 0 or population >= ESCAPE_POPULATION:
                break
        alive_count += population > 0
    freq = alive_count / trials
    se = math.sqrt(freq * (1.0 - freq) / trials)
    return freq, se


def exact_long_boundary_mean(a_bits: int, perc: PercParams, params: TreeParams) -> float:
    """Expected number of open-long-edge endpoints below an admissible set of
    shape ``a_bits``, counted with the containment (not equality) convention:
    (1 - p^(k - h)) * d^k * q^|A| * p^h / (1 - p d)."""
    if a_bits <= 0 or not a_bits & 1:
        raise ParameterError("shape must be nonempty and contain its base")
    p, q = perc.p, perc.q
    if p * params.d >= 1.0:
        raise ParameterError("formula requires p d < 1")
    h = window_height(a_bits, params)
    size = window_size(a_bits)
    return (
        (1.0 - p ** (params.k - h))
        * params.d**params.k
        * q**size
        * p**h
        / (1.0 - p * params.d)
    )


def exact_mean_short_cluster_pair(a_bits: int, perc: PercParams, params: TreeParams) -> float:
    """Expected short-cluster size of a two-vertex admissible set:
    (2 - p^h) / (1 - p d)."""
    if window_size(a_bits) != 2:
        raise ParameterError("shape must have exactly two vertices")
    p = perc.p
    if p * params.d >= 1.0:
        raise ParameterError("formula requires p d < 1")
    h = window_height(a_bits, params)
    return (2.0 - p**h) / (1.0 - p * params.d)


def criteria_eval(params: TreeParams, p: float, s: float, trials: int, seed: int):
    """Monte Carlo estimates of the two survival/extinction criteria of the
    admissible-set chain at q = (1 - p d)/d^k + s/d^2k.

    Returns ((lhs_a, se_a), (lhs_b, se_b), q) where

    * lhs_a estimates M(o,o) + sum over |B| = 2 of M(o,B) M(B,o), via the
      count of root-type children of the root plus root-type grandchildren
      through size-2 first-generation pieces, and
    * lhs_b estimates the lambda-weighted extinction functional: sizes of
      first-generation pieces with size != 2 plus sizes of the offspring of
      the size-2 pieces.
    """
    check_count("trials", trials, 1)
    (p,) = check_probabilities(p=p)
    # at p d >= 1 the short cluster is supercritical and a trial only ends
    # at the cluster cap
    if p * params.d >= 1.0:
        raise ParameterError("criteria require p d < 1")
    dk = float(params.d) ** params.k
    q = (1.0 - p * params.d) / dk + check_real("s", s) / dk**2
    perc = PercParams(p=p, q=q)
    sum_a = sum_a2 = 0.0
    sum_b = sum_b2 = 0.0
    root_set = AdmissibleSet(base=ROOT, rel_type=1)
    for trial in range(trials):
        oracle = make_oracle(params, perc, seed, trial)
        _cs, _cl, gen1 = expand_admissible(root_set, oracle, params)
        acc_a = 0.0
        acc_b = 0.0
        for piece in gen1:
            if piece.rel_type == 1:
                acc_a += 1.0
            if piece.size != 2:
                acc_b += piece.size
            else:
                _, _, children = expand_admissible(piece, oracle, params)
                for child in children:
                    if child.rel_type == 1:
                        acc_a += 1.0
                    acc_b += child.size
        sum_a += acc_a
        sum_a2 += acc_a * acc_a
        sum_b += acc_b
        sum_b2 += acc_b * acc_b
    mean_a = sum_a / trials
    mean_b = sum_b / trials
    se_a = math.sqrt(max(sum_a2 / trials - mean_a**2, 0.0) / trials)
    se_b = math.sqrt(max(sum_b2 / trials - mean_b**2, 0.0) / trials)
    return (mean_a, se_a), (mean_b, se_b), q
