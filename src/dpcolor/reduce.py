"""Reducible-configuration checking by exhaustive enumeration.

A configuration is a local graph with per-vertex residual-size floors: the
question is whether, for every choice of residual color sets meeting the
floors and every matching assignment on the local edges, an independent
transversal exists.  Four sound reductions shrink the search:

* Straightening (a designated spanning forest is fixed to the identity):
  every instance is equivalent to one with straight forest edges, because
  per-vertex renamings act transitively on forest matchings.
* Floor-exact residuals with canonical names: shrinking a residual set only
  removes transversals, so floor-sized sets suffice; vertices that retain a
  free renaming (none for straightened-forest vertices except one canonical
  representative per forest component, which a whole-component renaming can
  still normalize) use the fixed set {1..floor}.
* Maximal partial injections per free edge: dropping a cover edge only adds
  transversals, so only injections matching min(|A|,|B|) colors between the
  endpoint residual sets A, B need enumeration.
* One residual choice per orbit: the renamings of a forest component's
  colors that keep its designated set still permute the sets of its other
  vertices, and only the first choice of each orbit in enumeration order
  is checked (`residual_choices`).  Renaming one component maps each
  instance to an isomorphic one: its tree edges stay identity maps,
  maximal injections go to maximal injections, the eliminate adversary's
  maps compose with the renaming, and the margin vertex keeps its number
  of bad colors.  So a failing instance exists for every choice of an
  orbit or for none, the first failing choice of the full enumeration is
  the first of its orbit, and the verdict and witness are those of the
  full enumeration; only `enumerated` and `blocks` shrink.

All four strategies run on one mask kernel (`_Run.leaves`).  For each
residual choice the candidate color assignments form a grid, one axis per
vertex, with the strategy's grouping vertices outermost; each free edge has
one boolean mask per maximal injection, and an instance is the AND of one
mask per edge.  The kernel walks the outer edges ANDing masks and
vectorizes the rest in blocks sized so that no array a block builds passes
a byte cap (see _BLOCK_CELLS).  Each block comes as two factors over the
grouping vertices' assignments: the early factor ANDs the edges that touch
a non-grouping vertex and ORs each instance over the non-grouping axes;
the late factor ANDs the edges between two grouping vertices (only
eliminate has any), which cannot see the non-grouping axes.  An instance's
row is the AND of one row of each.  In color-index space the grid, the
masks, the block plan and the late factor depend on the floors alone, so
they are built once per check; each residual choice builds only the mask
of its straightened edges and walks.  The walked late edges go into the
candidate mask, so each head slice of the walk's last edge has one late
factor, which its blocks at every walk step share.  The kernel also
counts instances, blocks and built rows and stops on the budget.  Each
strategy is one reduction of those blocks:

* "product" (no grouping): an instance with no live candidate fails;
* "margin" (the precolored vertex): more than one dead precolor fails;
* "condition" (the cut vertex, one side at a time): the families of blocked
  cut colors, combined across the two sides;
* "eliminate" (the neighbors of a removed full-floor pivot): the live
  neighbor-color profiles, which maps on the pivot edges try to block.  Its
  line test runs on the factors first, and only the instances that pass it
  there get a row.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .cover import (
    CoverInstance, _search, find_transversal, identity,
)
from .graphs import Graph, edge_key
from .patterns import cluster_pattern

K = 4
FULL = frozenset(range(1, K + 1))

REDUCIBLE = "REDUCIBLE"
NOT_REDUCIBLE = "NOT_REDUCIBLE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Configuration:
    label: str
    graph: Graph
    names: Mapping[str, int]  # role name -> vertex id
    floors: tuple[int, ...]  # per vertex id
    tree: tuple[tuple[int, int], ...]  # straightened forest (edge keys)
    strategy: str  # a key of STRATEGIES
    pivot: Optional[int] = None  # eliminate: the removed full-floor vertex
    cut: Optional[int] = None  # condition: the articulation vertex
    margin_vertex: Optional[int] = None  # margin: the precolored vertex
    expect: str = REDUCIBLE
    note: str = ""

    def __post_init__(self):
        n = self.graph.n

        def is_vertex(v) -> bool:
            return type(v) is int and 0 <= v < n

        if len(self.floors) != n:
            raise ValueError(f"floors: {len(self.floors)} entries for "
                             f"{n} vertices")
        for v, f in enumerate(self.floors):
            # a vertex with no residual color is never reducible
            if type(f) is not int or not 1 <= f <= K:
                raise ValueError(f"floors[{v}] = {f!r} is not in 1..{K}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy: unknown {self.strategy!r}; choices: "
                             f"{', '.join(sorted(STRATEGIES))}")
        reads = STRATEGIES[self.strategy][0]
        for role in ROLE_FIELDS:
            v = getattr(self, role)
            if (v is None) == (role == reads):
                raise ValueError(f"{role}: the {self.strategy} strategy "
                                 f"{'needs a' if v is None else 'takes no'} "
                                 f"{role}")
            if v is not None and not is_vertex(v):
                raise ValueError(f"{role}: {v!r} is not a vertex id in "
                                 f"0..{n - 1}")
        for role, v in self.names.items():
            if not is_vertex(v):
                raise ValueError(f"names[{role!r}]: {v!r} is not a vertex id "
                                 f"in 0..{n - 1}")
        for e in self.tree:
            if tuple(e) not in self.graph.edges:
                raise ValueError(f"tree: {tuple(e)} is not a graph edge "
                                 f"(u, v) with u < v")
        forest = Graph.from_edges(n, set(self.tree))
        if len(forest.components) != n - len(self.tree):
            raise ValueError("tree: the edges contain a cycle")


@dataclass
class Verdict:
    status: str
    witness: Optional[CoverInstance] = None
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# catalog


def _tight_clusters() -> Iterator[Configuration]:
    """Cluster shapes 10 and 11 with their forest uv, vw, vy, yx
    straightened and their pivot z eliminated: lemmas L7-555 and L8-556,
    and the gadgets CE-6 and CE-7, which lower one boundary floor of each."""
    gadget = "tightness gadget: one boundary floor lowered from 3 to 2"
    for code, label, floors_by_role, expect, note in (
        (10, "L7-555", {"u": 2, "x": 4, "y": 4, "w": 2, "z": 4, "v": 3},
         REDUCIBLE, "6-face cluster with two tight boundary vertices"),
        (11, "L8-556", {"v": 2, "x": 4, "y": 4, "z": 4, "u": 3, "w": 3},
         REDUCIBLE, "7-face cluster with one tight boundary vertex"),
        (10, "CE-6", {"u": 2, "x": 4, "y": 4, "w": 2, "z": 4, "v": 2},
         NOT_REDUCIBLE, gadget),
        (11, "CE-7", {"v": 2, "x": 4, "y": 4, "z": 4, "u": 3, "w": 2},
         NOT_REDUCIBLE, gadget),
    ):
        pat = cluster_pattern(code)
        names = dict(pat.labels)
        floors = [0] * pat.graph.n
        for role, f in floors_by_role.items():
            floors[names[role]] = f
        tree = tuple(edge_key(names[a], names[b])
                     for a, b in ("uv", "vw", "vy", "yx"))
        yield Configuration(label, pat.graph, names, tuple(floors), tree,
                            "eliminate", pivot=names["z"], expect=expect,
                            note=note)


def config_catalog() -> dict[str, Configuration]:
    out: dict[str, Configuration] = {}

    g1 = Graph.from_edges(1, [])
    out["L2"] = Configuration(
        "L2", g1, {"v": 0}, (1,), (), "product",
        note="an isolated low-degree vertex always keeps a residual color",
    )

    g4 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    out["L4-diamond"] = Configuration(
        "L4-diamond", g4, {"u": 0, "v": 1, "x": 2, "y": 3},
        (3, 3, 2, 2), (), "product",
        note="two triangles glued on uv, xy not an edge",
    )

    # two disjoint glued triangles v1v2v12 and v3v4v34 joined through v
    g5 = Graph.from_edges(
        7,
        [(6, 0), (6, 1), (6, 2), (6, 3),
         (0, 1), (0, 4), (1, 4),
         (2, 3), (2, 5), (3, 5)],
    )
    out["L5-special5"] = Configuration(
        "L5-special5", g5,
        {"v1": 0, "v2": 1, "v3": 2, "v4": 3, "v12": 4, "v34": 5, "v": 6},
        (3, 3, 3, 3, 2, 2, 3), (), "condition", cut=6,
        note="the two glued triangles meet only through v",
    )

    g6 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    out["L6-precolor"] = Configuration(
        "L6-precolor", g6, {"v": 0, "xp": 1, "yp": 2, "zp": 3},
        (4, 2, 3, 3), (), "margin", margin_vertex=0,
        note="precoloring v must leave the triangle xp,yp,zp colorable "
             "for all but at most one of v's colors",
    )

    out.update((cfg.label, cfg) for cfg in _tight_clusters())
    return out


# ---------------------------------------------------------------------------
# enumeration building blocks


def maximal_injections(a: frozenset[int], b: frozenset[int]) -> list[dict[int, int]]:
    """All partial injections a->b matching min(|a|,|b|) colors, sorted."""
    la, lb = sorted(a), sorted(b)
    if len(la) <= len(lb):
        return [dict(zip(la, p)) for p in itertools.permutations(lb, len(la))]
    return [dict(zip(p, lb)) for p in itertools.permutations(la, len(lb))]


def extend_to_bijection(partial: Mapping[int, int]) -> tuple[int, ...]:
    """Deterministic completion of an injective partial map to a bijection."""
    free_src = [c for c in range(1, K + 1) if c not in partial]
    free_dst = [c for c in range(1, K + 1) if c not in set(partial.values())]
    full = dict(partial)
    full.update(zip(free_src, free_dst))
    return tuple(full[c] for c in range(1, K + 1))


def residual_choices(cfg: Configuration,
                     skip: Sequence[int] = ()) -> Iterator[dict[int, frozenset[int]]]:
    """Residual-set choices meeting the floors exactly, symmetry-reduced.

    Vertices outside the straightened forest keep a free renaming, so their
    set is fixed to {1..floor}.  Within each forest component one designated
    vertex (lowest floor f, then lowest id) is likewise canonical via a
    whole-component renaming; the rest range over all floor-sized subsets.
    A vertex outside the forest is a component of its own, so it is the
    designated vertex of its component.

    The renamings of a component that keep {1..f}, Sym({1..f}) x
    Sym({f+1..K}), still act on its other sets.  Of each orbit only the
    first choice in enumeration order (the subsets of each varying vertex
    in `itertools.combinations` order, the vertices in id order) is
    yielded.  A renaming acts on one component's sets alone, so a choice
    comes first in its orbit exactly when each component's tuple of subset
    ranks comes first in that component's orbit.  In enumeration order a
    component meets its tuples for the first time in their lexicographic
    order, so a tuple met before any other of its orbit is the first of
    it: its verdict is set then, and its images are marked as later ones.
    """
    comps = Graph.from_edges(cfg.graph.n, cfg.tree).components
    canonical = {min(comp, key=lambda v: (cfg.floors[v], v)) for comp in comps}
    vary = [v for v in range(cfg.graph.n)
            if v not in canonical and v not in skip and cfg.floors[v] < K]
    base = {
        v: frozenset(range(1, cfg.floors[v] + 1))
        for v in range(cfg.graph.n) if v not in skip
    }
    subsets = {
        v: [frozenset(s) for s in itertools.combinations(range(1, K + 1),
                                                         cfg.floors[v])]
        for v in vary
    }
    rank = {v: {s: r for r, s in enumerate(subsets[v])} for v in vary}
    # per component with varying vertices: their positions in `vary`, per
    # renaming the rank that each of their subsets goes to, and whether
    # each tuple of their ranks met so far comes first in its orbit
    groups = []
    for comp in comps:
        at = [i for i, v in enumerate(vary) if v in comp]
        if not at:
            continue
        f = min(cfg.floors[v] for v in comp)
        groups.append((at, [[[rank[vary[i]][frozenset(map(pi.__getitem__, s))]
                              for s in subsets[vary[i]]] for i in at]
                            for low, high in itertools.product(
                                itertools.permutations(range(1, f + 1)),
                                itertools.permutations(range(f + 1, K + 1)))
                            for pi in [(0, *low, *high)]], {}))
    for ranks in itertools.product(*(range(len(subsets[v])) for v in vary)):
        for at, renamed, first in groups:
            own = tuple(ranks[i] for i in at)
            if own not in first:
                first.update((tuple(map(list.__getitem__, images, own)), False)
                             for images in renamed)
                first[own] = True
            if not first[own]:
                break
        else:
            choice = dict(base)
            choice.update((v, subsets[v][r]) for v, r in zip(vary, ranks))
            yield choice


def build_witness(
    cfg: Configuration,
    residuals: Mapping[int, frozenset[int]],
    edge_maps: Mapping[tuple[int, int], Mapping[int, int]],
) -> CoverInstance:
    """Concrete cover instance from a branch of the enumeration.

    edge_maps are partial injections oriented along the (min, max) edge key;
    unspecified edges (the straightened forest) get the identity.
    """
    sigma = {e: extend_to_bijection(edge_maps[e]) if e in edge_maps
             else identity(K) for e in cfg.graph.edges}
    avail = tuple(residuals.get(v, FULL) for v in range(cfg.graph.n))
    return CoverInstance(cfg.graph, K, avail, sigma)


def _free_edges(cfg: Configuration, exclude_vertex: Optional[int] = None) -> list:
    return [e for e in sorted(cfg.graph.edges)
            if e not in cfg.tree and exclude_vertex not in e]


# ---------------------------------------------------------------------------
# the mask kernel

# Bytes that any one array of a kernel block may take.  A block vectorizes
# a tail of the edges, taken from the last one back while every array
# fits, and then as many options of the next edge as fit (at least one).
# The tail keeps taking early edges, so a small configuration runs in one
# block per residual choice instead of paying numpy's fixed cost per block
# many times; a late edge joins only as one of its last two edges, since a
# vectorized late edge takes its endpoints' axes out of eliminate's
# factored line test and so costs built rows.  At 1 MiB the early edges
# would merge L6-precolor's 36 blocks into 6 larger and slower ones; at
# 512 KiB it and L8-556 keep their 36 blocks.  The arrays counted are the
# ones a block builds: the float32 operands and product of the early
# factor's matmul (`_any_and`; candidate cells x head or tail early
# options, group cells x early options), the late cube (group cells x late
# options) and the [early, late] pair matrices of the line test (8 bytes a
# pair, as the block's int64 instance numbers take).  Instance rows come
# in slices within the cap (`_Leaf.table`: built from the factors, or, in
# a block with no late edge, views of the early one), so they never size a
# block.
_BLOCK_CELLS = 1 << 19


@functools.cache
def _injections(na: int, nb: int) -> tuple[list, np.ndarray]:
    """`maximal_injections` between the color indices range(na) and
    range(nb), which follow those between any sorted sets of these sizes,
    and whether each one keeps each index pair apart ([a * nb + b, option]:
    False iff it maps a to b)."""
    opts = maximal_injections(frozenset(range(na)), frozenset(range(nb)))
    return opts, np.array([[m.get(a) != b for m in opts]
                           for a in range(na) for b in range(nb)])


def _floor_tables(group: Sequence[int], rest: Sequence[int],
                  sizes: Mapping[int, int], free) -> tuple[dict, list]:
    """Over the grid of the color indices of group + rest (`sizes` each,
    group outermost): each vertex's index per cell, and per free edge, in
    `free` order, (edge, index options, [cell, option] mask, late), a late
    edge (both ends in `group`) over the group grid only."""
    order = [*group, *rest]
    cells = math.prod(sizes.values())
    # each vertex's index per cell, in C order, from one np.indices over
    # the axes of more than one index (each at least halves the cells, so
    # no grid that fits in memory has more axes than numpy allows); the
    # other vertices have index 0 in every cell
    wide = [v for v in order if sizes[v] > 1]
    grid = np.indices([sizes[v] for v in wide]).reshape(len(wide), cells)
    index = dict.fromkeys(order, np.zeros(cells, dtype=int))
    index.update(zip(wide, grid))
    width = math.prod(sizes[v] for v in rest)
    # the group grid: the grid's cells whose rest indices come first
    group_index = {v: index[v][::width] for v in group}
    edges = []
    for u, v in free:
        opts, apart = _injections(sizes[u], sizes[v])
        late = u in group_index and v in group_index
        at = group_index if late else index
        edges.append(((u, v), opts,
                      np.take(apart, at[u] * sizes[v] + at[v], axis=0), late))
    return index, edges


@dataclass
class _Leaf:
    """One kernel block, as two factors over the group assignments.

    An instance of the block takes one option of each vectorized edge.  The
    options of the early edges (those touching a non-grouping vertex) pick a
    row of `early`: the group assignments that extend to the `rest` axes
    under every edge fixed on the walk.  The options of the late edges
    (both ends grouping vertices) pick a row of `late`, which depends only
    on the group axes of the vertices in `touched`.  The instance's
    table row is the AND of the two.  Both factors and every table that
    `table` builds are profile-major (column-major): each group assignment's
    column is contiguous over the rows.  Blocks that share a late factor
    share its `late_lines` too.  Edge options are maps between color
    indices into the sorted residual sets; `maps` turns them into colors.
    """

    run: _Run
    residuals: Mapping[int, frozenset[int]]
    early: np.ndarray  # [e, g]
    late: np.ndarray  # [l, g]
    late_lines: dict  # axis -> float32 `_line_hits` of `late`, on demand
    inner: list  # (edge, index maps, late) vectorized, the first outermost
    touched: set  # the grouping vertices of the vectorized late edges
    count: int  # instances of the block within the budget
    first: int  # instances enumerated before this block
    path: list  # (edge, index map) fixed by the walk down to this block

    def table(self, keep: Optional[np.ndarray] = None):
        """Yield (j, alive) slices in ascending order: the block's instance
        numbers j of every (early, late) pair that `keep[e, l]` admits, and
        their rows alive[i] = early[e] & late[l], each slice within
        _BLOCK_CELLS bytes.  Without `keep` (product, margin and condition,
        whose blocks have no late edge, so one all-true late row) every
        instance j is early row j, and its slice is a view of `early`."""
        factors = [self.early.T, self.late.T]  # [g, row]
        # a row takes a byte per group cell, an instance number 8 bytes
        step = max(1, _BLOCK_CELLS // max(len(factors[0]), 8))
        if keep is None:
            for lo in range(0, self.count, step):
                j = np.arange(lo, min(lo + step, self.count))
                self.run.rows_built += len(j)
                yield j, self.early[lo:lo + len(j)]
            return
        # one axis per run of consecutive vectorized edges on one side, in
        # the mixed radix that numbers the instances; each factor spans its
        # own side's axes.  A late edge is the head or one of the tail's
        # last two edges, so a block has at most 4 runs, within numpy's
        # axis limit however many edges it vectorizes.
        digits, sides = [], []
        for _, opts, late in self.inner:
            if sides and sides[-1] == late:
                digits[-1] *= len(opts)
            else:
                digits.append(len(opts))
                sides.append(late)
        e, l = (np.broadcast_to(np.arange(f.shape[1]).reshape(
            [n if late == side else 1 for n, late in zip(digits, sides)]),
            digits).ravel()[:self.count] for side, f in enumerate(factors))
        j = np.flatnonzero(keep[e, l])
        for lo in range(0, len(j), step):
            part = j[lo:lo + step]
            alive = np.take(factors[0], e[part], axis=1) \
                & np.take(factors[1], l[part], axis=1)
            self.run.rows_built += len(part)
            yield part, alive.T

    def maps(self, j: int) -> dict:
        """The edge maps (of colors) of the block's j-th instance."""
        picks = dict(self.path)
        for e, opts, _ in reversed(self.inner):
            j, r = divmod(j, len(opts))
            picks[e] = opts[r]
        colors = {v: sorted(s) for v, s in self.residuals.items()}
        return {(u, v): {colors[u][a]: colors[v][b] for a, b in m.items()}
                for (u, v), m in picks.items()}


class _Run:
    """Counters and budget of one exhaustive check.

    `enumerated` counts instances, one maximal injection per free edge and
    residual choice that `residual_choices` yields, in every strategy.  The
    budget caps it: the kernel stops as soon as the next block would pass
    it.  `blocks` counts the leaf blocks evaluated.  `rows_built` counts the
    instance rows that `_Leaf.table` yields (all of them, except where
    eliminate's line test rejects an instance on the factors).
    """

    def __init__(self, budget: Optional[int]):
        self.budget = budget
        self.enumerated = 0
        self.exhausted = False
        self.blocks = 0
        self.rows_built = 0
        self.t0 = time.monotonic()

    def verdict(self, status: str, witness: Optional[CoverInstance] = None,
                **stats) -> Verdict:
        stats = {"enumerated": self.enumerated, "blocks": self.blocks,
                 "rows_built": self.rows_built, **stats}
        if status == INCONCLUSIVE:
            stats["reason"] = "budget exhausted"
        stats["seconds"] = time.monotonic() - self.t0
        return Verdict(status, witness, stats)

    def done(self, **stats) -> Verdict:
        """REDUCIBLE after a complete enumeration, else INCONCLUSIVE."""
        return self.verdict(
            INCONCLUSIVE if self.exhausted else REDUCIBLE, **stats)

    def stop(self, leaf: _Leaf, j: int, witness: CoverInstance,
             **stats) -> Verdict:
        """NOT_REDUCIBLE at instance j of a leaf, counted up to it."""
        self.enumerated = leaf.first + int(j) + 1
        return self.verdict(NOT_REDUCIBLE, witness, **stats)

    def leaves(self, choices, group: Sequence[int], rest: Sequence[int],
               straight, free) -> Iterator[_Leaf]:
        """Yield the instances of every residual choice, block by block.

        The candidate assignments of group + rest form a grid, group
        outermost, over color indices into the sorted residual sets.  Every
        choice gives a vertex a set of its floor's size, and maximal
        injections between sorted sets follow the index order, so the grid,
        the free-edge masks (`_floor_tables`), the block plan, the tails and
        the late factor depend on the floors alone and are built once per
        call.  Per choice only `base` (straightened edges mask out equal
        colors) and the walk remain.  An early edge (one touching a `rest`
        vertex) masks the whole grid, a late one (both ends in `group`) the
        group grid; masks are cell-major ([cell, option]), so reductions
        over cells run along contiguous instances.

        The walk fixes one option per edge, fewest options first, and ANDs
        its column into the candidate mask (a late edge's repeated over the
        `rest` axes).  Every block vectorizes the tail edges (early edges
        while they fit, a late one only as one of the last two) and one
        slice of the options of the walk's last edge, as large as the early
        factor's matmul, the late cube and the pair matrices allow (see
        _BLOCK_CELLS); that slice heads the leaf's `inner`, so instances
        keep the lexicographic order of the edges wherever the late edges
        sort.  A leaf's early factor ANDs the vectorized early edges into
        the candidate mask and ORs each instance over the `rest` axes (one
        matmul of the head's and the tail's early masks, `_any_and`); its
        late factor ANDs the vectorized late edges over the group grid,
        once per call for each head slice.
        """
        choices = iter(choices)
        first_choice = next(choices, None)
        if first_choice is None:
            return
        sizes = {v: len(first_choice[v]) for v in [*group, *rest]}
        index, edges = _floor_tables(group, rest, sizes, free)
        edges.sort(key=lambda t: len(t[1]))
        cells = math.prod(sizes.values())
        width = math.prod(sizes[v] for v in rest)
        groups = cells // width

        def built(vec, head=1, late=False):
            """Bytes of each array that sizes a block (see _BLOCK_CELLS)
            vectorizing `vec` after `head` options on the `late` side."""
            h, t = [1, 1], [1, 1]
            h[late] = head
            for _, opts, _, side in vec:
                t[side] *= len(opts)
            return (4 * cells * h[0], 4 * cells * t[0],
                    4 * groups * h[0] * t[0], groups * h[1] * t[1],
                    8 * h[0] * h[1] * t[0] * t[1])

        # a late edge joins only as one of the tail's last two edges (see
        # _BLOCK_CELLS)
        tail = 0
        while tail < len(edges) and \
                (tail < 2 or not edges[len(edges) - tail - 1][3]) and \
                max(built(edges[len(edges) - tail - 1:])) <= _BLOCK_CELLS:
            tail += 1
        outer, inner = edges[:len(edges) - tail], edges[len(edges) - tail:]
        # [early, late]: the [cell, option tuple] ANDs of the tail's edges,
        # the same in every block, built from the last edge back so that
        # the long option axis is the inner one of each `_and_each`
        tails = [np.ones((n, 1), dtype=bool) for n in (cells, groups)]
        for _, _, rows, late in reversed(inner):
            tails[late] = _and_each(rows, tails[late])
        # each head slice of the walk's last edge with what its blocks
        # share: its early rows (None without an early head), the instance
        # count, the late factor (the late tail, ANDed with a late head's
        # options) and its line hits by axis, the vectorized edges and the
        # grouping vertices of the late ones.  Walked late edges stay out of
        # the late factor: their rows, repeated over the `rest` axes here,
        # go into the candidate mask.
        shared = (tails[1].T, {})
        slices = [[]]
        if outer:
            e, opts, rows, late = outer.pop()
            # the bytes that each head option adds to the arrays that grow
            # with the head
            per = max(a - b for a, b in zip(built(inner, 1, late),
                                            built(inner, 0, late)))
            step = max(1, _BLOCK_CELLS // per)
            slices = [[(e, opts[lo:lo + step], rows[:, lo:lo + step], late)]
                      for lo in range(0, len(opts), step)]
            outer = [(e, o, np.repeat(r, width, axis=0) if late else r)
                     for e, o, r, late in outer]
        heads = []
        for head in slices:
            vec = head + inner
            _, _, rows, late = head[0] if head else (0, 0, None, False)
            heads.append((None if late else rows,
                          math.prod(len(t[1]) for t in vec),
                          *((_and_each(rows, tails[1]).T, {}) if late
                            else shared),
                          [(e, opts, side) for e, opts, _, side in vec],
                          {v for e, _, _, side in vec if side for v in e}))
        # the early tail as every block's float32 matmul operand
        tails[0] = tails[0].reshape(groups, width, -1).astype(np.float32)

        def walk(residuals, base):
            """The blocks of every option tuple of the outer edges, in
            lexicographic order, by an odometer (no recursion limit caps
            the edges): fixed[d] holds the candidate mask with d edges
            fixed."""
            pick = [0] * len(outer)
            fixed = [base] * (len(outer) + 1)
            d = 0  # the first edge whose option changed
            while True:
                for i in range(d, len(outer)):
                    fixed[i + 1] = fixed[i] & outer[i][2][:, pick[i]]
                path = [(e, opts[p]) for (e, opts, _), p in zip(outer, pick)]
                for rows, size, *shares in heads:
                    count = size
                    if self.budget is not None and \
                            self.enumerated + size > self.budget:
                        count = self.budget - self.enumerated
                        self.exhausted = True
                    first = self.enumerated
                    self.enumerated += count
                    if count:
                        self.blocks += 1
                        yield self._leaf(residuals, fixed[-1], rows, tails[0],
                                         shares, count, first, path)
                    if self.exhausted:
                        return
                d = len(outer) - 1
                while d >= 0 and pick[d] == len(outer[d][1]) - 1:
                    pick[d] = 0
                    d -= 1
                if d < 0:
                    return
                pick[d] += 1

        # each cell's index pair on each straightened edge, as a row of
        # that edge's block of pairs in one table of them all
        offsets = itertools.accumulate(
            (sizes[u] * sizes[v] for u, v in straight), initial=0)
        pairs = np.array([index[u] * sizes[v] + index[v] + at for (u, v), at
                          in zip(straight, offsets)], int).reshape(-1, cells)
        for residuals in itertools.chain([first_choice], choices):
            # the one table that depends on the choice's colors: whether
            # each straightened edge keeps each of its index pairs apart
            apart = np.array([a != b for u, v in straight
                              for a in sorted(residuals[u])
                              for b in sorted(residuals[v])])
            yield from walk(residuals, np.take(apart, pairs).all(axis=0))
            if self.exhausted:
                return

    def _leaf(self, residuals, mask, rows, early_tail, shares, count, first,
              path) -> _Leaf:
        """The two factors of one block: the early one from the candidate
        mask of the walk, the head slice's early `rows` (if any) and the
        early tail product (float32 [group, cell, option]); the late one,
        its line hits, the vectorized edges (the first one outermost) and
        the vertices they touch are the head slice's `shares`.
        """
        table = mask[:, None] if rows is None else mask[:, None] & rows
        early = _any_and(table.reshape(*early_tail.shape[:2], -1), early_tail)
        return _Leaf(self, residuals, early.T, *shares, count, first, path)


def _and_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every column of a ANDed with every column of b, a's outermost:
    out[cell, i * b.shape[1] + k] = a[cell, i] & b[cell, k]."""
    return (a[:, :, None] & b[:, None, :]).reshape(len(a), -1)


def _any_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether some cell of a group has both options, for boolean a and b
    ([group, cell, option]; b may come as float32 0/1 already):
    out[q, i * b.shape[2] + k] = any(a[q, :, i] & b[q, :, k]), from a
    float32 matmul that counts the cells exactly (fewer than 2^24 of
    them)."""
    product = np.matmul(a.transpose(0, 2, 1).astype(np.float32),
                        b.astype(np.float32, copy=False))
    return (product > 0).reshape(len(a), -1)


def _first_rows(table: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct boolean row."""
    if table.shape[1] <= 8:
        # a narrow row (condition's cut colors) as a one-byte key, set
        # column by column: np.packbits along so short an axis costs
        # several times as much.  Zero-width rows all get key 0.
        packed = np.zeros((len(table), 1), dtype=np.uint8)
        for c in range(table.shape[1]):
            packed[:, 0] |= table[:, c].view(np.uint8) << c
    else:
        packed = np.packbits(table, axis=1)
    # a stable sort keeps equal rows in index order, so the first row of
    # each run of equal neighbours is that row's first occurrence
    order = np.lexsort(packed.T)
    rows = packed[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.sort(order[first])


# ---------------------------------------------------------------------------
# strategies: one reduction of the kernel's blocks each


def _check_product(cfg: Configuration, run: _Run) -> Verdict:
    """A counterexample is an instance with no transversal at all."""
    for leaf in run.leaves(residual_choices(cfg), (), range(cfg.graph.n),
                           cfg.tree, _free_edges(cfg)):
        for at, alive in leaf.table():
            dead = np.flatnonzero(~alive[:, 0])
            if dead.size:
                j = at[dead[0]]
                return run.stop(leaf, j, build_witness(
                    cfg, leaf.residuals, leaf.maps(j)))
    return run.done()


def _check_margin(cfg: Configuration, run: _Run) -> Verdict:
    """REDUCIBLE iff at most one color of the precolored vertex is ever bad."""
    v = cfg.margin_vertex
    rest = [x for x in range(cfg.graph.n) if x != v]
    worst = 0
    for leaf in run.leaves(residual_choices(cfg), [v], rest, cfg.tree,
                           _free_edges(cfg)):
        for at, alive in leaf.table():
            # each row's live precolors, at most K, counted in a byte
            live = np.add.reduce(alive, axis=1, dtype=np.uint8)
            worst = max(worst, alive.shape[1] - int(live.min()))
            if worst > 1:
                r = np.flatnonzero(live < alive.shape[1] - 1)[0]
                j = at[r]
                bad = [c for c, ok in zip(sorted(leaf.residuals[v]),
                                          alive[r]) if not ok]
                # the witness keeps only the bad precolors, so it has no
                # transversal at all
                residuals = {**leaf.residuals, v: frozenset(bad)}
                return run.stop(
                    leaf, j, build_witness(cfg, residuals, leaf.maps(j)),
                    bad_colors=bad, worst_bad_colors=len(bad))
    return run.done(worst_bad_colors=worst)


def _check_condition(cfg: Configuration, run: _Run) -> Verdict:
    """Split at the cut vertex; combine the blocked cut-color families.

    A side's family holds every set of cut colors that some side instance
    blocks (each with one realizing instance); the configuration fails iff
    one member of each side covers the cut vertex's colors together.
    """
    cut = cfg.cut
    if cfg.tree:
        raise ValueError("tree: the condition strategy needs a forest of no "
                         "edges")
    comps = [c for c in Graph.from_edges(
        cfg.graph.n, [e for e in cfg.graph.edges if cut not in e]).components
        if cut not in c]
    if len(comps) != 2:
        raise ValueError(
            f"condition strategy needs exactly two sides, got {len(comps)}")
    floors, = residual_choices(cfg)  # {v: {1..floor}}: there is no forest
    colors = np.array(sorted(floors[cut]))
    families = []
    for side in comps:
        inside = set(side) | {cut}
        edges = [e for e in sorted(cfg.graph.edges) if set(e) <= inside]
        family: dict[frozenset[int], dict] = {}
        for leaf in run.leaves([floors], [cut], side, (), edges):
            for at, alive in leaf.table():
                blocked = ~alive
                for r in _first_rows(blocked):
                    key = frozenset(colors[blocked[r]].tolist())
                    if key not in family:
                        family[key] = leaf.maps(at[r])
        if run.exhausted:
            return run.verdict(INCONCLUSIVE)
        families.append(family)
    for bad_a, maps_a in families[0].items():
        for bad_b, maps_b in families[1].items():
            if bad_a | bad_b >= floors[cut]:
                return run.verdict(
                    NOT_REDUCIBLE, build_witness(cfg, floors, maps_a | maps_b),
                    blocking_pair=[sorted(bad_a), sorted(bad_b)])
    return run.done(families=[sorted(map(sorted, f)) for f in families])


def _adversary_blocks(
    profiles: list[tuple[int, ...]],
    residuals: Sequence[frozenset[int]],
) -> Optional[list[dict[int, int]]]:
    """Pivot-edge maps making every profile hit four distinct colors, or None.

    profiles[i] lists one color per pivot neighbor (fixed order); residuals
    gives each neighbor's residual set.  A profile is blocked when its mapped
    images are pairwise distinct (then they exhaust the pivot's four colors).
    """
    n = len(residuals)
    # variables (i, c): the image of color c at neighbor i.  Constraints are
    # all binary inequalities: same-neighbor variables differ (injectivity)
    # and each profile's four variables differ (its images then exhaust the
    # pivot's colors).  Blocking maps exist iff this conflict graph has a
    # proper coloring with colors 1..4: a transversal of its straight cover.
    variables = [(i, c) for i in range(n) for c in sorted(residuals[i])]
    index = {v: j for j, v in enumerate(variables)}
    # variables are numbered neighbor by neighbor, so each pair is (low, high)
    links = {(index[(i, a)], index[(i, b)]) for i in range(n)
             for a, b in itertools.combinations(sorted(residuals[i]), 2)}
    links |= {(index[(a, p[a])], index[(b, p[b])]) for p in profiles
              for a, b in itertools.combinations(range(n), 2)}
    conflicts = CoverInstance.straight(
        Graph.from_edges(len(variables), links), K)
    value: dict[int, int] = {}
    if not _search(conflicts, value, set(range(len(variables)))):
        return None
    return [{c: value[index[(i, c)]] for c in sorted(residuals[i])}
            for i in range(n)]


def _line_test(alive: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """The rows of `alive` whose live profiles pivot maps might block: at
    most 24 are live, and they pass `_factored_line_test` against one
    all-live late row along every axis."""
    keep = _factored_line_test(
        alive, np.ones((1, alive.shape[1]), dtype=bool), shape,
        [a for a in range(len(shape)) if shape[a] > 1])[:, 0]
    return np.flatnonzero(keep & (np.count_nonzero(alive, axis=1) <= 24))


def _factored_line_test(early: np.ndarray, late: np.ndarray,
                        shape: Sequence[int], axes,
                        late_lines: Optional[dict] = None) -> np.ndarray:
    """keep[e, l]: whether the row early[e] & late[l] passes the line test
    along each of `axes`.  `late_lines` caches the late rows' `_line_hits`
    by axis, for callers that test one late factor again.

    A row lists the live profiles of the profile grid (`shape`, one axis
    per pivot neighbor), and pivot maps block a profile when its images are
    an ordering of the four pivot colors.  Two live profiles one coordinate
    apart cannot both be blocked: their other images coincide, so both
    need the same remaining color, and the one map that differs would send
    two colors there.  Such pairs share a line of the grid along one axis,
    so a row with two live profiles on one line fails.  The maps are
    injective, so an ordering is the image of at most one profile: maps
    block at most 4! = 24 profiles, and `_line_test` also drops built rows
    with more live profiles.

    Every late row must be constant along each of `axes`.  A line along
    such an axis then holds two live profiles of the pair exactly when it
    holds two of early[e] and is live in late[l].  Each factor row gets
    one 0/1 entry per line (`_line_hits`), and a pair fails the axis when
    the two rows share a line: one float32 matmul per axis counts the
    shared lines of every pair, exactly (an axis has at most 4^3 = 64
    lines with four neighbors and K = 4).  An axis has at least two
    points per line, so the float32 entries take at most half the bytes
    of the early factor's matmul product.
    """
    if late_lines is None:
        late_lines = {}
    keep = None
    for axis in sorted(axes, key=lambda a: -shape[a]):
        if axis not in late_lines:
            late_lines[axis] = _line_hits(late, shape, axis, 1).astype(
                np.float32)
        hits = _line_hits(early, shape, axis, 2).T.astype(np.float32)
        apart = (hits @ late_lines[axis]) == 0
        keep = apart if keep is None else keep & apart
        if not keep.any():
            break
    return np.ones((len(early), len(late)), bool) if keep is None else keep


def _line_hits(rows: np.ndarray, shape: Sequence[int], axis: int,
               need: int) -> np.ndarray:
    """[line, row]: whether the line of the profile grid along `axis`
    holds at least `need` live profiles of the row of `rows`
    ([row, profile])."""
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    lines = rows.T.reshape(pre, shape[axis], post, len(rows))
    hit = np.add.reduce(lines, axis=1, dtype=np.uint8) >= need
    return hit.reshape(pre * post, -1)


def _check_eliminate(cfg: Configuration, run: _Run) -> Verdict:
    """Remove a full-floor degree-4 pivot and let its edge maps fight back.

    Grouped by the pivot's neighbors, a leaf row lists the neighbor-color
    profiles that extend to the rest of the graph.  The instance fails iff
    maps on the pivot edges can send every live profile onto all four
    pivot colors.  The line test runs on the leaf's factors first, along
    every axis that no vectorized late edge touches; only the instances
    that pass get a table row, and finish the line test there.
    """
    z = cfg.pivot
    if cfg.floors[z] != K:
        raise ValueError("eliminate strategy needs a full-floor pivot")
    nbrs = sorted(cfg.graph.adjacency[z])
    if len(nbrs) != K:
        raise ValueError("eliminate strategy needs a degree-4 pivot")
    if any(z in e for e in cfg.tree):
        raise ValueError("straightened forest must avoid the pivot")
    rest = [v for v in range(cfg.graph.n) if v != z and v not in nbrs]
    shape = [cfg.floors[v] for v in nbrs]  # each residual set's size
    for leaf in run.leaves(residual_choices(cfg, skip=(z,)), nbrs, rest,
                           cfg.tree, _free_edges(cfg, exclude_vertex=z)):
        keep = _factored_line_test(
            leaf.early, leaf.late, shape,
            [a for a, v in enumerate(nbrs)
             if shape[a] > 1 and v not in leaf.touched], leaf.late_lines)
        if not keep.any():
            continue
        res = [leaf.residuals[v] for v in nbrs]
        table = list(itertools.product(*map(sorted, res)))
        for at, alive in leaf.table(keep):
            rows = _line_test(alive, shape)
            for r in rows[_first_rows(alive[rows])]:
                j = at[r]
                profiles = [table[p] for p in np.flatnonzero(alive[r])]
                fs = _adversary_blocks(profiles, res)
                if fs is None:
                    continue
                pivot_maps = {edge_key(nb, z): f if nb < z else
                              {img: c for c, img in f.items()}
                              for nb, f in zip(nbrs, fs)}
                return run.stop(
                    leaf, j, build_witness(cfg, leaf.residuals,
                                           leaf.maps(j) | pivot_maps),
                    profiles=[list(p) for p in sorted(profiles)])
    return run.done()


# each strategy: the one role field of `Configuration` it reads (the other
# two stay unset) and its check
STRATEGIES = {
    "product": (None, _check_product),
    "margin": ("margin_vertex", _check_margin),
    "condition": ("cut", _check_condition),
    "eliminate": ("pivot", _check_eliminate),
}
ROLE_FIELDS = tuple(role for role, _ in STRATEGIES.values() if role)


def check_reducible(
    cfg: Configuration,
    mode: str = "full",
    budget: Optional[int] = None,
) -> Verdict:
    """Exhaustive check of every instance, up to `budget` instances."""
    # full enumeration is the only mode; the keyword stays because
    # bench/workloads.py passes mode="full"
    if mode != "full":
        raise ValueError(f"mode: {mode!r} is not 'full'")
    if budget is not None and budget < 0:
        raise ValueError(f"budget: {budget} is negative")
    verdict = STRATEGIES[cfg.strategy][1](cfg, _Run(budget))
    if verdict.status == NOT_REDUCIBLE:
        assert verdict.witness is not None
        if not verify_witness(verdict.witness):
            raise AssertionError(
                "internal error: counterexample witness admits a transversal")
    return verdict


def verify_witness(w: CoverInstance) -> bool:
    """True iff the complete transversal search finds no transversal."""
    return find_transversal(w) is None
