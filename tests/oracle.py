"""Naive oracles: reducibility by exhaustion, and rooted graph searches.

Reducibility: every instance, one `local_solve` each.

The oracle uses none of the checker's reductions: no straightened forest,
no decomposition at a cut vertex or pivot, no mask kernel, and not the
package's transversal search: `local_solve` is its own solver.  An instance
is one floor-sized list per vertex and one maximal injection per edge, and
every one of them is solved on its own.

With canonical=True every vertex gets the list {1..floor} instead of every
floor-sized list.  That loses no instance up to renaming, because the oracle
straightens nothing: renaming the colors at a vertex maps the maximal
injections on its edges onto each other.  It keeps configurations with a
full-floor pivot small enough to enumerate.

Transversal search: the recursive MRV search and the sweep peel that
`cover.find_transversal` replaced, kept as the reference for its output:
the same vertex order, color order and deferred colors give the same dict.

Eliminate line test: the rows of a pivot-profile table that no pivot maps
can block, found pair by pair of live profiles.

Distinct rows: the first occurrence of each distinct row of a boolean
table, by one pass over the rows.

Margin outcome: the worst and first bad colors of a margin configuration,
by solving every precoloring of every instance in the kernel's order.

Residual choices: every choice of the kernel's enumeration before its
orbit reduction, and the choices that come first in their orbit, found by
applying every renaming of the group to every choice.

Edge masks: the kernel grid's free-edge masks built from one residual
choice's colors, each vertex's color per cell by np.tile and np.repeat,
which fixes the masks and option order that the kernel builds once per
check in color-index space.

Eliminate order: the first instance of an eliminate configuration that
pivot maps block, with the instances of every residual choice listed in the
kernel's documented order by itertools and each one's live profiles found
by trying every coloring of the vertices off the pivot's neighborhood.

Greedy certificates: a 'color ... in order' proof step, checked on every
instance of the symmetry-reduced enumeration by trying every greedy choice.

Graph searches: brute force over vertex permutations for "some cycle or
pattern occurrence uses vertex v", for pattern containment anywhere and for
the automorphism orbits of a pattern; a recursive whole-graph cycle search
and a recursive rooted one that walks each cycle in both directions, which
fix which cycle `find_cycle_of_length` must return; and the recursive
pattern matcher with every pattern vertex pinned in turn, which fixes the
occurrences `graphs._embed` yields, in order, and the witness of a rooted
`contains_pattern`.

Catalog matching: every catalog match of a cluster by brute force over
vertex permutations, filtered by the shape's edges and 3-faces.

Face tracing: the walk through each dart not yet used, one step at a
time by looking the previous vertex up in the rotation, then rotated to
start at its smallest dart, which fixes the faces, and their order, that
`graphs._trace_faces` and the generator's builder must give; and the
face that a given outer walk picks, found by reading every face walk from
each vertex in both directions.

Generator: the insertion loop that searches every drawn site, with no
memory of earlier rejections, which fixes the graphs
`generate.random_plane_graph` must return.

Triangle predicates: every 3-cycle split by a flood of the dual from the
outer face, facial or not, which fixes what `clusters.cycle_predicates` and
`clusters.separating_good_triangles` must return on connected embeddings.

Components: a union-find over the edges, which fixes what
`Graph.components` must return.

Clusters: interior 3-faces grouped by pairwise shared edges, no flood,
which fixes what `clusters.extract_clusters` must return.

Straight edges: whether an edge's bijection is the identity.

Cover references: the matched color map of an edge in either direction,
composition of bijections, the residual list of a vertex under a partial
assignment, and the straightening of a forest of a cover (Dvorak and
Postle, JCTB 129, 2018), under which acceptance criterion 7 checks that
solvability does not change.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from dpcolor.clusters import Classification, Cluster
from dpcolor.cover import (
    CoverError, CoverInstance, identity, invert, is_independent,
)
from dpcolor.generate import PlaneBuilder
from dpcolor.graphs import Graph, PlaneGraph, edge_key, find_cycle_of_length
from dpcolor.patterns import catalog, contains_butterfly
from dpcolor.reduce import (
    K, NOT_REDUCIBLE, REDUCIBLE, Configuration, _adversary_blocks,
    build_witness, maximal_injections,
)


def local_solve(
    vertices: Sequence[int],
    avail: Mapping[int, frozenset[int]],
    constraints: Sequence[tuple[int, int, Mapping[int, int]]],
) -> Optional[dict[int, int]]:
    """Tiny exact solver: constraint (a, b, m) forbids m[t_a] == t_b.

    Colors of a outside m's domain conflict with nothing across that edge.
    Vertices are tried in a fixed order (smallest list first), no MRV.
    """
    order = sorted(vertices, key=lambda v: (len(avail[v]), v))
    by_vertex: dict[int, list[tuple[int, int, Mapping[int, int], bool]]] = {
        v: [] for v in order
    }
    for a, b, m in constraints:
        by_vertex[a].append((a, b, m, True))
        by_vertex[b].append((a, b, m, False))
    assignment: dict[int, int] = {}

    def ok(v: int, c: int) -> bool:
        for a, b, m, forward in by_vertex[v]:
            if forward:  # v == a
                if b in assignment and m.get(c) == assignment[b]:
                    return False
            else:  # v == b
                if a in assignment and m.get(assignment[a]) == c:
                    return False
        return True

    def solve(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in sorted(avail[v]):
            if ok(v, c):
                assignment[v] = c
                if solve(i + 1):
                    return True
                del assignment[v]
        return False

    return dict(assignment) if solve(0) else None


def floor_lists(floor: int, canonical: bool = False) -> list[frozenset[int]]:
    if canonical:
        return [frozenset(range(1, floor + 1))]
    return [frozenset(c) for c in itertools.combinations(range(1, K + 1), floor)]


def instance_count(floors, edges, canonical: bool = False) -> int:
    """How many instances `instances` yields for these floors and edges."""
    lists = math.prod(len(floor_lists(f, canonical)) for f in floors)
    maps = math.prod(
        math.perm(max(floors[u], floors[v]), min(floors[u], floors[v]))
        for u, v in edges)
    return lists * maps


def instances(cfg: Configuration, canonical: bool = False):
    """(lists, constraints) for every instance of the configuration."""
    edges = sorted(cfg.graph.edges)
    for lists in itertools.product(
            *(floor_lists(f, canonical) for f in cfg.floors)):
        avail = dict(enumerate(lists))
        options = [maximal_injections(avail[u], avail[v]) for u, v in edges]
        for maps in itertools.product(*options):
            yield avail, [(u, v, m) for (u, v), m in zip(edges, maps)]


def bad_colors(cfg: Configuration, avail, cons) -> int:
    """Colors of the margin vertex whose precoloring leaves no transversal."""
    v = cfg.margin_vertex
    verts = range(cfg.graph.n)
    return sum(
        local_solve(verts, {**avail, v: frozenset({c})}, cons) is None
        for c in avail[v])


def verdict(cfg: Configuration, canonical: bool = False):
    """(status, worst bad-color count or None) by exhaustion.

    A margin configuration is REDUCIBLE iff no instance has two bad colors
    at the margin vertex; every other strategy asks whether every instance
    has a transversal.
    """
    if cfg.strategy == "margin":
        worst = max(bad_colors(cfg, avail, cons)
                    for avail, cons in instances(cfg, canonical))
        return (REDUCIBLE if worst <= 1 else NOT_REDUCIBLE), worst
    verts = range(cfg.graph.n)
    for avail, cons in instances(cfg, canonical):
        if local_solve(verts, avail, cons) is None:
            return NOT_REDUCIBLE, None
    return REDUCIBLE, None


def line_test_rows(alive, shape: Sequence[int]) -> list[int]:
    """The rows of a [row, profile] table that the eliminate line test keeps.

    Profiles index the grid `shape` in row-major order.  A row is dropped
    when more than 4! = 24 profiles are live, or when two live profiles
    differ in exactly one coordinate.
    """
    grid = list(itertools.product(*map(range, shape)))
    kept = []
    for j, row in enumerate(alive):
        live = [p for p, on in zip(grid, row) if on]
        if len(live) <= 24 and not any(
                sum(a != b for a, b in zip(p, q)) == 1
                for p, q in itertools.combinations(live, 2)):
            kept.append(j)
    return kept


def first_rows(table) -> list[int]:
    """Indices of the first occurrence of each distinct row of a boolean
    [row, column] table, in ascending order, by one pass over the rows."""
    seen, first = set(), []
    for i, row in enumerate(map(tuple, table.tolist())):
        if row not in seen:
            seen.add(row)
            first.append(i)
    return first


def residual_choices(cfg: Configuration, skip: Sequence[int] = ()):
    """Every residual-set choice, before the kernel drops all but the first
    of each orbit.

    Each forest component's designated vertex (lowest floor, then lowest
    id) gets {1..floor}, and so does each vertex outside the forest (a
    component of its own) and each full-floor vertex; every other vertex
    takes every floor-sized subset, in `itertools.combinations` order,
    the vertices in id order.  Vertices in `skip` get no set.
    """
    designated = {min(comp, key=lambda v: (cfg.floors[v], v))
                  for comp in components(cfg.graph.n, cfg.tree)}
    vary = [v for v in range(cfg.graph.n)
            if v not in designated and v not in skip and cfg.floors[v] < K]
    base = {v: frozenset(range(1, cfg.floors[v] + 1))
            for v in range(cfg.graph.n) if v not in skip}
    for combo in itertools.product(*(
            [frozenset(s) for s in itertools.combinations(range(1, K + 1),
                                                          cfg.floors[v])]
            for v in vary)):
        yield {**base, **dict(zip(vary, combo))}


def edge_masks(residuals: Mapping[int, frozenset[int]], group: Sequence[int],
               rest: Sequence[int], free) -> list[tuple]:
    """Per free edge, in `free` order: (edge, maximal injections, [cell,
    option] mask, late).

    The grid runs over the colors of group + rest, group outermost, in C
    order.  mask[cell, r] says whether option r keeps the edge's two
    colors at that cell apart; a color that the option leaves out is kept
    apart from every color.  A late edge (both ends in `group`) has its
    mask over the group grid only: the cells whose rest colors come first.
    """
    order = [*group, *rest]
    domains = [sorted(residuals[v]) for v in order]
    cells = math.prod(map(len, domains))
    color, before, after = {}, 1, cells
    for v, domain in zip(order, domains):
        after //= len(domain)
        color[v] = np.tile(np.repeat(domain, after), before)
        before *= len(domain)
    width = math.prod(len(residuals[v]) for v in rest)
    group_color = {v: color[v][::width] for v in group}
    out = []
    for u, v in free:
        opts = maximal_injections(residuals[u], residuals[v])
        image = np.array([[m.get(c, 0) for c in range(K + 1)] for m in opts],
                         dtype=np.int64)
        late = u in group_color and v in group_color
        at = group_color if late else color
        out.append(((u, v), opts, image.T[at[u]] != at[v][:, None], late))
    return out


def _choice_key(choice: Mapping[int, frozenset[int]]) -> tuple:
    return tuple(sorted(choice.items()))


def orbit_first_choices(cfg: Configuration,
                        skip: Sequence[int] = ()) -> list[dict]:
    """The choices of `residual_choices` that come first in their orbit.

    A renaming of a forest component is a permutation of 1..K that maps
    its designated vertex's set onto itself; it renames the sets of every
    vertex of the component.  The group is the product of the components'
    renamings, and a choice's orbit is every choice that one element of
    the group turns it into: each component's images under its own
    renamings, in every combination.
    """
    choices = list(residual_choices(cfg, skip))
    position = {_choice_key(c): i for i, c in enumerate(choices)}
    comps = components(cfg.graph.n, cfg.tree)
    groups = []
    for comp in comps:
        d = min(comp, key=lambda v: (cfg.floors[v], v))
        fixed = set(range(1, cfg.floors[d] + 1))
        groups.append([dict(zip(range(1, K + 1), p))
                       for p in itertools.permutations(range(1, K + 1))
                       if {p[c - 1] for c in fixed} == fixed])
    out = []
    for i, choice in enumerate(choices):
        members = [v for comp in comps for v in comp if v in choice]
        images = [{tuple(frozenset(pi[c] for c in choice[v])
                         for v in comp if v in choice) for pi in group}
                  for comp, group in zip(comps, groups)]
        orbit = [dict(zip(members, itertools.chain(*sets)))
                 for sets in itertools.product(*images)]
        if min(position[_choice_key(o)] for o in orbit) == i:
            out.append(choice)
    return out


def margin_outcome(cfg: Configuration):
    """(bad colors, worst) of a margin configuration, by solving each
    precoloring of every instance: the sorted bad colors of the first
    instance with more than one, and their number, or None and the most
    bad colors of any instance.

    Instances come in the kernel's order: residual choices as
    `residual_choices` yields them, the forest straight, then one maximal
    injection per other edge, lexicographically, with the edges sorted by
    option count (ties by edge).  Every choice is searched; the first
    failing one comes first in its orbit (see reduce.py).
    """
    v = cfg.margin_vertex
    tree = sorted(cfg.tree)
    free = [e for e in sorted(cfg.graph.edges) if e not in tree]
    worst = 0
    for residuals in residual_choices(cfg):
        options = sorted(
            ((e, maximal_injections(residuals[e[0]], residuals[e[1]]))
             for e in free), key=lambda t: len(t[1]))
        straight = [(a, b, {c: c for c in residuals[a]}) for a, b in tree]
        for combo in itertools.product(*(opts for _, opts in options)):
            cons = straight + [(a, b, m) for ((a, b), _), m in
                               zip(options, combo)]
            bad = [c for c in sorted(residuals[v]) if local_solve(
                range(cfg.graph.n), {**residuals, v: frozenset({c})},
                cons) is None]
            if len(bad) > 1:
                return bad, len(bad)
            worst = max(worst, len(bad))
    return None, worst


def first_failure(cfg: Configuration):
    """(count, residuals, edge maps) of the first eliminate instance that
    pivot maps block, or None.

    Instances come in the order the kernel documents, over every residual
    choice: choices as `residual_choices` yields them, then one maximal
    injection per free edge off the pivot, lexicographically, with the
    edges sorted by option count (ties by edge).  `count` numbers the
    instance from 1 among the instances of orbit-first choices, the only
    ones the kernel enumerates; the edge maps include the blocking pivot
    maps.
    """
    z = cfg.pivot
    nbrs = sorted(cfg.graph.adjacency[z])
    others = [v for v in range(cfg.graph.n) if v != z and v not in nbrs]
    tree = set(cfg.tree)
    free = [e for e in sorted(cfg.graph.edges) if e not in tree and z not in e]
    first = {_choice_key(c) for c in orbit_first_choices(cfg, skip=(z,))}
    count = 0
    for residuals in residual_choices(cfg, skip=(z,)):
        counted = _choice_key(residuals) in first
        options = sorted(
            ((e, maximal_injections(residuals[e[0]], residuals[e[1]]))
             for e in free), key=lambda t: len(t[1]))
        res = [residuals[v] for v in nbrs]
        for combo in itertools.product(*(opts for _, opts in options)):
            count += counted
            maps = {e: m for (e, _), m in zip(options, combo)}

            def proper(color) -> bool:
                return all(color[u] != color[v] for u, v in tree) and all(
                    m.get(color[u]) != color[v] for (u, v), m in maps.items())

            profiles = [
                p for p in itertools.product(*map(sorted, res))
                if any(proper({**dict(zip(nbrs, p)), **dict(zip(others, q))})
                       for q in itertools.product(
                           *(sorted(residuals[v]) for v in others)))]
            fs = _adversary_blocks(profiles, res)
            if fs is not None:
                pivot_maps = {
                    edge_key(nb, z): (f if nb < z else
                                      {img: c for c, img in f.items()})
                    for nb, f in zip(nbrs, fs)}
                return count, residuals, maps | pivot_maps
    return None


def check_greedy_certificate(
    cfg: Configuration,
    order: Sequence[str],
    pivot: Optional[tuple[str, str, int]] = None,
) -> bool:
    """Validate a 'color ... in order' proof step over the full enumeration.

    pivot = (pivot_role, protected_role, threshold): first choose a pivot
    color leaving the protected vertex at least `threshold` residual colors;
    then the remaining vertices, in `order`, must be colorable no matter
    which residual color each greedy step picks.
    """
    tree = set(cfg.tree)
    free = [e for e in sorted(cfg.graph.edges) if e not in tree]
    order_ids = [cfg.names[r] for r in order]
    pivot_id = protected_id = None
    threshold = 0
    if pivot is not None:
        pivot_id, protected_id, threshold = (
            cfg.names[pivot[0]], cfg.names[pivot[1]], pivot[2])
    if sorted(order_ids) != [v for v in range(cfg.graph.n) if v != pivot_id]:
        raise ValueError("order must list every vertex but the pivot once")

    def greedy_all_choices(i, inst, assignment) -> bool:
        if i == len(order_ids):
            return True
        v = order_ids[i]
        cs = residual(inst, assignment, v)
        if not cs:
            return False
        for c in cs:
            assignment[v] = c
            ok = greedy_all_choices(i + 1, inst, assignment)
            del assignment[v]
            if not ok:
                return False
        return True

    for residuals in residual_choices(cfg):
        options = [maximal_injections(residuals[u], residuals[v])
                   for u, v in free]
        for combo in itertools.product(*options):
            inst = build_witness(cfg, residuals, dict(zip(free, combo)))
            if pivot_id is None:
                ok = greedy_all_choices(0, inst, {})
            else:
                ok = any(
                    len(residual(inst, {pivot_id: c}, protected_id))
                    >= threshold and greedy_all_choices(0, inst, {pivot_id: c})
                    for c in sorted(residuals[pivot_id]))
            if not ok:
                return False
    return True


def find_transversal(
    inst: CoverInstance, partial: Optional[Mapping[int, int]] = None
) -> Optional[dict[int, int]]:
    """The reference transversal search: sweep peel, then `search`.

    Vertices whose residual exceeds their count of undecided neighbors are
    deferred, in ascending-id sweeps repeated until one removes nothing, and
    colored greedily (lowest residual color) in reverse order at the end.
    """
    assignment: dict[int, int] = dict(partial) if partial else {}
    assert is_independent(inst, assignment)
    active = {v for v in range(inst.graph.n) if v not in assignment}
    deferred: list[int] = []
    changed = True
    while changed:
        changed = False
        for v in sorted(active):
            live = sum(1 for u in inst.graph.adjacency[v] if u in active)
            if len(residual(inst, assignment, v)) > live:
                active.remove(v)
                deferred.append(v)
                changed = True
    if not search(inst, assignment, active):
        return None
    for v in reversed(deferred):
        assignment[v] = min(residual(inst, assignment, v))
    return assignment


def search(inst: CoverInstance, assignment: dict[int, int],
           pool: set[int]) -> bool:
    """The recursive MRV search: fewest residual colors, ties by id, colors
    ascending; one recursion level per vertex, residuals recomputed."""
    if not pool:
        return True
    v = min(pool, key=lambda x: (len(residual(inst, assignment, x)), x))
    colors = sorted(residual(inst, assignment, v))
    if not colors:
        return False
    pool.remove(v)
    for c in colors:
        assignment[v] = c
        if search(inst, assignment, pool):
            return True
        del assignment[v]
    pool.add(v)
    return False


def cycle_through(g: Graph, length: int, v: int) -> bool:
    """Whether some cycle on `length` distinct vertices passes through v."""
    others = [u for u in range(g.n) if u != v]
    for rest in itertools.permutations(others, length - 1):
        cyc = (v, *rest)
        if all(g.has_edge(cyc[i], cyc[(i + 1) % length])
               for i in range(length)):
            return True
    return False


def pattern_through(g: Graph, pattern: Graph, v: int) -> bool:
    """Whether some occurrence of `pattern` in g maps a vertex onto v."""
    for image in itertools.permutations(range(g.n), pattern.n):
        if v in image and all(g.has_edge(image[a], image[b])
                              for a, b in pattern.edges):
            return True
    return False


def contains_pattern(g: Graph, pattern: Graph) -> bool:
    """Whether some injection of the pattern's vertices carries every
    pattern edge onto an edge of g."""
    for image in itertools.permutations(range(g.n), pattern.n):
        if all(g.has_edge(image[u], image[v]) for u, v in pattern.edges):
            return True
    return False


def first_cycle(g: Graph, length: int):
    """The recursive whole-graph cycle search, kept as the reference.

    DFS over paths anchored at their minimum vertex, neighbours in
    ascending order; the first closed path of `length` vertices wins.
    """
    if length > g.n:
        return None
    adj = g.adjacency

    def extend(path: list[int], on_path: set[int]):
        if len(path) == length:
            return path[:] if path[0] in adj[path[-1]] else None
        for w in sorted(adj[path[-1]]):
            if w <= path[0] or w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            found = extend(path, on_path)
            if found:
                return found
            path.pop()
            on_path.remove(w)
        return None

    for start in range(g.n):
        found = extend([start], {start})
        if found:
            return found
    return None


def neighbours(g, v: int) -> list[int]:
    """The neighbours of v, ascending, on a Graph or a PlaneBuilder."""
    mask = g.masks[v]
    return [w for w in range(g.n) if mask >> w & 1]


def first_cycle_through(g, length: int, v: int):
    """The recursive rooted cycle search, kept as the reference.

    DFS over paths from v, neighbours in ascending order, every cycle
    walked in both directions; the first closed path of `length` vertices
    wins.  `g` is a Graph or a PlaneBuilder.
    """
    if length > g.n:
        return None

    def extend(path: list[int]):
        if len(path) == length:
            return path[:] if v in neighbours(g, path[-1]) else None
        for w in neighbours(g, path[-1]):
            if w in path:
                continue
            path.append(w)
            found = extend(path)
            if found:
                return found
            path.pop()
        return None

    return extend([v])


def placement_order(pattern: Graph, root: int) -> list[int]:
    """Root first, then the vertex with the most placed neighbours, ties to
    the higher degree, then lower id."""
    order = [root]
    while len(order) < pattern.n:
        order.append(max(
            (v for v in range(pattern.n) if v not in order),
            key=lambda v: (len(pattern.adjacency[v] & set(order)),
                           pattern.degree(v))))
    return order


def embed(masks, pattern: Graph, root: int, first: int):
    """The recursive pattern matcher, kept as the reference: every
    occurrence with `root` mapped into the bitset `first`, lowest host
    vertex first at each placed pattern vertex, host vertices of too low a
    degree skipped; each a dict in placement order."""
    order = placement_order(pattern, root)
    everything = (1 << len(masks)) - 1
    mapping: dict[int, int] = {}

    def assign(i: int, used: int):
        if i == len(order):
            yield dict(mapping)
            return
        p = order[i]
        cand = first if i == 0 else everything
        for q in pattern.adjacency[p]:
            if q in mapping:
                cand &= masks[mapping[q]]
        cand &= ~used
        need = pattern.degree(p)
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            if masks[c].bit_count() < need:
                continue
            mapping[p] = c
            yield from assign(i + 1, used | low)
            del mapping[p]

    return assign(0, 0)


def first_occurrence_through(g, pattern: Graph, v: int):
    """The first occurrence through host vertex v, every pattern vertex
    pinned to v in turn, ascending; None if no pin succeeds."""
    for p in range(pattern.n):
        found = next(embed(g.masks, pattern, p, 1 << v), None)
        if found is not None:
            return found
    return None


def orbit_reps(pattern: Graph) -> tuple[int, ...]:
    """The least vertex of each automorphism orbit, ascending, with the
    automorphisms found by trying every vertex permutation."""
    least = list(range(pattern.n))
    for image in itertools.permutations(range(pattern.n)):
        if all(pattern.has_edge(image[a], image[b]) for a, b in pattern.edges):
            for v, w in enumerate(image):
                least[w] = min(least[w], v)
    return tuple(v for v in range(pattern.n) if least[v] == v)


def catalog_matches(pg: PlaneGraph, c: Cluster) -> list[Classification]:
    """Every catalog match of the cluster, by trying every vertex bijection.

    A bijection matches when it carries each edge of the shape onto a
    cluster edge (with equal edge counts, an isomorphism) and the shape's
    3-faces onto the cluster's.  Order: catalog code, then the host
    vertices given to the shape's vertices taken by descending degree, ties
    by vertex id.
    """
    faces = {frozenset(pg.faces[fid].walk) for fid in c.face_ids}
    hosts = sorted(c.vertices)
    out = []
    for code, pat in catalog().items():
        shape = pat.graph
        if (shape.n, shape.m) != (len(hosts), len(c.edges)):
            continue
        tris = [f.walk for f in pat.plane.interior_faces() if f.degree == 3]
        by_degree = sorted(range(shape.n), key=shape.degree, reverse=True)
        images = [
            image for image in itertools.permutations(hosts)
            if all(edge_key(image[a], image[b]) in c.edges
                   for a, b in shape.edges)
            and {frozenset(image[v] for v in t) for t in tris} == faces
        ]
        images.sort(key=lambda image: [image[p] for p in by_degree])
        out += [
            Classification(code, {lbl: image[v]
                                  for lbl, v in pat.labels.items()})
            for image in images
        ]
    return out


def random_plane_graph(
    seed: int,
    target_n: int,
    forbid: Sequence[str] = ("7-cycle", "butterfly"),
    max_tries: int = 400,
) -> PlaneGraph:
    """The generator's loop with every drawn site searched: the same draws,
    and a rejection counts one try whether or not it was seen before."""
    rng = random.Random(seed)
    builder = PlaneBuilder()
    tries = 0
    while builder.n < target_n and tries < max_tries and builder.sites:
        key, start, arity = rng.choice(builder.sites)
        face_id = builder.face_id(key)
        builder.insert_vertex(face_id, start, arity)
        z = builder.n - 1
        seven = "7-cycle" in forbid and find_cycle_of_length(builder, 7, z)
        if seven or ("butterfly" in forbid and contains_butterfly(builder, z)):
            builder.remove_last_vertex()
            tries += 1
            continue
        tries = 0
        builder.split_face(face_id)
    return builder.plane()


def face_walks(rotation: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every face walk, in the order of the faces' smallest darts, each
    walk from the tail of its smallest dart."""
    walks = []
    used: set[tuple[int, int]] = set()
    for dart in sorted((u, v) for v, rot in enumerate(rotation) for u in rot):
        if dart in used:
            continue
        walk = []
        u, v = dart
        while True:
            walk.append(u)
            rot = rotation[v]
            u, v = v, rot[(rot.index(u) + 1) % len(rot)]
            if (u, v) == dart:
                break
        darts = list(zip(walk, walk[1:] + walk[:1]))
        used.update(darts)
        i = darts.index(min(darts))
        walks.append(tuple(walk[i:] + walk[:i]))
    return walks


def outer_face(pg: PlaneGraph, walk: Sequence[int]) -> Optional[int]:
    """Id of the first face whose walk, read from some vertex in either
    direction, is `walk`; None if no face's is."""
    given = list(walk)
    for f in pg.faces:
        for w in (list(f.walk), list(f.walk[::-1])):
            if any(w[i:] + w[:i] == given for i in range(len(w))):
                return f.id
    return None


def flood_cycle_predicates(pg: PlaneGraph, cycle: Sequence[int]) -> dict:
    """{'separating', 'bad', 'good'} of a 3-cycle, by a flood for every
    triangle: the faces the outer face reaches without crossing the cycle
    are outside, the rest inside."""
    cyc_edges = {edge_key(cycle[i], cycle[(i + 1) % 3]) for i in range(3)}
    by_edge: dict[tuple[int, int], list[int]] = {}
    for f in pg.faces:
        for e in f.walk_edges():
            by_edge.setdefault(e, []).append(f.id)
    outside = {pg.outer_face}
    stack = [pg.outer_face]
    while stack:
        for e in pg.faces[stack.pop()].walk_edges():
            if e not in cyc_edges:
                for nf in by_edge[e]:
                    if nf not in outside:
                        outside.add(nf)
                        stack.append(nf)
    inner = [f for f in pg.faces if f.id not in outside]
    interior: set[int] = set()
    exterior: set[int] = set()
    for f in pg.faces:
        (exterior if f.id in outside else interior).update(
            set(f.walk) - set(cycle))
    bad = False
    if len(inner) == 7 and all(f.degree == 3 for f in inner):
        ids = {f.id for f in inner}
        comp = {inner[0].id}
        stack = [inner[0].id]
        while stack:
            for e in pg.faces[stack.pop()].walk_edges():
                for nf in by_edge[e]:
                    if nf in ids and nf not in comp:
                        comp.add(nf)
                        stack.append(nf)
        bad = comp == ids
    return {"separating": bool(interior - exterior) and bool(exterior),
            "bad": bad, "good": not bad}


def flood_separating_good_triangles(pg: PlaneGraph):
    """Every separating good 3-cycle (u < v < w), each one flooded."""
    g = pg.graph
    return [
        tri for tri in itertools.combinations(range(g.n), 3)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(tri, 2))
        and (pred := flood_cycle_predicates(pg, tri))["separating"]
        and pred["good"]
    ]


def components(n: int, edges) -> list[tuple[int, ...]]:
    """The connected components of ({0..n-1}, edges) by union-find, each
    ascending, in the order of their least vertex."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return [tuple(c) for c in comps.values()]


def clusters(pg: PlaneGraph) -> list[Cluster]:
    """The clusters of `pg`, numbered by their least face id.

    Every pair of interior 3-faces that share an edge is listed, and each
    face takes the least label of such a pair until no label changes: the
    labels then name the components of the shared-edge relation.
    """
    tri = [f.id for f in pg.interior_faces() if f.degree == 3]
    edges = {f: set(pg.face_edges[f]) for f in tri}
    touching = [(a, b) for a, b in itertools.combinations(tri, 2)
                if edges[a] & edges[b]]
    label = {f: f for f in tri}
    changed = True
    while changed:
        changed = False
        for a, b in touching:
            if label[a] != label[b]:
                label[a] = label[b] = min(label[a], label[b])
                changed = True
    groups: dict[int, list[int]] = {}
    for f in tri:
        groups.setdefault(label[f], []).append(f)
    return [
        Cluster(i, frozenset(fs),
                frozenset(v for f in fs for v in pg.faces[f].walk),
                frozenset(e for f in fs for e in edges[f]))
        for i, (_, fs) in enumerate(sorted(groups.items()))
    ]


def is_straight(inst: CoverInstance, edge: Sequence[int]) -> bool:
    """Whether the bijection on `edge` is the identity."""
    return inst.sigma[edge_key(*edge)] == identity(inst.k)


def edge_map(inst: CoverInstance, u: int, v: int) -> tuple[int, ...]:
    """Bijection carrying colors of u to the matched colors of v."""
    key = edge_key(u, v)
    if key not in inst.sigma:
        raise CoverError(f"({u},{v}) is not an edge")
    s = inst.sigma[key]
    return s if key == (u, v) else invert(s)


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """outer o inner, both as 1-based image tuples."""
    return tuple(outer[inner[c - 1] - 1] for c in range(1, len(inner) + 1))


def residual(
    inst: CoverInstance, partial: Mapping[int, int], v: int
) -> frozenset[int]:
    """Available colors of v not matched to an assigned neighbor's color."""
    if v in partial:
        raise CoverError(f"vertex {v} is already assigned")
    out = set(inst.available[v])
    for u in inst.graph.adjacency[v]:
        cu = partial.get(u)
        if cu is not None:
            out.discard(edge_map(inst, u, v)[cu - 1])
    return frozenset(out)


def straighten(
    inst: CoverInstance, tree: Iterable[Sequence[int]]
) -> tuple[CoverInstance, tuple[tuple[int, ...], ...]]:
    """Rename colors so that every edge of the forest `tree` is straight.

    Returns the renamed instance and per-vertex renamings pi_v (old -> new
    names).  Transversals correspond bijectively: t'(v) = pi_v(t(v)).
    """
    tree_edges = [edge_key(e[0], e[1]) for e in tree]
    for e in tree_edges:
        if e not in inst.sigma:
            raise CoverError(f"tree edge {e} not in graph")
    forest = Graph.from_edges(inst.graph.n, set(tree_edges))
    if len(forest.components) != inst.graph.n - len(tree_edges):
        raise CoverError("tree contains a cycle")

    pi: list[tuple[int, ...]] = [identity(inst.k)] * inst.graph.n
    for comp in forest.components:
        seen = {comp[0]}
        stack = [comp[0]]
        while stack:
            u = stack.pop()
            for v in forest.adjacency[u]:
                if v in seen:
                    continue
                seen.add(v)
                # want pi_v o sigma_uv o pi_u^-1 = id  =>  pi_v = pi_u o sigma_uv^-1
                pi[v] = compose(pi[u], invert(edge_map(inst, u, v)))
                stack.append(v)

    new_sigma = {}
    for (u, v), s in inst.sigma.items():
        new_sigma[(u, v)] = compose(pi[v], compose(s, invert(pi[u])))
    new_avail = tuple(
        frozenset(pi[v][c - 1] for c in inst.available[v])
        for v in range(inst.graph.n)
    )
    return CoverInstance(inst.graph, inst.k, new_avail, new_sigma), tuple(pi)
