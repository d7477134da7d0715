"""Naive reducibility oracle: every instance, one `local_solve` each.

The oracle uses none of the checker's reductions: no straightened forest,
no decomposition at a cut vertex or pivot, no mask kernel.  An instance is
one floor-sized list per vertex and one maximal injection per edge, and
every one of them is solved on its own.

With canonical=True every vertex gets the list {1..floor} instead of every
floor-sized list.  That loses no instance up to renaming, because the oracle
straightens nothing: renaming the colors at a vertex maps the maximal
injections on its edges onto each other.  It keeps configurations with a
full-floor pivot small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math

from dpcolor.reduce import (
    K, NOT_REDUCIBLE, REDUCIBLE, Configuration, local_solve,
    maximal_injections,
)


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
