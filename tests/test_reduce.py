"""Reducibility checker: strategies, golden verdicts, proof-structure facts."""

import itertools
import json
import random
from unittest import mock

import numpy as np
import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ASSETS, random_cover, random_graph
from dpcolor.cover import (
    CoverInstance, brute_force_transversal, find_transversal,
)
from dpcolor.graphs import Graph
from dpcolor.io import cover_to_dict, parse_cover_file
from dpcolor import cli, reduce
from dpcolor.reduce import (
    INCONCLUSIVE, NOT_REDUCIBLE, REDUCIBLE, Configuration, _adversary_blocks,
    check_reducible, config_catalog,
    extend_to_bijection, maximal_injections, residual_choices, verify_witness,
)

CATALOG = config_catalog()


class TestBuildingBlocks:
    @pytest.mark.parametrize("na,nb,count", [
        (3, 3, 6), (2, 3, 6), (2, 2, 2), (3, 4, 24), (2, 4, 12), (4, 4, 24),
    ])
    def test_maximal_injection_counts(self, na, nb, count):
        a = frozenset(range(1, na + 1))
        b = frozenset(range(1, nb + 1))
        assert len(maximal_injections(a, b)) == count

    def test_injections_are_injective_and_maximal(self):
        a, b = frozenset({1, 2}), frozenset({2, 3, 4})
        for m in maximal_injections(a, b):
            assert len(set(m.values())) == len(m) == 2
            assert set(m) <= a and set(m.values()) <= b

    def test_extend_to_bijection(self):
        full = extend_to_bijection({1: 3, 2: 1})
        assert sorted(full) == [1, 2, 3, 4]
        assert full[0] == 3 and full[1] == 1

    def test_residual_choices_all_canonical_without_tree(self):
        cfg = CATALOG["L4-diamond"]
        choices = list(residual_choices(cfg))
        assert len(choices) == 1
        assert choices[0][cfg.names["x"]] == frozenset({1, 2})

    @pytest.mark.parametrize("label,count", [("L7-555", 8), ("L8-556", 6)])
    def test_residual_choices_vary_tree_non_reps(self, label, count):
        cfg = CATALOG[label]
        choices = list(residual_choices(cfg, skip=(cfg.pivot,)))
        # tree component {u,v,w,x,y}: the designated vertex is canonical,
        # x and y are full (floor 4), and the two others vary over the
        # floor-sized subsets, one choice per orbit of the renamings that
        # keep the designated set
        assert len(choices) == count
        reps = {tuple(sorted(c.items())) for c in choices}
        assert len(reps) == len(choices)


class TestGoldenVerdictsCheap:
    def test_l2(self):
        v = check_reducible(CATALOG["L2"])
        assert v.status == REDUCIBLE

    def test_l4(self):
        v = check_reducible(CATALOG["L4-diamond"])
        assert v.status == REDUCIBLE

    def test_l5(self):
        v = check_reducible(CATALOG["L5-special5"])
        assert v.status == REDUCIBLE

    def test_l6_margin_is_exactly_one(self):
        v = check_reducible(CATALOG["L6-precolor"])
        assert v.status == REDUCIBLE
        # some branch really does lose one color, so the margin is tight
        assert v.stats["worst_bad_colors"] == 1

    def test_budget_exhaustion_is_inconclusive(self):
        v = check_reducible(CATALOG["L4-diamond"], budget=10)
        assert v.status == INCONCLUSIVE
        assert "budget" in v.stats["reason"]

    def test_full_is_the_only_mode(self):
        with pytest.raises(ValueError, match="mode"):
            check_reducible(CATALOG["L2"], mode="sampled")


class TestCounterexampleGadgets:
    @pytest.mark.parametrize("name", ["ce6.json", "ce7.json"])
    def test_frozen_witness_has_no_transversal(self, name):
        inst = parse_cover_file(ASSETS / name)
        assert verify_witness(inst)

    @pytest.mark.parametrize("name", ["ce6.json", "ce7.json"])
    def test_straightened_variant_is_colorable(self, name):
        # the twist is essential: identity matchings admit a transversal
        inst = parse_cover_file(ASSETS / name)
        straight = CoverInstance.straight(
            inst.graph, inst.k, inst.available)
        assert find_transversal(straight) is not None

    def test_ce6_floors_match_configuration(self):
        cfg = CATALOG["CE-6"]
        inst = parse_cover_file(ASSETS / "ce6.json")
        assert tuple(len(a) for a in inst.available) == cfg.floors


class TestGreedyCertificate:
    def test_positive_single_vertex(self):
        assert oracle.check_greedy_certificate(CATALOG["L2"], ["v"])

    def test_positive_with_pivot(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        cfg = Configuration(
            "path-uvw", g, {"u": 0, "v": 1, "w": 2}, (2, 3, 2), (),
            "product")
        assert oracle.check_greedy_certificate(
            cfg, ["w", "u"], pivot=("v", "u", 2))

    def test_negative_bad_order(self):
        # coloring the floor-3 pair first can strand a floor-2 tip
        assert not oracle.check_greedy_certificate(
            CATALOG["L4-diamond"], ["u", "v", "x", "y"])

    def test_order_must_cover_vertices(self):
        with pytest.raises(ValueError):
            oracle.check_greedy_certificate(CATALOG["L4-diamond"], ["u", "v"])


def _swap12(m):
    tau = {1: 2, 2: 1, 3: 3, 4: 4}
    return {tau[c]: tau[i] for c, i in m.items()}


class TestSevenClusterBlockingPatterns:
    """Structure of matchings that survive the local coloring exits.

    For the 7-face cluster with straight tree uv, vw, vy, yx, residuals
    u,w = {1,2,3}, v = {1,2}, x,y full, classify the maps on the edges uw,
    ux, wx.  A combination is 'escaped' when one of the direct coloring
    exits applies; every non-escaped combination must, after renaming colors
    1 and 2, pin the x-edges to one of exactly two patterns:

      (b)  ux: 2->1, 1->2   and  wx: 2->1, 1->2
      (c)  ux: 2->1, 3->2   and  wx: 2->1, 3->2
    """

    def _classify(self, m_uw, m_ux, m_wx):
        if m_uw[3] != 3:
            return "escape"  # the spare colors of u and w are compatible
        if any(m_ux[i] == i or m_wx[i] == i for i in (1, 2)):
            return "escape"  # (x,i) selectable together with (v,i)
        for m in (m_ux, m_wx):
            for i in (1, 2):
                if i not in m.values():
                    return "escape"  # (x,i) unconstrained on that side
        if m_ux[2] != 1:
            if m_ux[1] != 2:
                return "violation"
            m_uw, m_ux, m_wx = _swap12(m_uw), _swap12(m_ux), _swap12(m_wx)
        if m_ux[1] == 2:  # second x-color pinned by u's low colors
            if m_wx[3] in (1, 2):
                return "escape"
            if m_wx[2] == 1 and m_wx[1] == 2:
                return "b"
            return "violation"
        if m_ux[3] == 2:  # second x-color pinned by u's spare color
            if m_wx[3] == 1 or m_wx[1] == 2:
                return "escape"
            if m_wx[2] == 1 and m_wx[3] == 2:
                return "c"
            return "violation"
        return "violation"

    def test_survivors_match_two_patterns(self):
        uvw = frozenset({1, 2, 3})
        full = frozenset({1, 2, 3, 4})
        seen = {"b": 0, "c": 0, "escape": 0}
        for m_uw in maximal_injections(uvw, uvw):
            for m_ux in maximal_injections(uvw, full):
                for m_wx in maximal_injections(uvw, full):
                    kind = self._classify(m_uw, m_ux, m_wx)
                    assert kind != "violation", (m_uw, m_ux, m_wx)
                    seen[kind] += 1
        # both blocking patterns are realizable, so neither case is vacuous
        assert seen["b"] > 0 and seen["c"] > 0


class TestWitnessContract:
    def test_not_reducible_verdicts_ship_verified_witnesses(self):
        v = check_reducible(CATALOG["CE-6"])
        assert v.status == NOT_REDUCIBLE
        assert v.witness is not None
        assert verify_witness(v.witness)

    @pytest.mark.parametrize("name", ["ce6.json", "ce7.json"])
    def test_verify_agrees_with_brute_force_on_gadgets(self, name):
        w = parse_cover_file(ASSETS / name)
        assert verify_witness(w)
        assert brute_force_transversal(w) is None

    def test_verify_agrees_with_brute_force_on_random_covers(self):
        confirmed = 0
        for seed in range(300):
            rng = random.Random(seed)
            g = random_graph(rng, rng.randint(1, 6), 0.6)
            w = random_cover(rng, g, rng.randint(2, 4))
            assert verify_witness(w) == (brute_force_transversal(w) is None)
            confirmed += verify_witness(w)
        assert 0 < confirmed < 300  # both outcomes are exercised

    def test_expectations_recorded(self):
        assert CATALOG["CE-6"].expect == NOT_REDUCIBLE
        assert CATALOG["L8-556"].expect == REDUCIBLE

    def test_every_not_reducible_witness_is_verified(self, monkeypatch):
        # one edge between single-color lists: no instance has a transversal
        cfg = Configuration("clash", Graph.from_edges(2, [(0, 1)]),
                            {"a": 0, "b": 1}, (1, 1), (), "product")
        monkeypatch.setattr(reduce, "verify_witness", lambda w: False)
        with pytest.raises(AssertionError, match="admits a transversal"):
            check_reducible(cfg)


@st.composite
def pivot_profiles(draw, max_size=2):
    """Residuals of size 1..max_size at four pivot neighbors and live
    profiles."""
    residuals = draw(st.lists(
        st.frozensets(st.integers(1, 4), min_size=1, max_size=max_size),
        min_size=4, max_size=4))
    grid = list(itertools.product(*map(sorted, residuals)))
    profiles = draw(st.lists(st.sampled_from(grid), min_size=1,
                             max_size=len(grid), unique=True))
    return profiles, residuals


def _blocks(maps, profiles) -> bool:
    return all(len({f[c] for f, c in zip(maps, p)}) == 4 for p in profiles)


class TestAdversary:
    """The eliminate adversary against brute force over all pivot maps."""

    @given(pivot_profiles())
    @settings(max_examples=60, deadline=None)
    def test_blocks_exactly_when_brute_force_does(self, case):
        profiles, residuals = case
        options = [
            [dict(zip(sorted(r), images))
             for images in itertools.permutations(range(1, 5), len(r))]
            for r in residuals]  # at most 12 injective maps per neighbor
        exists = any(_blocks(maps, profiles)
                     for maps in itertools.product(*options))
        found = _adversary_blocks(profiles, residuals)
        assert (found is not None) == exists
        if found is not None:
            assert [set(f) for f in found] == [set(r) for r in residuals]
            assert all(len(set(f.values())) == len(f) for f in found)
            assert all(set(f.values()) <= {1, 2, 3, 4} for f in found)
            assert _blocks(found, profiles)

    @given(pivot_profiles(max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_same_maps_as_reference_search(self, case):
        profiles, residuals = case
        found = _adversary_blocks(profiles, residuals)
        with mock.patch.object(reduce, "_search", oracle.search):
            assert found == _adversary_blocks(profiles, residuals)


# ---------------------------------------------------------------------------
# the mask kernel against the naive oracle, counters and budget

ORACLE_LIMIT = 20000  # instances the oracle solves per example
# for tests that check the kernel's order, not its verdict: configurations
# this large (in the oracle's count) still fail or finish within seconds
ORDER_LIMIT = 2_000_000


def _grow_edges(draw, floors, required, optional, canonical,
                limit=ORACLE_LIMIT, forested=False):
    """The required edges, then each optional one that a coin admits and
    that keeps the oracle within `limit` instances.  With `forested` the
    first optional edge that keeps it within `limit` needs no coin."""
    edges = list(required)
    assume(oracle.instance_count(floors, edges, canonical) <= limit)
    for e in draw(st.permutations(optional)):
        free = forested and len(edges) == len(required)
        if (free or draw(st.booleans())) and oracle.instance_count(
                floors, edges + [e], canonical) <= limit:
            edges.append(e)
    # rare: no optional edge keeps the oracle within `limit`
    assume(not forested or len(edges) > len(required))
    return sorted(edges)


def _draw_forest(draw, edges, forested=False):
    """A forest of `edges`, each edge that joins two trees taken by a coin.
    With `forested` the first such edge needs no coin, so the forest is
    empty only if `edges` is."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    tree = []
    for u, v in edges:
        if find(u) != find(v) and (forested and not tree
                                   or draw(st.booleans())):
            parent[find(u)] = find(v)
            tree.append((u, v))
    return tuple(tree)


def _config(n, edges, floors, tree, strategy, **roles):
    return Configuration(
        f"random-{strategy}", Graph.from_edges(n, edges),
        {str(v): v for v in range(n)}, tuple(floors), tree, strategy,
        **roles)


# Each strategy draws (configuration, canonical): canonical oracle runs fix
# every list, which leaves room for more edges within ORACLE_LIMIT.

@st.composite
def product_configs(draw, forested=False):
    canonical = draw(st.booleans())
    n = draw(st.integers(2 if forested else 1, 5))
    floors = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    edges = _grow_edges(draw, floors, [],
                        list(itertools.combinations(range(n), 2)), canonical,
                        forested=forested)
    cfg = _config(n, edges, floors, _draw_forest(draw, edges, forested),
                  "product")
    return cfg, canonical


@st.composite
def margin_configs(draw, forested=False):
    canonical = draw(st.booleans())
    n = draw(st.integers(2, 5))
    floors = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    v = draw(st.integers(0, n - 1))
    floors[v] = draw(st.integers(2, 4))
    edges = _grow_edges(draw, floors, [],
                        list(itertools.combinations(range(n), 2)), canonical,
                        forested=forested)
    cfg = _config(n, edges, floors, _draw_forest(draw, edges, forested),
                  "margin", margin_vertex=v)
    return cfg, canonical


@st.composite
def condition_configs(draw):
    # cut vertex 0; sides {1..a} and {a+1..n-1}, each a path
    canonical = draw(st.booleans())
    a = draw(st.integers(1, 2))
    n = a + 1 + draw(st.integers(1, 2))
    sides = [list(range(1, a + 1)), list(range(a + 1, n))]
    floors = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    floors[0] = draw(st.integers(1, 4))
    paths = [(s[i], s[i + 1]) for s in sides for i in range(len(s) - 1)]
    spokes = [(0, w) for s in sides for w in s]
    edges = _grow_edges(
        draw, floors, paths + [(0, s[0]) for s in sides],
        [e for e in spokes if e[1] not in (sides[0][0], sides[1][0])],
        canonical)
    return _config(n, edges, floors, (), "condition", cut=0), canonical


@st.composite
def eliminate_configs(draw, limit=ORACLE_LIMIT, forested=False):
    # pivot 4, its four neighbors 0..3 and maybe vertex 5 off the pivot's
    # neighborhood, so that edges between two neighbors (late in the kernel)
    # and edges to vertex 5 (early) sort in either order; with every list
    # free, the pivot edges alone would pass ORACLE_LIMIT
    n = draw(st.integers(5, 6))
    floors = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4)) + [4]
    floors += draw(st.lists(st.integers(1, 3), min_size=n - 5,
                            max_size=n - 5))
    edges = _grow_edges(
        draw, floors, [(v, 4) for v in range(4)],
        [e for e in itertools.combinations(range(n), 2) if 4 not in e], True,
        limit, forested)
    tree = _draw_forest(draw, [e for e in edges if 4 not in e], forested)
    return _config(n, edges, floors, tree, "eliminate", pivot=4), True


def _agrees_with_oracle(case):
    cfg, canonical = case
    v = check_reducible(cfg)
    status, worst = oracle.verdict(cfg, canonical)
    assert v.status == status, v.stats
    if cfg.strategy == "margin" and status == REDUCIBLE:
        assert v.stats["worst_bad_colors"] == worst
    if v.status == NOT_REDUCIBLE:
        assert verify_witness(v.witness)
        sizes = list(map(len, v.witness.available))
        if cfg.strategy == "margin":
            # a margin witness keeps only the bad precolors
            sizes[cfg.margin_vertex] = cfg.floors[cfg.margin_vertex]
            assert len(v.stats["bad_colors"]) > 1
        assert tuple(sizes) == cfg.floors


class TestOracleAgreement:
    @given(product_configs())
    @settings(max_examples=60, deadline=None)
    def test_product(self, case):
        _agrees_with_oracle(case)

    @given(margin_configs())
    @settings(max_examples=40, deadline=None)
    def test_margin(self, case):
        _agrees_with_oracle(case)

    @given(condition_configs())
    @settings(max_examples=40, deadline=None)
    def test_condition(self, case):
        _agrees_with_oracle(case)

    @given(eliminate_configs())
    @settings(max_examples=40, deadline=None)
    def test_eliminate(self, case):
        _agrees_with_oracle(case)


ENUMERATED = {
    "L2": 1, "L4-diamond": 7776, "L5-special5": 15552,
    "L6-precolor": 124416, "L7-555": 13824, "L8-556": 497664,
    "CE-6": 4, "CE-7": 1729,
}
BLOCKS = {
    "L2": 1, "L4-diamond": 1, "L5-special5": 2, "L6-precolor": 36,
    "L7-555": 8, "L8-556": 36, "CE-6": 1, "CE-7": 1,
}
# product (L4-diamond) has its budget test above
OTHER_STRATEGIES = ["L5-special5", "L6-precolor", "L7-555"]


class TestKernelCounters:
    @pytest.mark.parametrize("label", sorted(ENUMERATED))
    def test_enumerated_is_pinned(self, label):
        v = check_reducible(CATALOG[label])
        assert v.status == CATALOG[label].expect
        assert v.stats["enumerated"] == ENUMERATED[label]
        # L7-555 and L8-556: one block per option of the walked edge per
        # orbit-first residual choice (8 = 8 x 1 and 36 = 6 x 6); the tail
        # takes every early edge of L4-diamond, and of each L5-special5 side
        assert v.stats["blocks"] == BLOCKS[label]

    @pytest.mark.parametrize("label", sorted(ENUMERATED))
    def test_rows_built(self, label):
        v = check_reducible(CATALOG[label])
        if CATALOG[label].strategy != "eliminate":
            # one all-true late row: every instance gets its row
            assert v.stats["rows_built"] == v.stats["enumerated"]
        elif label in ("L7-555", "L8-556"):
            # the line test rejects every instance on the factors
            assert v.stats["rows_built"] == 0
        else:
            assert v.stats["rows_built"] > 0  # the failing instance's row

    @pytest.mark.parametrize("label,name", [("CE-6", "ce6.json"),
                                            ("CE-7", "ce7.json")])
    def test_witness_equals_frozen_asset(self, label, name, tmp_path,
                                         capsys):
        v = check_reducible(CATALOG[label])
        frozen = parse_cover_file(ASSETS / name)
        assert cover_to_dict(v.witness) == cover_to_dict(frozen)
        # the CLI is how the shipped assets are regenerated
        saved = tmp_path / name
        assert cli.main(["reduce-check", "--lemma", label,
                         "--save-witness", str(saved)]) == 0
        assert json.loads(capsys.readouterr().out)["witness_file"] == \
            str(saved)
        assert saved.read_bytes() == (ASSETS / name).read_bytes()

    @pytest.mark.parametrize("label", OTHER_STRATEGIES + ["L8-556"])
    def test_budget_stops_the_enumeration(self, label):
        budget = ENUMERATED[label] // 3
        v = check_reducible(CATALOG[label], budget=budget)
        assert v.status == INCONCLUSIVE
        assert v.stats["reason"] == "budget exhausted"
        assert v.stats["enumerated"] == budget

    @pytest.mark.parametrize("label", OTHER_STRATEGIES)
    def test_budget_at_the_total_is_enough(self, label):
        v = check_reducible(CATALOG[label], budget=ENUMERATED[label])
        assert v.status == REDUCIBLE
        assert v.stats["enumerated"] == ENUMERATED[label]

    @pytest.mark.parametrize("budget", [1, 7776, 7777, 15551])
    def test_condition_sides_share_one_budget(self, budget):
        # L5-special5's two sides hold 7,776 instances each and count on
        # one run: the budgets end inside the first side, at its end, just
        # inside the second side and one short of the whole
        v = check_reducible(CATALOG["L5-special5"], budget=budget)
        assert v.status == INCONCLUSIVE
        assert v.stats["enumerated"] == budget
        assert v.stats["rows_built"] == budget

    def test_condition_builds_maps_once_per_family_member(self, monkeypatch):
        # a blocked cut-color set gets the edge maps of its first instance
        # only: one maps() call per member of the two sides' families
        calls = []
        maps = reduce._Leaf.maps
        monkeypatch.setattr(reduce._Leaf, "maps",
                            lambda leaf, j: calls.append(j) or maps(leaf, j))
        v = check_reducible(CATALOG["L5-special5"])
        assert v.status == REDUCIBLE
        assert len(calls) == sum(map(len, v.stats["families"])) == 8

    def test_late_lines_once_per_check(self, monkeypatch):
        # L8-556's 36 blocks walk and head only early edges, and its late
        # factor depends on the floors alone, so all 36 blocks of its six
        # residual choices share one, and its line hits along the one
        # tested axis are built once
        late = []
        line_hits = reduce._line_hits
        monkeypatch.setattr(
            reduce, "_line_hits", lambda rows, shape, axis, need:
            (need == 1 and late.append(axis)) or
            line_hits(rows, shape, axis, need))
        v = check_reducible(CATALOG["L8-556"])
        assert v.status == REDUCIBLE and v.stats["blocks"] == 36
        assert v.stats["rows_built"] == 0  # no unfactored line test runs
        assert len(late) == 1

    @pytest.mark.parametrize("strategy", ["product", "margin"])
    def test_budget_stops_before_the_failing_instance(self, strategy):
        # a star whose center (floor 2) meets leaves of floors 1, 1 and 3:
        # the 7th of its 24 instances fails, inside its only block
        roles = {"margin_vertex": 0} if strategy == "margin" else {}
        cfg = _config(4, [(0, 1), (0, 2), (0, 3)], (2, 1, 1, 3), (),
                      strategy, **roles)
        whole = check_reducible(cfg)
        assert whole.status == NOT_REDUCIBLE
        assert whole.stats["enumerated"] == 7
        v = check_reducible(cfg, budget=6)
        assert v.status == INCONCLUSIVE
        assert v.stats["enumerated"] == v.stats["rows_built"] == 6


def _outcome(v):
    """A verdict without its time, its block count and its built rows,
    which the cap sets (the line test on the factors covers the axes of
    the late edges that a block walks rather than vectorizes)."""
    stats = {k: x for k, x in v.stats.items()
             if k not in ("seconds", "blocks", "rows_built")}
    return v.status, stats, v.witness and cover_to_dict(v.witness)


class TestBlockCap:
    """Verdicts, counts and witnesses do not depend on how full the kernel
    fills its blocks."""

    LABELS = sorted(set(ENUMERATED) - {"L8-556"})

    @pytest.mark.parametrize("cap", [1, 300])
    def test_same_verdicts(self, cap, monkeypatch):
        default = {label: check_reducible(CATALOG[label])
                   for label in self.LABELS}
        monkeypatch.setattr(reduce, "_BLOCK_CELLS", cap)
        more_blocks = False
        for label in self.LABELS:
            v = check_reducible(CATALOG[label])
            assert _outcome(v) == _outcome(default[label]), label
            more_blocks |= v.stats["blocks"] > default[label].stats["blocks"]
        assert more_blocks  # the smaller cap really cuts smaller blocks

    @given(eliminate_configs(ORDER_LIMIT), st.sampled_from([1, 300]))
    @settings(max_examples=40, deadline=None)
    def test_random_eliminate_configs(self, case, cap):
        cfg, _ = case
        default = check_reducible(cfg)
        with mock.patch.object(reduce, "_BLOCK_CELLS", cap):
            assert _outcome(check_reducible(cfg)) == _outcome(default)

    @given(eliminate_configs(ORDER_LIMIT), st.sampled_from([1, 300, None]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget_ends_inside_a_block(self, case, cap, data):
        cfg, _ = case
        whole = check_reducible(cfg)
        total = whole.stats["enumerated"]
        budget = data.draw(st.integers(0, total - 1))
        with mock.patch.object(reduce, "_BLOCK_CELLS",
                               cap or reduce._BLOCK_CELLS):
            v = check_reducible(cfg, budget=budget)
            assert v.status == INCONCLUSIVE
            assert v.stats["enumerated"] == budget
            # a budget that ends at the last instance (a failing one, if
            # the verdict is NOT_REDUCIBLE) changes nothing
            assert _outcome(check_reducible(cfg, budget=total)) == \
                _outcome(whole)

    @pytest.mark.parametrize("configs", [product_configs, margin_configs,
                                         condition_configs],
                             ids=["product", "margin", "condition"])
    @given(cap=st.sampled_from([1, 300, None]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget_ends_inside_an_unfactored_block(self, configs, cap, data):
        # these blocks have no late edge: a block cut short by the budget
        # builds, and reduces, only the rows of its counted instances; one
        # short of the total stops just before a failing last instance
        cfg, _ = data.draw(configs())
        whole = check_reducible(cfg)
        total = whole.stats["enumerated"]
        with mock.patch.object(reduce, "_BLOCK_CELLS",
                               cap or reduce._BLOCK_CELLS):
            for budget in (data.draw(st.integers(0, total - 1)), total - 1):
                v = check_reducible(cfg, budget=budget)
                assert v.status == INCONCLUSIVE
                assert v.stats["enumerated"] == budget
                assert v.stats["rows_built"] == budget
            assert _outcome(check_reducible(cfg, budget=total)) == \
                _outcome(whole)

    @pytest.mark.parametrize("budget", [1728, 1729, 1000, 3456 * 5 + 1000,
                                        13824 + 1, 13824 * 2 - 1,
                                        13824 * 7 + 5000])
    def test_budget_ends_inside_a_factored_catalog_block(self, budget):
        # CE-7's only block vectorizes its late edge (2, 3); its failing
        # instance is the 1729th.  L8-556's blocks hold 13,824 instances
        # (all 24 options of each of its three vectorized edges); the first
        # four budgets end inside the 3,456-instance blocks of an earlier
        # sizing rule.
        for label in ("CE-7", "L8-556"):
            v = check_reducible(CATALOG[label], budget=budget)
            if label == "CE-7" and budget >= ENUMERATED[label]:
                assert _outcome(v) == _outcome(check_reducible(CATALOG[label]))
            else:
                assert v.status == INCONCLUSIVE
                assert v.stats["enumerated"] == budget


class TestBlockMemory:
    """No array that a kernel block builds passes _BLOCK_CELLS bytes: the
    tails and the late cube, the float32 operands and product of the early
    factor, the factors, the line test's pair matrices, and the rows and
    instance numbers of every table slice.  A block holds at least one
    instance, so no cap below one float32 column over the candidate grid
    (4 bytes a cell) can hold."""

    @staticmethod
    def _largest(cfg, cap):
        sizes = []
        and_each, any_and, matmul, leaf, line_test = (
            reduce._and_each, reduce._any_and, np.matmul, reduce._Run._leaf,
            reduce._factored_line_test)
        table = reduce._Leaf.table

        def cube(a, b):
            out = and_each(a, b)
            sizes.append(out.nbytes)
            return out

        def early(a, b):
            out = any_and(a, b)
            sizes.append(out.nbytes)
            return out

        def product(a, b):  # the float32 operands and product
            out = matmul(a, b)
            sizes.extend((a.nbytes, b.nbytes, out.nbytes))
            return out

        def factors(self, *args):
            out = leaf(self, *args)
            sizes.extend((out.early.nbytes, out.late.nbytes))
            return out

        def pairs(early, late, *args):
            keep = line_test(early, late, *args)
            # per axis, the [early, late] pair matrix (8 bytes a pair, as
            # much as the block's int64 instance numbers), then keep
            sizes.extend((keep.size * np.dtype(np.uint64).itemsize,
                          keep.nbytes))
            return keep

        def rows(self, keep=None):
            for j, alive in table(self, keep):
                sizes.extend((j.nbytes, alive.nbytes))
                yield j, alive

        with mock.patch.object(reduce, "_BLOCK_CELLS", cap), \
                mock.patch.object(reduce, "_and_each", cube), \
                mock.patch.object(reduce, "_any_and", early), \
                mock.patch.object(np, "matmul", product), \
                mock.patch.object(reduce._Run, "_leaf", factors), \
                mock.patch.object(reduce, "_factored_line_test", pairs), \
                mock.patch.object(reduce._Leaf, "table", rows):
            v = check_reducible(cfg)
        return v, max(sizes)

    @pytest.mark.parametrize("label", sorted(ENUMERATED))
    def test_catalog_blocks_stay_within_the_cap(self, label):
        v, largest = self._largest(CATALOG[label], reduce._BLOCK_CELLS)
        assert v.status == CATALOG[label].expect
        assert largest <= reduce._BLOCK_CELLS

    @given(eliminate_configs(ORDER_LIMIT), st.sampled_from([300, None]))
    @settings(max_examples=40, deadline=None)
    def test_random_eliminate_blocks_stay_within_the_cap(self, case, cap):
        cfg, _ = case
        cap = cap or reduce._BLOCK_CELLS
        v, largest = self._largest(cfg, cap)
        assert _outcome(v) == _outcome(check_reducible(cfg))
        # every list but the pivot's has its floor's size
        cells = np.prod([f for x, f in enumerate(cfg.floors)
                         if x != cfg.pivot])
        assert largest <= max(cap, 4 * cells)

    # pivot 4; for each array that sizes a block, a grid and a cap under
    # which that array is the one that stops the block from growing (a
    # sizing rule without its term overruns the cap there)
    @pytest.mark.parametrize("floors,edges,cap", [
        ((3, 1, 2, 3, 4, 3), [(0, 3), (1, 2), (1, 3), (2, 3), (3, 5)], 300),
        ((1, 3, 3, 1, 4, 2),
         [(0, 5), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5)], 500),
        ((2, 3, 1, 3, 4, 2), [(0, 1), (0, 5), (1, 2), (1, 3), (2, 3)], 300),
        ((2, 3, 1, 1, 4, 3), [(0, 1), (1, 5), (3, 5)], 500),
    ], ids=["float32 operands", "float32 product", "late cube",
            "pair matrices"])
    def test_each_array_can_size_a_block(self, floors, edges, cap):
        cfg = _config(6, sorted(edges + [(v, 4) for v in range(4)]), floors,
                      (), "eliminate", pivot=4)
        v, largest = self._largest(cfg, cap)
        assert _outcome(v) == _outcome(check_reducible(cfg))
        assert largest <= cap

    @pytest.mark.parametrize("cap", [5000, None])
    def test_table_slices_are_the_rows_in_order(self, cap):
        # an L8-556 block with every instance kept, and with a random
        # third of them: the slices hold the kept instances' rows, in
        # instance order, each within the cap
        cfg = CATALOG["L8-556"]
        z = cfg.pivot
        nbrs = sorted(cfg.graph.adjacency[z])
        rest = [v for v in range(cfg.graph.n) if v != z and v not in nbrs]
        cap = cap or reduce._BLOCK_CELLS
        rng = np.random.default_rng(3)
        with mock.patch.object(reduce, "_BLOCK_CELLS", cap):
            leaf = next(reduce._Run(None).leaves(
                residual_choices(cfg, skip=(z,)), nbrs, rest, cfg.tree,
                reduce._free_edges(cfg, exclude_vertex=z)))
            # the whole table by broadcasting each factor over its own
            # edges' axes, and keep[e, l] moved to the instance order
            digits = [len(opts) for _, opts, _ in leaf.inner]
            spans = [[n if late == side else 1
                      for n, (_, _, late) in zip(digits, leaf.inner)]
                     for side in (0, 1)]
            whole = (leaf.early.T.reshape(-1, *spans[0])
                     & leaf.late.T.reshape(-1, *spans[1])).reshape(
                len(leaf.early.T), -1).T
            by_side = sorted(range(len(digits)),
                             key=lambda a: leaf.inner[a][2])
            for keep in (np.ones((len(leaf.early), len(leaf.late)), bool),
                         rng.random((len(leaf.early), len(leaf.late))) < .3):
                slices = list(leaf.table(keep))
                assert all(a.nbytes <= cap for _, a in slices)
                if keep.all():  # 13,824 rows of 96 cells: more than 1 MiB
                    assert len(slices) > 1
                at = np.concatenate([j for j, _ in slices])
                kept = keep.reshape([digits[a] for a in by_side]).transpose(
                    np.argsort(by_side))
                assert at.tolist() == np.flatnonzero(kept).tolist()
                assert np.array_equal(np.concatenate([a for _, a in slices]),
                                      whole[at])

    def test_any_and_against_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            groups, cells, h, t = rng.integers(1, 7, size=4)
            a = rng.random((groups, cells, h)) < .4
            b = rng.random((groups, cells, t)) < .4
            want = [[any(a[q, c, i] and b[q, c, k] for c in range(cells))
                     for i in range(h) for k in range(t)]
                    for q in range(groups)]
            assert reduce._any_and(a, b).tolist() == want


class TestFirstRows:
    """The sort-based distinct-row pass keeps the rows that np.unique over
    the packed rows keeps (tests/oracle.py)."""

    @pytest.mark.parametrize("shape,fill", [
        ((0, 5), False), ((1, 7), True), ((6, 9), True), ((6, 9), False),
        ((3, 0), False), ((0, 0), False)])
    def test_edge_cases(self, shape, fill):
        table = np.full(shape, fill, dtype=bool)
        assert reduce._first_rows(table).tolist() == \
            oracle.first_rows(table)

    def test_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            rows, width = rng.integers(0, 40), rng.integers(1, 20)
            # few distinct rows, so that most of them repeat
            pool = rng.random((rng.integers(1, 6), width)) < 0.5
            table = pool[rng.integers(0, len(pool), rows)]
            assert reduce._first_rows(table).tolist() == \
                oracle.first_rows(table)


def _profile_rows(draw, shape, count):
    """A [row, profile] table of `count` rows over the grid `shape`.

    Some rows are subsets of a code with no two profiles one coordinate
    apart (coordinate sums fixed modulo the largest axis), so that rows
    which pass every axis, and rows with more than 24 such profiles, occur.
    """
    grid = list(itertools.product(*map(range, shape)))
    table = []
    for _ in range(count):
        if draw(st.booleans()):
            r = draw(st.integers(0, max(shape) - 1))
            code = [i for i, p in enumerate(grid) if sum(p) % max(shape) == r]
            live = draw(st.sets(st.sampled_from(code))) if draw(
                st.booleans()) else set(code)
        else:
            live = draw(st.sets(st.integers(0, len(grid) - 1), max_size=30))
        table.append([i in live for i in range(len(grid))])
    return np.array(table, dtype=bool).reshape(len(table), len(grid))


@st.composite
def profile_tables(draw):
    """A [row, profile] table over a grid of four axes of sizes 1..4."""
    shape = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4))
    return _profile_rows(draw, shape, draw(st.integers(0, 6))), shape


@st.composite
def factor_tables(draw):
    """Early and late [row, profile] factors over a grid of four axes of
    sizes 1..4, and the axes that the late rows vary along (they are
    constant along the others)."""
    shape = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4))
    touched = draw(st.sets(st.integers(0, 3)))
    early = _profile_rows(draw, shape, draw(st.integers(0, 5)))
    seen = [n if a in touched else 1 for a, n in enumerate(shape)]
    late = _profile_rows(draw, seen, draw(st.integers(0, 4)))
    if draw(st.booleans()):
        late = ~late  # dense late rows, as a single late edge gives
    late = np.broadcast_to(late.reshape(len(late), *seen),
                           (len(late), *shape)).reshape(len(late),
                                                        early.shape[1])
    return early, late, shape, touched


class TestLineTest:
    @given(profile_tables())
    @settings(max_examples=200, deadline=None)
    def test_same_rows_as_pairwise_reference(self, case):
        alive, shape = case
        rows = reduce._line_test(alive, shape)
        assert rows.tolist() == oracle.line_test_rows(alive, shape)

    @given(factor_tables())
    @settings(max_examples=200, deadline=None)
    def test_factored_stage_same_rows_as_pairwise_reference(self, case):
        early, late, shape, touched = case
        keep = reduce._factored_line_test(
            early, late, shape, [a for a in range(4) if a not in touched])
        pairs = list(itertools.product(range(len(early)), range(len(late))))
        product = np.array([early[e] & late[l] for e, l in pairs],
                           dtype=bool).reshape(len(pairs), early.shape[1])
        kept = [i for i, (e, l) in enumerate(pairs) if keep[e, l]]
        rows = reduce._line_test(product[kept], shape)
        assert [kept[r] for r in rows] == \
            oracle.line_test_rows(product, shape)

    def test_layout_does_not_change_the_rows(self):
        rng = np.random.default_rng(5)
        alive = rng.random((50, 36)) < 0.1
        rows = reduce._line_test(alive, [3, 3, 2, 2])
        assert rows.tolist() == reduce._line_test(
            np.asfortranarray(alive), [3, 3, 2, 2]).tolist()
        assert rows.tolist() == oracle.line_test_rows(alive, [3, 3, 2, 2])
        # late rows constant along the tested axes 0 and 1
        late = np.broadcast_to((rng.random((4, 1, 1, 2, 2)) < 0.7),
                               (4, 3, 3, 2, 2)).reshape(4, 36)
        keep = [reduce._factored_line_test(e, l, [3, 3, 2, 2], [0, 1])
                for e, l in ((alive, late), (np.asfortranarray(alive),
                                             np.asfortranarray(late)))]
        assert np.array_equal(*keep)
        assert keep[0].any() and not keep[0].all()

    def test_count_bound_is_24(self):
        # coordinate sums 0 mod 4: 64 profiles, no two one coordinate apart
        shape = [4, 4, 4, 4]
        code = [sum(p) % 4 == 0 for p in itertools.product(range(4), repeat=4)]
        live = np.flatnonzero(code)
        alive = np.zeros((3, len(code)), dtype=bool)
        for row, count in zip(alive, (24, 25, 64)):
            row[live[:count]] = True
        assert reduce._line_test(alive, shape).tolist() == [0]
        assert oracle.line_test_rows(alive, shape) == [0]


class TestEliminateOrder:
    """The factored kernel stops at the same instance, with the same
    witness, as the enumeration in the documented order by itertools."""

    @given(eliminate_configs(ORDER_LIMIT), st.sampled_from([1, 300, None]))
    @settings(max_examples=100, deadline=None)
    def test_first_failure_matches_oracle(self, case, cap):
        # small caps walk the late edges that the default cap vectorizes
        cfg, _ = case
        with mock.patch.object(reduce, "_BLOCK_CELLS",
                               cap or reduce._BLOCK_CELLS):
            v = check_reducible(cfg)
        if v.status == REDUCIBLE:
            assume(v.stats["enumerated"] <= 2000)
            assert oracle.first_failure(cfg) is None
            return
        count, residuals, maps = oracle.first_failure(cfg)
        assert v.stats["enumerated"] == count
        assert cover_to_dict(v.witness) == \
            cover_to_dict(reduce.build_witness(cfg, residuals, maps))

    def test_ce7_late_edge_sorts_before_early_ones(self):
        # CE-7 sorts the edge between the pivot's neighbors w and x (12
        # options) before u's edges to x and y (24 each)
        cfg = CATALOG["CE-7"]
        v = check_reducible(cfg)
        count, residuals, maps = oracle.first_failure(cfg)
        assert v.stats["enumerated"] == count == ENUMERATED["CE-7"]
        assert cover_to_dict(v.witness) == \
            cover_to_dict(reduce.build_witness(cfg, residuals, maps))

    def test_adversary_saves_rows_before_the_failure(self):
        # the pivot maps cannot block the first four rows that pass the
        # line test; the fifth row's instance is the first failure
        edges = [(0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 5), (1, 6),
                 (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
        cfg = Configuration("saved-rows", Graph.from_edges(7, edges), {},
                            (2, 2, 3, 4, 1, 3, 4), (), "eliminate", pivot=6)
        blocked = []

        def adversary(profiles, residuals):
            found = _adversary_blocks(profiles, residuals)
            blocked.append(found is not None)
            return found

        with mock.patch.object(reduce, "_adversary_blocks", adversary):
            v = check_reducible(cfg)
        assert v.status == NOT_REDUCIBLE
        assert (v.stats["enumerated"], v.stats["blocks"],
                v.stats["rows_built"]) == (210, 1, 972)
        assert blocked == [False] * 4 + [True]
        count, residuals, maps = oracle.first_failure(cfg)
        assert count == 210
        assert cover_to_dict(v.witness) == \
            cover_to_dict(reduce.build_witness(cfg, residuals, maps))


class TestKernelSize:
    """Neither numpy's axis limits nor Python's recursion limit caps the
    number of vertices, walked edges or vectorized edges."""

    @pytest.mark.parametrize("n", [33, 64, 65, 200, 1200])
    def test_floor_one_path(self, n):
        # one residual color per vertex: one instance, and its one
        # candidate coloring is improper on every edge of the path
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        cfg = Configuration(f"path-{n}", path, {}, (1,) * n, (), "product",
                            expect=NOT_REDUCIBLE)
        v = check_reducible(cfg)
        assert v.status == NOT_REDUCIBLE
        assert v.stats["enumerated"] == 1

    def test_eliminate_block_of_70_edges(self):
        # a floor-4 pivot with four floor-2 neighbors and a 70-vertex
        # floor-1 path off one of them: the one block vectorizes 70 edges,
        # more than numpy's 64 axes, and its one instance fails
        n = 75
        edges = [(0, v) for v in range(1, 5)] + [(1, 5)] + \
            [(i, i + 1) for i in range(5, n - 1)]
        cfg = Configuration("eliminate-path-70", Graph.from_edges(n, edges),
                            {}, (4,) + (2,) * 4 + (1,) * 70, (), "eliminate",
                            pivot=0, expect=NOT_REDUCIBLE)
        v = check_reducible(cfg)
        assert v.status == NOT_REDUCIBLE
        assert v.stats["enumerated"] == v.stats["blocks"] == 1


# the counts of the enumeration that checks every residual choice, not only
# the first of each orbit
UNREDUCED = {"L7-555": 41472, "L8-556": 1327104}
FORESTED = pytest.mark.parametrize(
    "configs", [product_configs, margin_configs, eliminate_configs],
    ids=["product", "margin", "eliminate"])


def _unreduced(cfg):
    """check_reducible over every residual choice (tests/oracle.py's)."""
    with mock.patch.object(reduce, "residual_choices",
                           oracle.residual_choices):
        return check_reducible(cfg)


def _same_answers(on, off):
    assert on.status == off.status
    assert (on.witness and cover_to_dict(on.witness)) == \
        (off.witness and cover_to_dict(off.witness))
    for key in ("bad_colors", "profiles", "worst_bad_colors"):
        assert on.stats.get(key) == off.stats.get(key), key
    assert on.stats["enumerated"] <= off.stats["enumerated"]


class TestOrbitReduction:
    """The kernel checks one residual choice per orbit of the renamings
    that keep every designated set, the first in enumeration order, and
    answers as the enumeration of every choice does."""

    @pytest.mark.parametrize("label", sorted(ENUMERATED))
    def test_catalog_choices_are_the_oracles(self, label):
        cfg = CATALOG[label]
        skip = () if cfg.pivot is None else (cfg.pivot,)
        assert list(residual_choices(cfg, skip)) == \
            oracle.orbit_first_choices(cfg, skip)

    @pytest.mark.parametrize("label", sorted(ENUMERATED))
    def test_catalog_answers_without_the_filter(self, label):
        on, off = check_reducible(CATALOG[label]), _unreduced(CATALOG[label])
        _same_answers(on, off)
        assert off.stats["enumerated"] == UNREDUCED.get(
            label, ENUMERATED[label])

    @FORESTED
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_choices_are_the_oracles(self, configs, data):
        cfg, _ = data.draw(configs(forested=True))
        assert cfg.tree
        skip = () if cfg.pivot is None else (cfg.pivot,)
        assert list(residual_choices(cfg, skip)) == \
            oracle.orbit_first_choices(cfg, skip)

    @FORESTED
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_answers_without_the_filter(self, configs, data):
        cfg, _ = data.draw(configs(forested=True))
        _same_answers(check_reducible(cfg), _unreduced(cfg))


class TestFloorTables:
    """The kernel builds its grid and free-edge masks once per check, over
    color indices into the sorted residual sets.  For every residual
    choice they equal the masks built from that choice's colors
    (tests/oracle.py), with the options in the same order once the
    choice's sorted sets turn indices into colors."""

    @staticmethod
    def _agree(cfg):
        calls = []
        floor_tables = reduce._floor_tables

        def record(group, rest, sizes, free):
            index, edges = floor_tables(group, rest, sizes, free)
            # the kernel sorts the list it gets by option count
            calls.append((group, rest, free, list(edges)))
            return index, edges

        with mock.patch.object(reduce, "_floor_tables", record):
            check_reducible(cfg)
        assert calls
        skip = () if cfg.pivot is None else (cfg.pivot,)
        for residuals in oracle.orbit_first_choices(cfg, skip):
            for group, rest, free, edges in calls:
                want = oracle.edge_masks(residuals, group, rest, free)
                assert [(e, late) for e, _, _, late in edges] == \
                    [(e, late) for e, _, _, late in want]
                for (e, opts, mask, _), (_, colored, reference, _) in zip(
                        edges, want):
                    a, b = (sorted(residuals[v]) for v in e)
                    assert [{a[i]: b[k] for i, k in m.items()}
                            for m in opts] == colored
                    assert np.array_equal(mask, reference)

    @pytest.mark.parametrize("label", sorted(ENUMERATED))
    def test_catalog_masks_are_the_references(self, label):
        self._agree(CATALOG[label])

    @pytest.mark.parametrize("configs", [product_configs, eliminate_configs],
                             ids=["product", "eliminate"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_forested_masks_are_the_references(self, configs, data):
        cfg, _ = data.draw(configs(forested=True))
        self._agree(cfg)
