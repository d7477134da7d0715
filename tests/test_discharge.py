"""Charge ledger: exactness, rule-order independence, precondition reports.

Note that a graph satisfying every audited precondition would contradict the
charge arithmetic itself (the preconditions describe a structure the
counting rules out), so exactness is exercised with force_rules on arbitrary
inputs and the precondition checks are tested for faithful reporting.
"""

import hashlib
import itertools
import json

import pytest

import dpcolor.discharge
from dpcolor import graphs
from conftest import (
    audit_corpus, butterfly_pattern, c7_pattern, pendant_octahedron_host,
    shared_vertex_host, special_seven_host, tight_six_host,
)
from dpcolor.clusters import extract_clusters
from dpcolor.discharge import (
    CREDITS, ON_4_FACE, OUTER, RULE_ORDER, audit, cluster_infos,
    element_name, fmt_quarters, initial_charges, outer_identity,
    parse_element, special6_vertices,
)
from dpcolor.generate import generate_corpus, random_plane_graph
from dpcolor.graphs import Graph, PlaneGraph
from dpcolor.io import graph_to_dict, ingest_corpus
from dpcolor.patterns import cluster_pattern

CORPUS = generate_corpus(40, seed=20260823, min_n=6, max_n=14)


def k4_plane():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2)])
    return PlaneGraph(g, [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]],
                      [0, 2, 1])


class TestInitialCharges:
    def test_sum_zero_everywhere(self):
        for pg in CORPUS:
            assert initial_charges(pg).total() == 0

    def test_values(self):
        pg = k4_plane()
        led = initial_charges(pg)
        assert led.accounts[OUTER] == 4 * (3 + 4)
        assert led.accounts[("v", 3)] == 4 * (3 - 4)
        for f in pg.interior_faces():
            assert led.accounts[("f", f.id)] == 4 * (3 - 4)


class TestPreconditionReports:
    def test_k4_reports_low_internal_degree(self):
        rep = audit(k4_plane())
        assert rep.verdict == "preconditions-violated"
        chk = rep.preconditions["internal-min-degree-4"]
        assert not chk["ok"] and chk["witness"] == [3]
        assert rep.accounts is None

    def test_seven_cycle_witnessed(self):
        pg = c7_pattern().plane
        rep = audit(pg)
        chk = rep.preconditions["no-7-cycle"]
        assert not chk["ok"] and len(chk["witness"]) == 7

    def test_butterfly_witnessed(self):
        pg = butterfly_pattern().plane
        rep = audit(pg)
        chk = rep.preconditions["no-butterfly"]
        assert not chk["ok"] and len(chk["witness"]) == 9

    def test_bad_outer_triangle_rejected(self):
        pg = cluster_pattern(11).plane
        rep = audit(pg)
        assert not rep.preconditions["outer-good-3-cycle"]["ok"]

    def test_k4_cluster_not_in_catalog(self):
        rep = audit(k4_plane())
        chk = rep.preconditions["clusters-in-catalog"]
        assert not chk["ok"]
        assert "complete graph" in chk["reasons"][0]

    def test_glued_triangle_pattern_needs_internal_4_vertices(self):
        # the K4 drawing shares an edge between two all-4-vertex 3-faces,
        # but the tips are adjacent, so the diamond check stays quiet
        rep = audit(k4_plane())
        assert rep.preconditions["no-glued-internal-444-faces"]["ok"]

    def test_lone_triangle_is_all_nonnegative(self):
        # the lone triangle passes every precondition, and every account,
        # OUTER included, ends at 0: no account is in deficit
        rep = audit(cluster_pattern(1).plane)
        assert rep.ok_to_discharge and not rep.forced
        assert set(rep.accounts.values()) == {0}
        assert rep.negative == []
        assert rep.verdict == "all-nonnegative"


class TestSpecialClusters:
    def test_three_ear_cluster_special_in_host(self):
        pg, idx = special_seven_host()
        infos = cluster_infos(pg)
        assert len(infos) == 1
        info = infos[0]
        assert info.classification.code == 7
        assert info.special
        assert sorted(info.special_matches[0].roles[r] for r in "xyz") == \
            sorted([idx["x"], idx["y"], idx["z"]])

    def test_same_cluster_unspecial_when_on_outer_face(self):
        pg = cluster_pattern(7).plane  # drawn alone: x, y, z on the boundary
        infos = cluster_infos(pg)
        assert infos[0].classification.code == 7
        assert not infos[0].special

    def test_typing_counts_cluster_edges(self):
        pg, idx = special_seven_host()
        info = cluster_infos(pg)[0]
        assert info.i_type[idx["u"]] == 2
        assert info.i_type[idx["x"]] == 4
        assert info.four_faces == []

    @pytest.mark.parametrize("boundary,special6,r4", [
        (False, True, 6), (True, False, 8)])
    def test_shared_vertex_is_special_6_vertex(self, boundary, special6, r4):
        # with the shape (11) cluster on the outer face, v is not special
        pg, idx = shared_vertex_host(boundary)
        infos = cluster_infos(pg)
        assert sorted(info.classification.code for info in infos) == [7, 11]
        assert all(info.special for info in infos)
        assert special6_vertices(pg, infos) == ({idx["v"]} if special6
                                                else set())
        rep = audit(pg, force_rules=True)
        # R4: a special 6-vertex pays the shape (11) cluster 6, others 8
        h = next(info.cluster.id for info in infos
                 if info.classification.code == 11)
        paid = [q for rule, frm, to, q in rep.transfers
                if rule == "R4" and frm == ("v", idx["v"]) and to == ("H", h)]
        assert paid == [r4]

    def test_tight_seven_cluster_pattern_reported(self):
        # u, v, w of degrees 5, 6, 5, with v a special 6-vertex
        pg, idx = shared_vertex_host()
        assert [pg.graph.degree(idx[r]) for r in "uvw"] == [5, 6, 5]
        chk = audit(pg).preconditions["tight-7-cluster-pattern-absent"]
        assert chk == {"ok": False, "witness": [
            {"cluster": 1, "vertices": sorted(idx[r] for r in "uvw")}]}

    def test_tight_seven_check_quiet_when_w_has_degree_7(self):
        # u and the special 6-vertex v are still low, but no match has
        # u, v, w of degree 6 or less
        pg, idx = shared_vertex_host(w_degree7=True)
        info = next(info for info in cluster_infos(pg)
                    if info.classification.code == 11)
        assert info.cluster.k == 7 and info.internal and info.special
        assert [pg.graph.degree(idx[r]) for r in "uvw"] == [5, 6, 7]
        assert special6_vertices(pg, cluster_infos(pg)) == {idx["v"]}
        chk = audit(pg).preconditions["tight-7-cluster-pattern-absent"]
        assert chk == {"ok": True, "witness": None}

    def test_tight_seven_check_needs_an_all_internal_cluster(
            self, monkeypatch):
        # u and v are 5-vertices and u, v, w have degree 6 or less, but the
        # cluster touches the outer face; called all internal, it is caught
        pg = pendant_octahedron_host()
        infos = cluster_infos(pg)
        assert [(info.classification.code, info.internal)
                for info in infos] == [(11, False)]
        chk = audit(pg).preconditions["tight-7-cluster-pattern-absent"]
        assert chk == {"ok": True, "witness": None}
        real = dpcolor.discharge.cluster_infos

        def all_internal(pg):
            infos = real(pg)
            for info in infos:
                info.internal = True
            return infos

        monkeypatch.setattr(dpcolor.discharge, "cluster_infos", all_internal)
        chk = audit(pg).preconditions["tight-7-cluster-pattern-absent"]
        assert chk == {"ok": False,
                       "witness": [{"cluster": 0, "vertices": [0, 1]}]}

    def test_r3_gives_8_from_a_good_4_type_6_vertex(self):
        # the special 6-cluster of shape (10) with v of degree 6 and 4-type,
        # and u, w 3-type internal 5-vertices
        pg, idx = tight_six_host(v_degree6=True)
        info = next(info for info in cluster_infos(pg)
                    if info.classification.code == 10)
        assert info.special
        assert [pg.graph.degree(idx[r]) for r in "uvwxyz"] == \
            [5, 6, 5, 4, 4, 4]
        assert [info.i_type[idx[r]] for r in "uvw"] == [3, 4, 3]
        rep = audit(pg, force_rules=True)
        h = info.cluster.id
        assert ("R3", ("v", idx["v"]), ("H", h), 8) in rep.transfers
        assert rep.cap_violations == []

    def test_tight_six_cluster_pattern_reported(self):
        pg, idx = tight_six_host()
        chk = audit(pg).preconditions["tight-6-cluster-pattern-absent"]
        assert not chk["ok"]
        assert chk["witness"][0]["roles"] == {
            r: idx[r] for r in ("u", "v", "w", "x", "y", "z")}


class TestClusterFactsOnce:
    def test_classifications_run_once_per_cluster(self, monkeypatch):
        calls = []
        real = dpcolor.discharge.classifications

        def counted(pg, c):
            calls.append(c.id)
            return real(pg, c)

        monkeypatch.setattr(dpcolor.discharge, "classifications", counted)
        for host in (special_seven_host, shared_vertex_host, tight_six_host):
            pg, _ = host()
            for force in (False, True):
                calls.clear()
                audit(pg, force_rules=force)
                assert sorted(calls) == [c.id for c in extract_clusters(pg)]

    def test_pinned_audit_reports(self):
        # sha256 of every report, forced and not: a refactor of the rules or
        # the cluster facts must not change a single transfer or witness
        reports = [[audit(pg).to_json(), audit(pg, force_rules=True).to_json()]
                   for pg in audit_corpus()]
        digest = hashlib.sha256(
            json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == (
            "d145787a146c2a3f4e126eb9961484443fa3889d31484490c547ff937db822c6")


class TestCreditTable:
    def test_every_row_and_each_outcome_of_its_facts_is_reached(
            self, monkeypatch):
        # read first-match from CREDITS here, and record for each row
        # whether a (vertex, cluster) pair that reached it had its facts
        calls = []
        real = dpcolor.discharge.credit

        def recorded(rule, t, d, facts):
            call = (rule, min(t, 4), min(d, 7), frozenset(facts))
            # the applier asks again without the 4-face fact, to tell
            # whether that fact decided the credit; that is no new pair
            last = calls[-1] if calls else None
            if not (last and ON_4_FACE in last[3]
                    and call == (*last[:3], last[3] - {ON_4_FACE})):
                calls.append(call)
            return real(rule, t, d, facts)

        monkeypatch.setattr(dpcolor.discharge, "credit", recorded)
        for pg in audit_corpus() + [tight_six_host(v_degree6=True)[0]]:
            audit(pg, force_rules=True)
        outcomes = set()
        for rule, t, d, facts in calls:
            quarters = 0
            for i, (r, rt, rd, needs, q) in enumerate(CREDITS):
                if r != rule or rt not in (None, t) or rd not in (None, d):
                    continue
                outcomes.add((i, set(needs) <= facts))
                if set(needs) <= facts:
                    quarters = q
                    break
            assert real(rule, t, d, facts)[0] == quarters
        assert outcomes == {(i, True) for i in range(len(CREDITS))} | {
            (i, False) for i, row in enumerate(CREDITS) if row[3]}

    def test_a_credit_above_its_ceiling_is_reported(self):
        # a 2-type 7+-vertex pays a 7-face cluster 10 under R4; its ceiling
        # is 2
        rep = audit(random_plane_graph(1, 30, forbid=()), force_rules=True)
        assert rep.cap_violations[0] == {
            "vertex": 10, "cluster": 6, "given": 10, "cap": 2}


class TestRuleExactness:
    @pytest.mark.parametrize("idx", range(0, len(CORPUS), 4))
    def test_forced_run_is_exact(self, idx):
        pg = CORPUS[idx]
        rep = audit(pg, force_rules=True)
        assert sum(rep.accounts.values()) == 0
        ident = outer_identity(pg)
        assert rep.accounts[OUTER] == 4 * ident["value"]
        assert rep.cap_violations == []

    def test_cluster_initial_aggregate_is_minus_k(self):
        for pg in CORPUS[:10]:
            rep = audit(pg, force_rules=True)
            folded = {}
            for rule, frm, to, q in rep.transfers:
                if rule == "aggregate":
                    folded[to] = folded.get(to, 0) + q
            by_id = {c.id: c.k for c in extract_clusters(pg)}
            for (kind, hid), q in folded.items():
                assert kind == "H"
                assert q == -4 * by_id[hid]

    def test_outer_vertices_zeroed(self):
        for pg in CORPUS[:10]:
            rep = audit(pg, force_rules=True)
            for v in set(pg.faces[pg.outer_face].walk):
                assert rep.accounts[("v", v)] == 0

    def test_rule_order_permutation_invariant(self, monkeypatch):
        pg = CORPUS[1]
        base = audit(pg, force_rules=True).accounts
        for order in itertools.permutations(RULE_ORDER):
            monkeypatch.setattr(dpcolor.discharge, "RULE_ORDER", order)
            rep = audit(pg, force_rules=True)
            assert rep.accounts == base
            ran = list(dict.fromkeys(r[:2] for r, _, _, _ in rep.transfers
                                     if r != "aggregate"))
            assert ran == [r for r in order if r in ran]

    def test_five_plus_faces_pay_by_the_edge(self):
        # each R1a debit is 2 quarters across an edge to a triangle cluster
        # or 1 quarter to an interior endpoint
        seen_face_credit = seen_vertex_credit = False
        for pg in CORPUS:
            rep = audit(pg, force_rules=True)
            for rule, frm, to, q in rep.transfers:
                if rule == "R1a":
                    assert frm[0] == "f"
                    if to[0] == "H":
                        assert q == 2
                        seen_face_credit = True
                    else:
                        assert to[0] == "v" and q == 1
                        seen_vertex_credit = True
        assert seen_face_credit and seen_vertex_credit

    def test_k4_forced_accounts(self):
        rep = audit(k4_plane(), force_rules=True)
        assert rep.verdict == "forced-run-arithmetic-ok"
        assert rep.accounts[OUTER] == 4  # 1 + e - f3 = 1 + 3 - 3
        assert rep.accounts[("v", 3)] == -4  # internal 3-vertex stays short
        assert rep.accounts[("H", 0)] == 0


class TestElementNames:
    @pytest.mark.parametrize("name", ["v17", "f3", "H0", "OUTER"])
    def test_round_trip(self, name):
        assert element_name(parse_element(name)) == name

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            parse_element("q7")

    def test_fmt_quarters(self):
        assert fmt_quarters(6) == "3/2"
        assert fmt_quarters(-4) == "-1"


class TestLedgerHistory:
    def test_history_is_complete_for_outer(self):
        pg = CORPUS[0]
        rep = audit(pg, force_rules=True)
        delta = sum(
            (q if to == OUTER else -q)
            for rule, frm, to, q in rep.transfers
            if OUTER in (frm, to)
        )
        initial = 4 * (pg.faces[pg.outer_face].degree + 4)
        assert initial + delta == rep.accounts[OUTER]


class TestSearchesReused:
    def test_audit_reuses_the_corpus_filters_searches(self, tmp_path,
                                                      monkeypatch):
        # ingest's no-7-cycles and no-butterfly filters search each graph
        # once; the audit's class checks read their results
        path = tmp_path / "corpus.txt"
        path.write_text("".join(
            json.dumps(graph_to_dict(pg)) + "\n" for pg in CORPUS[:12]))
        calls = []
        for name in ("_cycle_from", "_embed"):
            real = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda *a, _r=real, _n=name: (
                calls.append(_n) or _r(*a)))
        filtered = set()
        audited = 0
        for pg in ingest_corpus(path, ("no-7-cycles", "no-butterfly")):
            filtered.update(calls)
            calls.clear()
            rep = audit(pg, force_rules=True)
            assert rep.preconditions["no-7-cycle"]["ok"]
            assert rep.preconditions["no-butterfly"]["ok"]
            assert calls == []
            audited += 1
        assert audited == 12
        assert filtered == {"_cycle_from", "_embed"}
