"""Candidate window, exceptional collection verification, and the
branch-and-bound maximum search."""

import copy
import hashlib
import heapq
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest

from invquot import (
    SearchInvariantError,
    SearchTimeoutError,
    UnsupportedGeometryError,
    bidegree,
    candidate_window,
    export_digraph_json,
    ext_dims,
    ext_dims_via_les,
    get_preset,
    hom_dim,
    max_exceptional,
    parse,
    symmetry_quotient,
    verify_collection,
)
from invquot import search as search_module
from invquot.cli import main
from invquot.homs import _difference_table, ext_table, shift
from invquot.search import (
    _blocks,
    _chains,
    _residue_maps,
    _Solver,
    _sorted_distinct,
    _TimeUp,
    base_vertex,
)

from digraphs import edge, export_digraph_dot, find_cycles, hom_digraph

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"
Z9 = "x1^2*x2 + x1*x2^2 + x3^2*x4 + x4^2*x5 + x3*x5^2"
FERMAT = "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"
FERMAT_LOOPS = "x1^3 + x2^2*x3 + x2*x3^2 + x4^2*x5 + x4*x5^2"
QUADRIC = "x1^2 + x2^2 + x3^2 + x4^2 + x5^2"
SRC = Path(__file__).resolve().parent.parent / "src"

# the 16 quasi-smooth five-variable cubic atomic sums, by block structure
LADDER = {
    "chain5": "x1^3 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x5^2",
    "chain4+fermat": "x1^3 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x5^3",
    "chain2+chain3": "x1^3 + x1*x2^2 + x2*x3^2 + x4^3 + x4*x5^2",
    "chain3+fermat+fermat": "x1^3 + x1*x2^2 + x2*x3^2 + x4^3 + x5^3",
    "chain3+loop2": "x1^3 + x1*x2^2 + x2*x3^2 + x4^2*x5 + x4*x5^2",
    "chain2+chain2+fermat": "x1^3 + x1*x2^2 + x3^3 + x3*x4^2 + x5^3",
    "chain2+fermat+fermat+fermat": "x1^3 + x1*x2^2 + x3^3 + x4^3 + x5^3",
    "chain2+fermat+loop2": "x1^3 + x1*x2^2 + x3^3 + x4^2*x5 + x4*x5^2",
    "chain2+loop3": "x1^3 + x1*x2^2 + x3^2*x4 + x4^2*x5 + x3*x5^2",
    "fermat+fermat+fermat+fermat+fermat": "x1^3 + x2^3 + x3^3 + x4^3 + x5^3",
    "fermat+fermat+fermat+loop2": "x1^3 + x2^3 + x3^3 + x4^2*x5 + x4*x5^2",
    "fermat+fermat+loop3": "x1^3 + x2^3 + x3^2*x4 + x4^2*x5 + x3*x5^2",
    "fermat+loop2+loop2": "x1^3 + x2^2*x3 + x2*x3^2 + x4^2*x5 + x4*x5^2",
    "fermat+loop4": "x1^3 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x2*x5^2",
    "loop2+loop3": "x1^2*x2 + x1*x2^2 + x3^2*x4 + x4^2*x5 + x3*x5^2",
    "loop5": "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x1*x5^2",
}
# the 16 ladder maps as quartics, with xi^4 and xi^3*xj
QUARTICS = {name: poly.replace("^3", "^4").replace("^2", "^3") for name, poly in LADDER.items()}

REFERENCE_SEQUENCE = [
    (1, 2), (1, 6), (1, 7), (1, 8), (1, 10), (2, 0),
    (0, 0), (1, 1), (1, 3), (1, 4), (1, 5), (1, 9),
    (2, 2), (2, 6), (2, 7), (2, 8), (2, 10), (3, 0),
    (1, 0), (2, 1), (2, 3), (2, 4), (2, 5), (2, 9),
]


def degs(sq, pairs):
    return [bidegree(sq, a, b) for a, b in pairs]


def window_oracle(sq):
    """The candidate window one vertex at a time: a vertex is excluded when
    some Ext from the base to it and some Ext back are both nonzero, each
    read by its own ext_dims lookup, and the scan stops n - d layers (at
    least two) after the first layer whose section count is positive in
    every residue."""
    base = base_vertex(sq)
    residues = ext_table(sq).residues
    span = max(2, sq.n - sq.degree)
    audit = {"layers": [], "excluded": [], "certificate": None}
    vertices, full_row, a = [], None, 0
    while full_row is None or a < full_row + span:
        kept = []
        for b in residues:
            v = bidegree(sq, a, b)
            forward, backward = ext_dims(sq, base, v), ext_dims(sq, v, base)
            if v != base and any(forward) and any(backward):
                audit["excluded"].append(
                    {
                        "vertex": [v.a, list(v.b)],
                        "reason": "mutual arrows with base",
                        "ext_base_to_v": list(forward),
                        "ext_v_to_base": list(backward),
                    }
                )
            else:
                kept.append(v)
        vertices.extend(kept)
        audit["layers"].append({"a": a, "kept": len(kept)})
        if full_row is None and all(hom_dim(sq, base, bidegree(sq, a, b)) for b in residues):
            full_row = a
        a += 1
    audit["certificate"] = {
        "first_all_positive_row": full_row,
        "stop_layer": a,
        "reason": (
            f"rows >= {full_row} have positive section count in every residue, "
            "so every vertex there has arrows to and from the base"
        ),
    }
    return vertices, audit


def per_pair_rows(sq, verts):
    """Out rows of the Ext digraph from one ext_dims lookup per ordered pair."""
    return [
        sum(1 << j for j, v in enumerate(verts) if i != j and any(ext_dims(sq, u, v)))
        for i, u in enumerate(verts)
    ]


WINDOW_INPUTS = {
    **LADDER,
    # degree-4 windows, whose Serre term has total degree d - n = -1
    **{f"quartic-{name}": poly for name, poly in QUARTICS.items()},
    "lu-counterexample": get_preset("lu-counterexample"),
    "cubic-trivial-quotient": get_preset("cubic-trivial-quotient"),
}


def _pair_bound_dp(chains, cap, chosen, avail):
    """Reference for _Solver._pair_bound: a dynamic program over each chain,
    from every count of a layer to the best sum of the chain up to it."""
    total = 0
    for chain in chains:
        dp = None
        for bits in chain:
            lo = (chosen & bits).bit_count()
            xs = range(lo, lo + (avail & bits).bit_count() + 1)
            if dp is None:
                dp = {x: x for x in xs}
                continue
            ndp = {}
            for x in xs:
                fits = [s for px, s in dp.items() if px + x <= cap]
                if fits:
                    ndp[x] = max(fits) + x
            if not ndp:
                raise SearchInvariantError("pair bound infeasible")
            dp = ndp
        total += max(dp.values())
    return total


class TestWindow:
    def test_window_contents(self, sq):
        verts, audit = candidate_window(sq)
        assert len(verts) == 40
        got = {(v.a, v.b[0]) for v in verts}
        expected = (
            {(a, b) for a in range(3) for b in range(11)}
            | {(3, b) for b in (0, 2, 6, 7, 8, 10)}
            | {(4, 0)}
        )
        assert got == expected

    def test_certificate(self, sq):
        _, audit = candidate_window(sq)
        cert = audit["certificate"]
        assert cert["first_all_positive_row"] == 3
        assert cert["stop_layer"] == 5

    def test_exclusions_documented(self, sq):
        verts, audit = candidate_window(sq)
        assert len(audit["excluded"]) == 15
        for record in audit["excluded"]:
            fwd, back = record["ext_base_to_v"], record["ext_v_to_base"]
            assert any(fwd) and any(back), "exclusion requires mutual arrows"

    def test_window_is_sorted_by_bidegree(self):
        # built layer by layer in residue order, so already in the (a, b)
        # order that BiDegree compares by
        sq = symmetry_quotient(parse(FERMAT))
        verts, _ = candidate_window(sq)
        assert verts == sorted(verts, key=lambda d: (d.a, d.b)) == sorted(verts)

    def test_quadric_scans_past_the_serre_lag(self):
        # on a quadric threefold the Serre term has total degree d - n = -3:
        # the scan runs three layers past the first all-positive row, and the
        # last of them still keeps a vertex
        sq = symmetry_quotient(parse(QUADRIC))
        verts, audit = candidate_window(sq)
        cert = audit["certificate"]
        assert cert["first_all_positive_row"] == 4
        assert cert["stop_layer"] == 7
        assert [layer["kept"] for layer in audit["layers"]][4:] == [11, 5, 1]
        base = base_vertex(sq)
        for v in verts:
            assert not (edge(sq, base, v) and edge(sq, v, base))
        for a in (7, 8):
            for v in degs(sq, [(a, b) for b in product(range(2), repeat=4)]):
                assert edge(sq, base, v) and edge(sq, v, base)

    @pytest.mark.parametrize("name", list(WINDOW_INPUTS))
    def test_matches_per_vertex_oracle(self, name):
        # the kept vertices and the whole audit, certificate text included
        sq = symmetry_quotient(parse(WINDOW_INPUTS[name]))
        verts, audit = candidate_window(sq)
        expected_verts, expected_audit = window_oracle(sq)
        assert verts == expected_verts
        assert audit == expected_audit

    def test_requires_free_variable(self):
        # every monomial of the chain-and-fermat mix below touches x1, so
        # the sparsity precondition for the cutoff certificate holds; build
        # a dense counterexample where it fails
        dense = parse(
            "x1^2*x2*x3*x4*x5 + x1*x2^2*x3*x4*x5 + x1*x2*x3^2*x4*x5 "
            "+ x1*x2*x3*x4^2*x5 + x1*x2*x3*x4*x5^2"
        )
        sq = symmetry_quotient(dense)
        with pytest.raises(UnsupportedGeometryError):
            candidate_window(sq)


class TestVerifyCollection:
    def test_reference_sequence_is_exceptional(self, sq):
        report = verify_collection(sq, degs(sq, REFERENCE_SEQUENCE))
        assert report.valid
        assert report.size == 24
        assert report.violations == ()

    def test_appending_vertex_breaks_it(self, sq):
        extended = degs(sq, REFERENCE_SEQUENCE + [(4, 0)])
        report = verify_collection(sq, extended)
        assert not report.valid
        kinds = {v["kind"] for v in report.violations}
        assert kinds == {"backward ext"}

    def test_duplicate_rejected(self, sq):
        report = verify_collection(sq, degs(sq, [(0, 0), (0, 0)]))
        assert not report.valid
        assert any(v["kind"] == "duplicate objects" for v in report.violations)

    def test_bad_order_rejected(self, sq):
        # (0,0) before (3,0) has a forward hom and a Serre-dual backward ext;
        # reversing a good pair creates a backward hom violation
        good = verify_collection(sq, degs(sq, [(0, 0), (1, 1)]))
        bad = verify_collection(sq, degs(sq, [(1, 1), (0, 0)]))
        assert good.valid and not bad.valid

    def test_self_ext_checked(self, sq):
        report = verify_collection(sq, degs(sq, [(0, 0)]))
        assert report.valid

    def test_empty_collection(self, sq):
        report = verify_collection(sq, [])
        assert report.valid and report.size == 0


class TestDigraph:
    def test_edges_match_ext(self, sq):
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a <= 1]
        graph = hom_digraph(sq, verts)
        for u in verts:
            for v in graph[u]:
                assert edge(sq, u, v)

    def test_vertex_list_is_sorted_and_deduplicated(self, sq):
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a <= 1]
        assert _sorted_distinct(verts) is verts
        data = export_digraph_json(sq, verts)
        assert data["vertices"] == [(v.a, v.b) for v in verts]
        for given in (
            sorted(verts + verts[:3]), sorted(verts + verts[-2:]), verts[::-1],
            tuple(verts), iter(verts),
        ):
            assert export_digraph_json(sq, given) == data
        doubled = max_exceptional(sq, sorted(verts + verts[:3]))
        assert doubled.witness == max_exceptional(sq, verts).witness

    def test_acyclic_subsets_are_orderable(self, sq):
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a <= 1]
        graph = nx.DiGraph()
        graph.add_nodes_from(verts)
        for u, targets in hom_digraph(sq, verts).items():
            graph.add_edges_from((u, v) for v in targets)
        rng = random.Random(17)
        for _ in range(40):
            subset = rng.sample(verts, 5)
            sub = graph.subgraph(subset)
            if nx.is_directed_acyclic_graph(sub):
                order = list(nx.topological_sort(sub))
                assert verify_collection(sq, order).valid
            else:
                # no permutation succeeds on a cyclic subset
                assert not any(
                    verify_collection(sq, list(p)).valid
                    for p in permutations(subset)
                )


class TestRows:
    """ExtTable.rows against one ext_dims lookup per ordered pair, on every
    ladder quotient, non-cyclic ones such as (2, 12), (3, 3, 6) and
    (3, 3, 3, 3) among them."""

    @pytest.mark.parametrize("name", list(LADDER))
    def test_ladder_windows(self, name):
        sq = symmetry_quotient(parse(LADDER[name]))
        window, _ = candidate_window(sq)
        table = ext_table(sq)
        assert table.rows(table.layers(window)) == per_pair_rows(sq, window)

    @pytest.mark.parametrize("name", list(LADDER))
    def test_seeded_sub_windows(self, name):
        # unsorted draws from the window twisted by a random bidegree: some
        # layers partial, some missing, total degrees down to -3
        sq = symmetry_quotient(parse(LADDER[name]))
        window, _ = candidate_window(sq)
        table = ext_table(sq)
        rng = random.Random(name)
        for size in (2, 9, 30):
            twist = bidegree(sq, -rng.randrange(4), rng.choice(table.residues))
            sub = [shift(sq, v, twist) for v in rng.sample(window, size)]
            assert min(Counter(v.a for v in sub).values()) < len(table.residues)
            assert table.rows(table.layers(sub)) == per_pair_rows(sq, sub)


class TestDigraphAgainstLes:
    """The table-backed digraph against a per-pair reference that calls the
    long-exact-sequence route directly."""

    @staticmethod
    def reference(sq, verts):
        return {
            u: [v for v in verts if u != v and any(ext_dims_via_les(sq, u, v))]
            for u in verts
        }

    @pytest.mark.parametrize("poly", [PENTAGON, Z9], ids=["pentagon", "z9"])
    def test_window(self, poly):
        sq = symmetry_quotient(parse(poly))
        verts, _ = candidate_window(sq)
        assert hom_digraph(sq, verts) == self.reference(sq, verts)

    def test_fermat_sample(self):
        sq = symmetry_quotient(parse(FERMAT))
        window, _ = candidate_window(sq)
        assert len(window) == 518
        sample = sorted(random.Random(3).sample(window, 40), key=lambda d: (d.a, d.b))
        graph = hom_digraph(sq, sample)
        assert graph == self.reference(sq, sample)
        assert 0 < sum(map(len, graph.values())) < 40 * 39


class TestFindCycles:
    def test_quadruple_four_cycles(self, sq):
        quad = degs(sq, [(1, 1), (1, 2), (3, 1), (3, 2)])
        cycles = find_cycles(sq, quad, max_len=4)
        assert any(len(c) == 4 for c in cycles)

    def test_serre_three_cycle(self, sq):
        triple = degs(sq, [(0, 0), (2, 0), (4, 0)])
        cycles = find_cycles(sq, triple, max_len=3)
        assert [len(c) for c in cycles].count(3) >= 1
        (cycle,) = [c for c in cycles if len(c) == 3]
        assert {(d.a, d.b[0]) for d in cycle} == {(0, 0), (2, 0), (4, 0)}

    def test_no_cycle_in_good_pair(self, sq):
        assert find_cycles(sq, degs(sq, [(0, 0), (0, 1)]), max_len=4) == []

    def test_cycles_are_rotated_to_min(self, sq):
        for cycle in find_cycles(
            sq, degs(sq, [(1, 1), (1, 2), (3, 1), (3, 2)]), max_len=4
        ):
            keys = [(d.a, d.b) for d in cycle]
            assert keys[0] == min(keys)


class TestMaxExceptional:
    def test_window_optimum_is_24(self, sq):
        result = max_exceptional(sq)
        assert result.size == 24
        assert result.optimal
        assert len(result.witness) == 24
        assert verify_collection(sq, result.witness).valid

    def test_deterministic_witness_stable(self, sq):
        r1 = max_exceptional(sq)
        r2 = max_exceptional(sq)
        assert r1.witness == r2.witness
        assert r1.witness_set == r2.witness_set

    def test_sub_window_row_zero(self, sq):
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a == 0]
        result = max_exceptional(sq, vertices=verts)
        assert result.size == 11

    def test_sub_window_rows_zero_and_two(self, sq):
        verts = degs(
            sq, [(a, b) for a in (0, 2) for b in range(11)]
        )
        result = max_exceptional(sq, vertices=verts)
        assert result.size == 12

    def test_matches_brute_force_on_small_sets(self, sq):
        # maximum over all subsets of a 10-vertex set, checked literally
        verts = degs(sq, [(0, b) for b in range(5)] + [(2, b) for b in range(5)])
        result = max_exceptional(sq, vertices=verts)
        best = 0
        for mask in range(1 << len(verts)):
            subset = [v for i, v in enumerate(verts) if (mask >> i) & 1]
            if len(subset) <= best:
                continue
            graph = nx.DiGraph()
            graph.add_nodes_from(subset)
            for u in subset:
                for v in subset:
                    if u != v and edge(sq, u, v):
                        graph.add_edge(u, v)
            if nx.is_directed_acyclic_graph(graph):
                best = len(subset)
        assert result.size == best

    def test_timeout_raises_with_partial(self, sq):
        with pytest.raises(SearchTimeoutError) as err:
            max_exceptional(sq, timeout_secs=1e-9)
        assert err.value.best_size >= 1
        assert err.value.best_witness
        assert verify_collection(sq, err.value.best_witness).valid

    def test_proof_log_shape(self, sq):
        result = max_exceptional(sq)
        log = result.proof_log
        assert log["optimum"] == 24
        assert log["forced_base"]
        assert log["vertices"] == 40
        assert {s["order"] for s in log["seeds"]} == {"plain", "layer0-last"}
        assert log["stats"]["nodes"] > 0

    def test_witness_pass_leaves_report_stats(self, sq, monkeypatch):
        # each search pass returns fresh stats; the report keeps those of the
        # optimum search as it returned them, whatever the witness pass counts.
        # Only the window solver's two passes are kept: the alpha search
        # behind the pair cap runs on a solver of its own
        snapshots = []
        real = _Solver.search

        def spy(solver, *args, **kwargs):
            size, mask, stats = real(solver, *args, **kwargs)
            snapshots.append((solver.n, copy.deepcopy(stats)))
            return size, mask, stats

        monkeypatch.setattr(_Solver, "search", spy)
        result = max_exceptional(sq)
        stats = result.proof_log["stats"]
        optimum, witness = [s for n, s in snapshots if n == len(result.vertices)]
        assert stats == optimum
        assert witness["nodes"] > 0
        assert witness["improvements"] == []

    def test_witness_pass_timeout_keeps_proven_optimum(self, sq, monkeypatch):
        real = _Solver.search

        def spy(solver, best, best_mask, stop=False):
            if stop:
                raise _TimeUp(best, best_mask, {})
            return real(solver, best, best_mask, stop)

        monkeypatch.setattr(_Solver, "search", spy)
        with pytest.raises(SearchTimeoutError, match="optimum 24 already proven") as err:
            max_exceptional(sq)
        assert err.value.best_size == 24
        assert len(err.value.best_witness) == 24
        assert verify_collection(sq, err.value.best_witness).valid
        log = err.value.proof_log
        assert log["optimum_proven"] and log["optimum"] == 24
        assert log["stats"]["nodes"] == 265

    def test_search_keeps_nothing_on_the_quotient(self):
        # the pair cap and the residue maps are computed by each search; the
        # quotient keeps only its Ext table
        sq = symmetry_quotient(parse(Z9))
        result = max_exceptional(sq)
        assert result.proof_log["pair_cap"] == {"cap": 11, "alpha": 2, "nodes": 5}
        assert list(sq.derived) == ["ext"]

    def test_witness_is_lex_min_optimal_subset(self, sq):
        # the canonical witness must contain the base vertex and be
        # reproducible from its own sorted set
        result = max_exceptional(sq)
        assert base_vertex(sq) in result.witness_set
        assert tuple(sorted(result.witness, key=lambda d: (d.a, d.b))) == (
            result.witness_set
        )


class TestClosesCycle:
    """The solver's blocked mask against networkx, along seeded random
    include/undo walks over the chosen set: a vertex is blocked exactly when
    it would close a cycle, and _blocks adds exactly the vertices that close
    one through the vertex joining."""

    @pytest.mark.parametrize("poly", ["pentagon", "z9"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_walks_agree_with_networkx(self, sq, poly, seed):
        if poly == "z9":
            sq = symmetry_quotient(parse(Z9))
        verts, _ = candidate_window(sq)
        table = ext_table(sq)
        solver = _Solver(table.rows(table.layers(verts)), None)
        n = solver.n
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for u in range(n):
            graph.add_edges_from(
                (u, w) for w in range(n) if (solver.out_mask[u] >> w) & 1
            )
        # the in rows are the transpose of the out rows
        assert solver.in_mask == [
            sum(1 << u for u in graph.predecessors(w)) for w in range(n)
        ]
        rng = random.Random(seed)
        chosen = blocked = 0
        stack = []
        includes = undos = rejects = 0
        for _ in range(600):
            members = [i for i in range(n) if (chosen >> i) & 1]
            if stack and rng.random() < 0.35:
                chosen, blocked = stack.pop()
                undos += 1
                continue
            v = rng.choice([i for i in range(n) if i not in members])
            closes = bool(blocked >> v & 1)
            acyclic = nx.is_directed_acyclic_graph(graph.subgraph(members + [v]))
            assert closes == (not acyclic)
            if closes:
                rejects += 1
                continue
            new = _blocks(solver.in_mask, solver.out_mask, v, chosen)
            sub = graph.subgraph(members + [v]).copy()
            for w in range(n):
                if w == v or (chosen >> w) & 1:
                    assert not (new >> w) & 1
                    continue
                sub.add_node(w)
                sub.add_edges_from((w, x) for x in graph.successors(w) if x in sub)
                sub.add_edges_from((x, w) for x in graph.predecessors(w) if x in sub)
                # a cycle of sub, and whether one runs through v
                cyclic = not nx.is_directed_acyclic_graph(sub)
                through = cyclic and nx.has_path(sub, v, w) and nx.has_path(sub, w, v)
                assert bool((new >> w) & 1) == through
                assert bool(((blocked | new) >> w) & 1) == cyclic
                sub.remove_node(w)
            stack.append((chosen, blocked))
            chosen |= 1 << v
            blocked |= new
            includes += 1
        assert includes > 50 and undos > 20 and rejects > 20


class TestPairCap:
    """The pair cap: two layers of total degrees a and a + 2 hold at most
    m + alpha vertices of a collection, alpha the largest acyclic set of an
    m-vertex digraph H (see _Solver). Its three facts are checked here on the
    long-exact-sequence route, and m + alpha against an exact search over
    the two full layers."""

    CAP_INPUTS = {name: LADDER[name] for name in (
        "loop5", "loop2+loop3", "fermat+loop2+loop2", "chain3+loop2",
    )}

    @staticmethod
    def full_layers_by_les(sq):
        """Layers 0 and 2, every residue, and their out rows by the LES route."""
        table = ext_table(sq)
        verts = [bidegree(sq, a, b) for a in (0, 2) for b in table.residues]
        ext = {
            (i, j): ext_dims_via_les(sq, u, v)
            for i, u in enumerate(verts) for j, v in enumerate(verts) if i != j
        }
        rows = [
            sum(1 << j for j in range(len(verts)) if j != i and any(ext[i, j]))
            for i in range(len(verts))
        ]
        return verts, ext, rows

    def test_preconditions_by_les(self):
        # the three facts behind the cap, on each of the four inputs
        for name, poly in self.CAP_INPUTS.items():
            sq = symmetry_quotient(parse(poly))
            m = sq.quotient_order
            verts, ext, _ = self.full_layers_by_les(sq)
            zero = bidegree(sq, 0, [0] * len(sq.quotient_orders))
            shifts = set()
            for i, u in enumerate(verts):
                targets = [j for j in range(2 * m) if j != i and any(ext[i, j])]
                # fact 1: no arrow inside a layer
                assert all((j < m) != (i < m) for j in targets), name
                if i < m:
                    # fact 2: the arrows up are Hom arrows, one per nonzero
                    # section count of the difference
                    for j in range(m, 2 * m):
                        hom = ext_dims_via_les(sq, zero, bidegree(sq, 2, [
                            x - y for x, y in zip(verts[j].b, u.b)
                        ]))[0]
                        assert ext[i, j] == (hom, 0, 0, 0), name
                else:
                    # fact 3: one arrow down, Ext^3, by one translation
                    (j,) = targets
                    assert ext[i, j][:3] == (0, 0, 0) and ext[i, j][3] > 0, name
                    shifts.add(tuple((x - y) % q for x, y, q in
                                     zip(verts[j].b, u.b, sq.quotient_orders)))
            assert len(shifts) == 1, name

    @pytest.mark.parametrize("poly", list(CAP_INPUTS.values()), ids=list(CAP_INPUTS))
    def test_cap_is_the_two_layer_optimum(self, poly):
        # the exact search over both full layers, on LES arrows, without the
        # cap, forcing or the leader
        sq = symmetry_quotient(parse(poly))
        _, _, rows = self.full_layers_by_les(sq)
        solver = _Solver(rows, None)
        optimum, mask, _ = solver.search(0, None)
        assert len(solver.order(mask)) == optimum
        cap = search_module._pair_cap(sq, None)
        assert cap["cap"] == sq.quotient_order + cap["alpha"] == optimum

    # the node count of the alpha search is part of its specification, as
    # the main search's counts are (see TestSearchCounts)
    LADDER_CAPS = [
        ("loop5", 12, 1), ("loop2+loop3", 11, 5), ("fermat+loop2+loop2", 11, 7),
        ("chain3+loop2", 15, 14), ("chain5", 19, 21), ("fermat+loop4", 17, 21),
        ("chain2+loop3", 22, 57), ("chain2+fermat+loop2", 23, 85),
        ("chain4+fermat", 30, 375), ("chain2+chain3", 30, 300),
        ("chain3+fermat+fermat", 48, 25_661), ("chain2+chain2+fermat", 46, 10_653),
        ("fermat+fermat+fermat+loop2", 35, 7_174), ("fermat+fermat+loop3", 35, 2_187),
    ]

    @pytest.mark.parametrize(
        "name, cap, nodes", LADDER_CAPS, ids=[f"{name}-{cap}" for name, cap, _ in LADDER_CAPS]
    )
    def test_ladder_caps(self, name, cap, nodes):
        sq = symmetry_quotient(parse(LADDER[name]))
        got = search_module._pair_cap(sq, None)
        assert got["cap"] == cap == sq.quotient_order + got["alpha"]
        assert got["nodes"] == nodes

    def test_alpha_is_searched_without_the_leader(self, monkeypatch):
        # H is one layer, where the lex-leader could cut only leaves that
        # cannot raise the incumbent (see _Solver), so it is left off: the
        # window's search turns the leader on once, and its alpha search not
        # at all
        calls = []
        real_lead, real_cap = _Solver.lead, search_module._pair_cap
        monkeypatch.setattr(
            _Solver, "lead", lambda solver, *args: calls.append("lead") or real_lead(solver, *args)
        )
        monkeypatch.setattr(
            search_module, "_pair_cap", lambda *args: calls.append("cap") or real_cap(*args)
        )
        sq = symmetry_quotient(parse(Z9))
        assert search_module._pair_cap(sq, None) == {"cap": 11, "alpha": 2, "nodes": 5}
        assert calls == ["cap"]
        max_exceptional(sq)
        assert calls == ["cap", "lead", "cap"]

    def test_no_cap_on_the_quadric(self):
        # layer 2 has no arrow down to layer 0 (the Serre term lags by
        # three), so fact 3 fails; layers 0 to 2 are then taken whole
        sq = symmetry_quotient(parse(QUADRIC))
        window, _ = candidate_window(sq)
        result = max_exceptional(sq, vertices=[v for v in window if v.a <= 2])
        assert result.size == len(result.vertices) == 48
        assert result.proof_log["pair_cap"] is None

    @pytest.mark.parametrize("name", list(QUARTICS))
    def test_no_cap_on_the_quartic_ladder(self, name):
        # every (2, s) has five arrows down, not one, so fact 3 fails
        sq = symmetry_quotient(parse(QUARTICS[name]))
        assert search_module._pair_cap(sq, None) is None

    def test_not_derived_where_it_cannot_bind(self, monkeypatch):
        # layers 0 and 1 only: no two layers two apart
        calls = []
        real = search_module._pair_cap
        monkeypatch.setattr(
            search_module, "_pair_cap", lambda *args: calls.append(args) or real(*args)
        )
        sq = symmetry_quotient(parse(PENTAGON))
        window, _ = candidate_window(sq)
        result = max_exceptional(sq, vertices=[v for v in window if v.a <= 1])
        assert result.proof_log["pair_cap"] is None
        assert calls == []
        assert max_exceptional(sq).proof_log["pair_cap"] == {
            "cap": 12, "alpha": 1, "nodes": 1,
        }
        assert len(calls) == 1

    def test_four_cycles_between_layers_0_and_2(self, sq):
        window, _ = candidate_window(sq)
        layers = [v for v in window if v.a in (0, 2)]
        assert len(layers) == 22
        expected = [
            tuple(degs(sq, [(0, r), (2, s), (0, s), (2, r)]))
            for r, s in combinations(range(11), 2)
        ]
        assert len(expected) == 55
        assert find_cycles(sq, layers, max_len=4) == expected

    def test_timeout_in_the_cap_stage(self, monkeypatch):
        # a clock that advances one microsecond per reading: the alpha search
        # on the Fermat cubic (m = 81) runs out after about 1,000 nodes, and
        # the run reports its greedy seed
        ticks = itertools.count()
        monkeypatch.setattr(
            search_module, "time", SimpleNamespace(monotonic=lambda: next(ticks) * 1e-6)
        )
        sq = symmetry_quotient(parse(FERMAT))
        with pytest.raises(SearchTimeoutError, match="computing the pair cap") as err:
            max_exceptional(sq, timeout_secs=0.001)
        log = err.value.proof_log
        assert log["pair_cap"]["timed_out"] is True
        assert 900 < log["pair_cap"]["nodes"] < 1_100
        assert "stats" not in log
        best = err.value.best_witness
        assert len(best) == err.value.best_size == max(s["size"] for s in log["seeds"])
        assert base_vertex(sq) in best
        assert verify_collection(sq, best).valid


class TestPairBound:
    """The pair bound over the open layers against the dynamic program over
    whole chains that it replaced."""

    @staticmethod
    def recorded_states(monkeypatch, run):
        """Every (solver, chains, pos, chosen, count, avail) at which run()
        asks for the bound, chains those the solver's cap was set along."""
        states = []
        chains_of = {}
        real_set, real_bound = _Solver.set_pair_cap, _Solver._pair_bound

        def set_spy(solver, cap, chains):
            chains_of[solver] = chains
            return real_set(solver, cap, chains)

        def bound_spy(solver, *state):
            states.append((solver, chains_of[solver], *state))
            return real_bound(solver, *state)

        monkeypatch.setattr(_Solver, "set_pair_cap", set_spy)
        monkeypatch.setattr(_Solver, "_pair_bound", bound_spy)
        run()
        monkeypatch.undo()
        return states

    @staticmethod
    def binding_states(states):
        """Check every recorded state, DFS-shaped (chosen only below pos,
        available only at or above it), against the dynamic program; returns
        how many the bound cuts below count + avail."""
        binding = 0
        for solver, chains, pos, chosen, count, avail in states:
            assert chosen >> pos == 0 and avail & ((1 << pos) - 1) == 0
            assert count == chosen.bit_count()
            bound = solver._pair_bound(pos, chosen, count, avail)
            assert bound == _pair_bound_dp(chains, solver.pair_cap, chosen, avail)
            binding += bound < count + avail.bit_count()
        return binding

    @pytest.mark.parametrize("path", ["cli", "forced-base"])
    def test_pentagon_search_states(self, sq, monkeypatch, capsys, path):
        if path == "cli":
            states = self.recorded_states(
                monkeypatch, lambda: main(["search", PENTAGON, "--format", "json"])
            )
            capsys.readouterr()
        else:
            states = self.recorded_states(monkeypatch, lambda: max_exceptional(sq))
        assert len(states) > 200
        assert self.binding_states(states) > 100

    @pytest.mark.parametrize("path", ["z9-cli", "fermat-loop2-loop2"])
    def test_search_states(self, monkeypatch, capsys, path):
        if path == "z9-cli":
            states = self.recorded_states(
                monkeypatch, lambda: main(["search", Z9, "--format", "json"])
            )
            capsys.readouterr()
            assert len(states) == 2_264
        else:
            sq = symmetry_quotient(parse(FERMAT_LOOPS))
            states = self.recorded_states(monkeypatch, lambda: max_exceptional(sq))
            assert len(states) > 50_000
        assert self.binding_states(states) > len(states) // 3

    @pytest.mark.parametrize("name", [
        "loop5", "loop2+loop3", "fermat+loop2+loop2", "chain3+loop2", "fermat+loop4",
        "chain5",
    ])
    def test_ladder_sub_window_states(self, monkeypatch, name):
        # seeded sub-windows of layers 0 to 2 whose layers 0 and 2 hold two
        # vertices more than the cap, searched as explicit lists
        sq = symmetry_quotient(parse(LADDER[name]))
        window, _ = candidate_window(sq)
        cap = search_module._pair_cap(sq, None)["cap"]
        pair = [v for v in window if v.a in (0, 2)]
        middle = [v for v in window if v.a == 1]
        states = []
        for seed in (1, 2):
            rng = random.Random(seed)
            sub = sorted(rng.sample(pair, cap + 2) + rng.sample(middle, 2))
            assert any(
                (x | y).bit_count() > sq.quotient_order
                for chain in _chains(ext_table(sq).layers(sub))
                for x, y in zip(chain, chain[1:])
            )
            states += self.recorded_states(
                monkeypatch, lambda: max_exceptional(sq, vertices=sub)
            )
        assert len(states) > 250
        assert self.binding_states(states) > 100

    def test_synthetic_chains(self):
        # DFS-shaped states (chosen only below pos, available only at or
        # above it) on random chains whose layers interleave by index; a
        # state where two decided layers break the cap is no collection, so
        # the DFS never reaches it
        rng = random.Random(7)
        feasible = binding = infeasible = 0
        for _ in range(3000):
            # m vertices per layer at most, as on a quotient of order m
            m = rng.randint(1, 8)
            sizes = [[max(0, m - rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
                     for _ in range(rng.randint(1, 3))]
            order = [c for c, chain in enumerate(sizes) for _ in chain]
            rng.shuffle(order)
            chains = [[] for _ in sizes]
            n = 0
            for c in order:
                size = sizes[c][len(chains[c])]
                chains[c].append(((1 << size) - 1) << n)
                n += size
            if n == 0:
                continue
            pos = rng.randrange(n)
            chosen = sum(1 << i for i in range(pos) if rng.random() < 0.7)
            avail = sum(1 << i for i in range(pos, n) if rng.random() < 0.7)
            cap = m + rng.randint(0, 2)
            solver = _Solver([0] * n, None)
            solver.set_pair_cap(cap, chains)
            count = chosen.bit_count()
            # the upper layers of the pairs over the cap; only the pair ending
            # at pos's layer may be one on a state the DFS reaches
            broken = {
                bits for chain in chains for low, bits in zip(chain, chain[1:])
                if ((low | bits) & chosen).bit_count() > cap
            }
            current = next(bits for chain in chains for bits in chain if bits >> pos & 1)
            if broken - {current}:
                continue
            if broken:
                with pytest.raises(SearchInvariantError):
                    _pair_bound_dp(chains, cap, chosen, avail)
                with pytest.raises(SearchInvariantError, match="pair bound infeasible"):
                    solver._pair_bound(pos, chosen, count, avail)
                infeasible += 1
                continue
            bound = solver._pair_bound(pos, chosen, count, avail)
            assert bound == _pair_bound_dp(chains, cap, chosen, avail), (
                chains, cap, pos, chosen, avail,
            )
            feasible += 1
            binding += bound < count + avail.bit_count()
        assert feasible > 1000 and binding > 500 and infeasible > 10

    def test_infeasible_state_raises(self):
        # layers of 4 and 3 chosen vertices under a cap of 6, with the last
        # vertex of the upper layer still open
        chains = [[0b1111, 0b1111 << 4]]
        solver = _Solver([0] * 8, None)
        solver.set_pair_cap(6, chains)
        chosen, avail = (1 << 7) - 1, 1 << 7
        with pytest.raises(SearchInvariantError, match="pair bound infeasible"):
            solver._pair_bound(7, chosen, 7, avail)
        with pytest.raises(SearchInvariantError):
            _pair_bound_dp(chains, 6, chosen, avail)
        solver.set_pair_cap(7, chains)
        assert solver._pair_bound(7, chosen, 7, avail) == 7
        with pytest.raises(SearchInvariantError, match="more vertices than the pair cap"):
            solver.set_pair_cap(3, chains)


class TestBruteForce:
    """Branch and bound against exhaustive enumeration on seeded sub-windows,
    with arrows taken from the long-exact-sequence route."""

    @staticmethod
    def lex_min_optimum(sq, verts, through=None):
        """The first acyclic subset of the largest size, subsets of one size
        taken in lexicographic order of their sorted indices; with through,
        only subsets holding that index."""
        n = len(verts)
        preds = [0] * n
        for i, u in enumerate(verts):
            for j, v in enumerate(verts):
                if i != j and any(ext_dims_via_les(sq, u, v)):
                    preds[j] |= 1 << i

        def acyclic(members):
            left = sum(1 << i for i in members)
            while left:
                source = next((i for i in members if (left >> i) & 1
                               and not preds[i] & left), None)
                if source is None:
                    return False
                left &= ~(1 << source)
            return True

        for k in range(n, -1, -1):
            for members in combinations(range(n), k):
                if (through is None or through in members) and acyclic(members):
                    return [verts[i] for i in members]

    @pytest.mark.parametrize(
        "poly, layers, seeds",
        [
            (PENTAGON, None, range(1, 6)),
            # two layers two apart, where the pentagon's pair bound binds
            (PENTAGON, (0, 2), range(1, 11)),
            (Z9, None, range(1, 6)),
            (FERMAT, None, range(1, 6)),
            (get_preset("cubic-trivial-quotient"), None, (1,)),
            *((poly, None, range(1, 7)) for poly in LADDER.values()),
        ],
        ids=[
            "pentagon", "pentagon-layers-0-2", "z9", "fermat", "cubic-trivial-quotient",
            *(f"ladder-{name}" for name in LADDER),
        ],
    )
    def test_sub_windows(self, poly, layers, seeds):
        sq = symmetry_quotient(parse(poly))
        window, _ = candidate_window(sq)
        if layers is not None:
            window = [v for v in window if v.a in layers]
        for seed in seeds:
            sub = random.Random(seed).sample(window, min(14, len(window)))
            sub.sort(key=lambda d: (d.a, d.b))
            expected = self.lex_min_optimum(sq, sub)
            result = max_exceptional(sq, vertices=sub)
            assert result.optimal
            assert result.size == len(expected), seed
            assert list(result.witness_set) == expected, seed


def _counts(stats):
    return (
        stats["nodes"], stats["bound_prunes"], stats["cycle_rejects"],
        stats["symmetry_prunes"],
    )


class TestSearchCounts:
    """The search's node and prune counts are part of its specification: a
    faster core must take exactly the same decisions. The CLI searches the
    candidate window with the base forced and the lex-leader on."""

    @pytest.mark.parametrize(
        "poly, window, optimum, counts",
        [
            (PENTAGON, 40, 24, (265, 121, 0, 12)),
            (Z9, 34, 20, (3_824, 1_535, 3, 376)),
            (FERMAT_LOOPS, 38, 20, (86_954, 40_834, 607, 2_340)),
        ],
        ids=["pentagon", "z9", "fermat-loop2-loop2"],
    )
    def test_cli(self, capsys, poly, window, optimum, counts):
        assert main(["search", poly, "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["window_size"] == window
        assert results["optimum"] == optimum
        assert results["optimal_certified"] is True
        assert results["proof_log"]["forced_base"] is True
        assert _counts(results["proof_log"]["stats"]) == counts

    def test_pentagon_forced_base(self, sq):
        stats = max_exceptional(sq).proof_log["stats"]
        assert _counts(stats) == (265, 121, 0, 12)

    def test_explicit_list_is_not_forced(self, sq):
        # the same 40 vertices as an explicit list: no forcing, no leader
        window, _ = candidate_window(sq)
        result = max_exceptional(sq, vertices=window)
        assert result.proof_log["forced_base"] is False
        assert _counts(result.proof_log["stats"]) == (287, 144, 0, 0)
        assert result.witness == max_exceptional(sq).witness


class TestTranslationLeader:
    """The lex-leader over g = t_-phi(r) o phi, the quotient's translations
    after the identity or a residue map, checked at every layer boundary of
    the candidate window with the base forced (see _Solver). Cut back here
    to the layer-0 translations alone (no residue map, no later boundary),
    the rule the leader grew from, and switched off by making every state a
    leader; both leave the rest of the forced-base search alone."""

    @staticmethod
    def layer_zero_translations(monkeypatch):
        real = _Solver._leads
        monkeypatch.setattr(search_module, "_residue_maps", lambda table, top: [])
        monkeypatch.setattr(
            _Solver, "_leads",
            lambda solver, k, chosen, ties: real(solver, k, chosen, ties) if k == 0 else True,
        )

    @staticmethod
    def leader_off(monkeypatch):
        monkeypatch.setattr(_Solver, "_leads", lambda solver, k, chosen, ties: True)

    @pytest.mark.parametrize(
        "poly, full, layer_zero, off",
        [
            (PENTAGON, (265, 121, 0, 12), (265, 132, 0, 1), (265, 133, 0, 0)),
            (Z9, (3_824, 1_535, 3, 376), (6_943, 3_413, 4, 57), (11_635, 5_811, 14, 0)),
            (FERMAT_LOOPS, (86_954, 40_834, 607, 2_340), (150_945, 74_668, 1_254, 178),
             (337_651, 167_737, 2_178, 0)),
        ],
        ids=["pentagon", "z9", "fermat-loop2-loop2"],
    )
    def test_same_optimum_and_witness(self, monkeypatch, poly, full, layer_zero, off):
        results = [max_exceptional(symmetry_quotient(parse(poly)))]
        self.layer_zero_translations(monkeypatch)
        results.append(max_exceptional(symmetry_quotient(parse(poly))))
        monkeypatch.undo()
        self.leader_off(monkeypatch)
        results.append(max_exceptional(symmetry_quotient(parse(poly))))
        on = results[0]
        for other in results[1:]:
            assert other.size == on.size
            assert other.witness == on.witness
            assert other.vertices == on.vertices
        assert [_counts(r.proof_log["stats"]) for r in results] == [full, layer_zero, off]

    @pytest.mark.parametrize("poly", [Z9, FERMAT_LOOPS], ids=["z9", "fermat-loop2-loop2"])
    def test_brute_force_on_layers_0_and_2(self, poly):
        # every residue of layers 0 and 2 is in the window, so the union is
        # closed under every g and the leader applies with the base forced
        sq = symmetry_quotient(parse(poly))
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a in (0, 2)]
        assert len(verts) == 18 and verts[0] == base_vertex(sq)
        table = ext_table(sq)
        maps = _residue_maps(table, window[-1].a)
        assert maps
        layers = table.layers(verts)
        solver = _Solver(table.rows(layers), None)
        solver.force(0)
        solver.lead(layers, maps, table)
        size, _, stats = solver.search(0, None)
        assert stats["symmetry_prunes"] > 0
        _, mask, _ = solver.search(size - 1, None, stop=True)
        found = [v for i, v in enumerate(verts) if mask >> i & 1]
        expected = TestBruteForce.lex_min_optimum(sq, verts, through=0)
        assert found == expected
        assert verify_collection(sq, [verts[i] for i in solver.order(mask)]).valid

    @pytest.mark.parametrize(
        "shape", [(11,), (9,), (3, 3), (2, 12), (3, 3, 6), (3, 3, 3, 3), PENTAGON, Z9],
        ids=["11", "9", "3x3", "2x12", "3x3x6", "3x3x3x3", "pentagon", "z9"],
    )
    def test_layer_zero_gate_against_sorted_lists(self, shape):
        # _leads(0, ...) against the definition: the state is cut exactly
        # when some g = t_-phi(r) o phi, r in R_0, gives a smaller sorted
        # list, and ties[1] is the set of the g other than the identity
        # that give the same list. A group shape is a lone full layer with
        # negation as its map; a window brings its own layers and maps
        if isinstance(shape, tuple):
            table = SimpleNamespace(diff=_difference_table(shape))
            m = len(table.diff)
            layers = {0: [1 << s for s in range(m)]}
            maps = [[table.diff[s][0] for s in range(m)]]
            solver = _Solver([0] * m, None)
        else:
            sq = symmetry_quotient(parse(shape))
            window, _ = candidate_window(sq)
            table = ext_table(sq)
            m = len(table.residues)
            layers, maps = table.layers(window), _residue_maps(table, window[-1].a)
            assert maps
            solver = _Solver(table.rows(layers), None)
        solver.force(0)
        solver.lead(layers, maps, table)
        diff, identity = table.diff, list(range(m))
        rng = random.Random(m)
        samples = [[0], identity] + [
            [0] + [s for s in range(1, m) if rng.random() < density]
            for density in (0.2, 0.5, 0.8) for _ in range(40)
        ]
        outcomes = set()
        for members in samples:
            own = sorted(members)
            smaller, tied = False, set()
            for phi in [identity, *maps]:
                for r in members:
                    g = [diff[phi[r]][x] for x in phi]
                    image = sorted(g[s] for s in members)
                    smaller |= image < own
                    if image == own and g != identity:
                        tied.add(tuple(g))
            ties = [solver.symmetries, None]
            leads = solver._leads(0, sum(1 << s for s in members), ties)
            assert leads is not smaller, members
            if leads:
                assert sorted(map(tuple, ties[1])) == sorted(tied), members
            outcomes.add((leads, bool(tied)))
        assert {(False, False), (True, True)} <= outcomes

    def test_lead_checks_the_layer_table(self, sq):
        # the gate reads each layer as an index range in residue order, and
        # layer 0 as every residue, the base first
        window, _ = candidate_window(sq)
        table = ext_table(sq)
        maps = _residue_maps(table, window[-1].a)
        for verts, layers, match in (
            (window, dict(reversed(table.layers(window).items())), "not index ranges"),
            (window[:1] + window[2:], None, "layer 0 does not hold every residue"),
        ):
            solver = _Solver(table.rows(table.layers(verts)), None)
            solver.force(0)
            with pytest.raises(SearchInvariantError, match=match):
                solver.lead(layers or table.layers(verts), maps, table)

    def test_timeout_reports_valid_collection(self, monkeypatch):
        # a clock that advances one microsecond per reading: the budget runs
        # out after about 3,000 readings of the 3,824 nodes, past the first
        # cuts; a cut state counts as a node but reads no clock
        ticks = itertools.count()
        monkeypatch.setattr(
            search_module, "time", SimpleNamespace(monotonic=lambda: next(ticks) * 1e-6)
        )
        sq = symmetry_quotient(parse(Z9))
        with pytest.raises(SearchTimeoutError) as err:
            max_exceptional(sq, timeout_secs=0.003)
        log = err.value.proof_log
        assert log["forced_base"] is True
        assert log["pair_cap"] == {"cap": 11, "alpha": 2, "nodes": 5}
        stats = log["stats"]
        assert 2_900 < stats["nodes"] - stats["symmetry_prunes"] < 3_100
        assert 3_200 < stats["nodes"] < 3_400
        assert stats["symmetry_prunes"] > 0
        best = err.value.best_witness
        assert len(best) == err.value.best_size >= max(s["size"] for s in log["seeds"])
        assert base_vertex(sq) in best
        assert verify_collection(sq, best).valid


class TestResidueMaps:
    """The residue maps read off the window's Ext rows (see _residue_maps),
    on the cubic and quartic ladders, the presets and the Fermat quadric:
    each against the permutations of the variables that fix W, brute-forced
    over all 120, and, on the cubic ladder, against the Ext digraph of the
    full layers of the window."""

    INPUTS = {
        **LADDER,
        **{f"quartic-{name}": poly for name, poly in QUARTICS.items()},
        "lu-counterexample": get_preset("lu-counterexample"),
        "cubic-trivial-quotient": get_preset("cubic-trivial-quotient"),
        "quadric": QUADRIC,
    }

    # residue maps besides the identity, and permutations fixing W. The
    # first is the number of distinct additive maps that the permutations
    # induce on the characters, so with the containment checked below the
    # finder returns exactly those
    COUNTS = {
        "chain5": (0, 1), "chain4+fermat": (0, 1), "chain2+chain3": (0, 1),
        "chain3+fermat+fermat": (1, 2), "chain3+loop2": (0, 2),
        "chain2+chain2+fermat": (0, 2), "chain2+fermat+fermat+fermat": (5, 6),
        "chain2+fermat+loop2": (0, 2), "chain2+loop3": (2, 3),
        "fermat+fermat+fermat+fermat+fermat": (23, 120),
        "fermat+fermat+fermat+loop2": (1, 12), "fermat+fermat+loop3": (2, 6),
        "fermat+loop2+loop2": (1, 8), "fermat+loop4": (3, 4),
        "loop2+loop3": (2, 6), "loop5": (4, 5),
        "quartic-chain5": (0, 1), "quartic-chain4+fermat": (0, 1),
        "quartic-chain2+chain3": (0, 1), "quartic-chain3+fermat+fermat": (1, 2),
        "quartic-chain3+loop2": (1, 2), "quartic-chain2+chain2+fermat": (0, 2),
        "quartic-chain2+fermat+fermat+fermat": (5, 6),
        "quartic-chain2+fermat+loop2": (1, 2), "quartic-chain2+loop3": (2, 3),
        "quartic-fermat+fermat+fermat+fermat+fermat": (23, 120),
        "quartic-fermat+fermat+fermat+loop2": (3, 12),
        "quartic-fermat+fermat+loop3": (2, 6), "quartic-fermat+loop2+loop2": (7, 8),
        "quartic-fermat+loop4": (3, 4), "quartic-loop2+loop3": (5, 6),
        "quartic-loop5": (4, 5),
        "lu-counterexample": (4, 5), "cubic-trivial-quotient": (0, 24), "quadric": (23, 120),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_permutations_fix_w(self, name):
        # the oracle: the permutations sigma of the variables that map the
        # rows of the exponent matrix onto themselves, so fix W, by trying
        # all 120; every map is additive and sends each character c_j to
        # c_sigma(j) for one of them
        sq = symmetry_quotient(parse(self.INPUTS[name]))
        window, _ = candidate_window(sq)
        table = ext_table(sq)
        maps = _residue_maps(table, window[-1].a)
        entries = sq.poly.matrix
        rows = set(entries)
        # x_j -> x_sigma(j) sends exponent e_j to place sigma(j)
        sigmas = [
            sigma for sigma in permutations(range(5))
            if {tuple(row[sigma.index(k)] for k in range(5)) for row in entries} == rows
        ]
        assert (len(maps), len(sigmas)) == self.COUNTS[name]
        assert maps == sorted(maps)
        orders = sq.quotient_orders
        m = len(table.residues)

        def add(r, s):
            return table.index[tuple(
                (x + y) % q for x, y, q in zip(table.residues[r], table.residues[s], orders)
            )]

        basis = [table.index[tuple(int(i == k) for i in range(len(orders)))] for k in range(len(orders))]
        chars = [
            table.residue_index(sq.char_of_exponents([int(i == j) for i in range(5)]))
            for j in range(5)
        ]
        identity = list(range(m))
        for phi in maps:
            assert sorted(phi) == identity and phi != identity
            # phi(r + e) = phi(r) + phi(e) for every r and basis residue e,
            # which the basis residues generate: phi is additive
            assert all(phi[add(r, e)] == add(phi[r], phi[e]) for r in range(m) for e in basis)
            assert any(
                all(phi[chars[j]] == chars[sigma[j]] for j in range(5)) for sigma in sigmas
            ), (name, phi)

    @pytest.mark.parametrize("name", list(LADDER))
    def test_maps_keep_the_window_digraph(self, name):
        sq = symmetry_quotient(parse(LADDER[name]))
        window, _ = candidate_window(sq)
        top = window[-1].a
        table = ext_table(sq)
        maps = _residue_maps(table, top)
        assert len(maps) == self.COUNTS[name][0]
        canonical = table.canonical[1]
        for phi in maps:
            assert phi[0] == 0 and phi[canonical] == canonical
        # every arrow of the window goes to an arrow between the images,
        # read off the full layers 0..top
        grid = [bidegree(sq, a, b) for a in range(top + 1) for b in table.residues]
        full = table.rows(table.layers(grid))
        at = {v: i for i, v in enumerate(grid)}
        rows = table.rows(table.layers(window))
        arrows = [(window[i], window[j]) for i, row in enumerate(rows) for j in _peel(row)]
        assert arrows
        for phi in maps:
            image = {
                v: at[bidegree(sq, v.a, table.residues[phi[table.residue_index(v.b)]])]
                for v in window
            }
            for u, v in arrows:
                assert full[image[u]] >> image[v] & 1, (name, phi, u, v)

    @pytest.mark.parametrize("orders", [(2, 2), (4,), (6,), (2, 4), (8,), (2, 2, 2)],
                             ids=["2x2", "4", "6", "2x4", "8", "2x2x2"])
    def test_rows_that_split_nothing_leave_every_automorphism(self, orders):
        # with no residue set apart by a row, the finder returns every
        # automorphism of the residue group but the identity: against all
        # permutations that fix 0, those that keep sums
        residues = list(product(*map(range, orders)))
        table = SimpleNamespace(
            residues=residues, diff=_difference_table(orders),
            sq=SimpleNamespace(quotient_orders=orders), _support=lambda a: (True, []),
        )
        m = len(residues)
        number = {r: i for i, r in enumerate(residues)}
        add = [[number[tuple((x + y) % q for x, y, q in zip(r, s, orders))] for s in residues]
               for r in residues]
        expected = sorted(
            phi for phi in ([0, *rest] for rest in permutations(range(1, m)))
            if all(phi[add[r][s]] == add[phi[r]][phi[s]] for r in range(m) for s in range(m))
        )
        assert _residue_maps(table, 1) == expected[1:]

    def test_z9_maps(self):
        # the rotation x3 -> x4 -> x5 -> x3 of the loop3 block and its square
        # act on Z/9 as multiplication by 7 and by 4; the loop2 swap fixes
        # every residue
        sq = symmetry_quotient(parse(Z9))
        window, _ = candidate_window(sq)
        maps = _residue_maps(ext_table(sq), window[-1].a)
        assert maps == [[4 * s % 9 for s in range(9)], [7 * s % 9 for s in range(9)]]

    def test_z9_keeps_no_map_that_breaks_a_row(self):
        # s -> 2s is an automorphism of Z/9, but it moves a nonzero entry of
        # an Ext row the window reads, and s -> 3s is additive but no
        # bijection: the finder returns neither
        sq = symmetry_quotient(parse(Z9))
        window, _ = candidate_window(sq)
        table = ext_table(sq)
        top = window[-1].a
        assert any(
            bool(table.nonzero_row(a)[s]) != bool(table.nonzero_row(a)[2 * s % 9])
            for a in range(-top, top + 1) for s in range(9)
        )
        maps = _residue_maps(table, top)
        assert [2 * s % 9 for s in range(9)] not in maps
        assert [3 * s % 9 for s in range(9)] not in maps


class TestOrder:
    def test_smallest_ready_index_first(self):
        # the ready bitmask gives the order a heap of ready indices gives, on
        # seeded random digraphs and acyclic masks
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 30)
            # arrows from lower to higher ranks only, so every mask is acyclic
            rank = list(range(n))
            rng.shuffle(rank)
            out = [
                sum(1 << w for w in range(n) if rank[v] < rank[w] and rng.random() < 0.3)
                for v in range(n)
            ]
            solver = _Solver(out, None)
            mask = sum(1 << v for v in range(n) if rng.random() < 0.7)
            members = [v for v in range(n) if mask >> v & 1]
            indeg = {v: (solver.in_mask[v] & mask).bit_count() for v in members}
            ready = [v for v in members if indeg[v] == 0]
            heapq.heapify(ready)
            expected = []
            while ready:
                v = heapq.heappop(ready)
                expected.append(v)
                for w in members:
                    if out[v] >> w & 1:
                        indeg[w] -= 1
                        if indeg[w] == 0:
                            heapq.heappush(ready, w)
            assert solver.order(mask) == expected


class TestInvariantErrors:
    def test_invalid_witness_raises_under_optimize(self):
        # python -O strips asserts; the typed error must still fire
        script = textwrap.dedent(
            f"""
            assert False, "stripped under -O"
            from invquot import CollectionReport, SearchInvariantError, bidegree, parse, search
            from invquot import symmetry_quotient

            sq = symmetry_quotient(parse({PENTAGON!r}))
            real = search.verify_collection

            def invalid(sq, order):
                report = real(sq, order)
                return CollectionReport(
                    valid=False, size=report.size, violations=report.violations
                )

            search.verify_collection = invalid
            try:
                search.max_exceptional(sq, vertices=[bidegree(sq, 0, [b]) for b in range(3)])
            except SearchInvariantError as exc:
                print("raised:", exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised: search produced an invalid collection"


class TestExports:
    def test_dot_contains_all_vertices(self, sq):
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a <= 1]
        dot = export_digraph_dot(sq, verts)
        assert dot.startswith("digraph")
        for v in verts:
            assert f'"{v}"' in dot

    def test_json_export(self, sq):
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a <= 1]
        data = export_digraph_json(sq, verts)
        assert len(data["vertices"]) == 22
        declared = {(a, tuple(b)) for a, b in data["vertices"]}
        assert len(declared) == 22
        for u, v in data["edges"]:
            assert (u[0], tuple(u[1])) in declared
            assert (v[0], tuple(v[1])) in declared
            assert u != v
        # every edge corresponds to a nonvanishing Ext and vice versa
        expected_edges = sum(
            1 for u in verts for v in verts if u != v and edge(sq, u, v)
        )
        assert len(data["edges"]) == expected_edges

    @pytest.mark.parametrize("poly", [PENTAGON, Z9], ids=["pentagon", "z9"])
    def test_window_export_matches_list_form(self, poly):
        sq = symmetry_quotient(parse(poly))
        window, _ = candidate_window(sq)
        _assert_export(export_digraph_json(sq, window), window, per_pair_rows(sq, window))

    def test_fermat_json_digest(self):
        # the JSON text of the Fermat export is pinned; each vertex list is
        # one object, shared by every arrow at that vertex
        sq = symmetry_quotient(parse(FERMAT))
        window, _ = candidate_window(sq)
        data = export_digraph_json(sq, window)
        text = json.dumps(data)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e2e9a60c890bec8fddff3a0ce3b9fa57843f5441482e233016141fb074fef7d9"
        )
        assert len(data["vertices"]) == 518 and len(data["edges"]) == 53_449
        ids = {id(x) for x in data["vertices"]}
        assert all(id(u) in ids and id(v) in ids for u, v in data["edges"])


def _peel(m):
    """The set bits of m, lowest first, peeled off one at a time."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _assert_export(data, verts, rows):
    """export_digraph_json's output on sorted distinct verts, whose out rows
    are rows, against a bit-peeling reference: one (a, b) tuple per vertex
    sharing the bidegree's residue tuple, one tuple per edge holding the very
    vertex entries of its ends, by source then target, and the JSON text of
    the list-of-lists form."""
    node = data["vertices"]
    assert node == [(v.a, v.b) for v in verts]
    assert all(type(x) is tuple and x[1] is v.b for x, v in zip(node, verts))
    reference = [(i, j) for i, m in enumerate(rows) for j in _peel(m)]
    assert data["edges"] == [(node[i], node[j]) for i, j in reference]
    assert all(type(e) is tuple for e in data["edges"])
    assert [(id(u), id(v)) for u, v in data["edges"]] == [
        (id(node[i]), id(node[j])) for i, j in reference
    ]
    lists = [[v.a, list(v.b)] for v in verts]
    as_lists = {"vertices": lists, "edges": [[lists[i], lists[j]] for i, j in reference]}
    assert json.dumps(data) == json.dumps(as_lists)


def _peel_in_rows(rows):
    """The transpose of the out rows, read bit by bit."""
    in_rows = [0] * len(rows)
    for i, m in enumerate(rows):
        for j in _peel(m):
            in_rows[j] |= 1 << i
    return in_rows


class TestByteWalk:
    """export_digraph_json and the solver's in rows read each out row a byte
    at a time; here both are compared with a bit-peeling reference on seeded
    sub-windows of the 518-vertex Fermat window. The sizes put the highest
    vertex in a full last byte (8, 64, 512) and in a partial one (7, 9, 65,
    513), and every sub-window of two or more vertices has an arrow into its
    highest vertex, so the top bit of some row is set."""

    @pytest.fixture(scope="class")
    def fermat(self):
        sq = symmetry_quotient(parse(FERMAT))
        window, _ = candidate_window(sq)
        return sq, window

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 512, 513])
    def test_sub_windows_match_bit_peeling(self, fermat, n):
        sq, window = fermat
        table = ext_table(sq)
        rng = random.Random(1_700 + n)
        while True:
            sub = sorted(rng.sample(window, n))
            rows = table.rows(table.layers(sub))
            if n < 2 or any(row >> n - 1 for row in rows):
                break
        _assert_export(export_digraph_json(sq, sub), sub, rows)
        assert _Solver(rows, None).in_mask == _peel_in_rows(rows)

    def test_full_window_transpose(self, fermat):
        sq, window = fermat
        table = ext_table(sq)
        rows = table.rows(table.layers(window))
        in_rows = _peel_in_rows(rows)
        assert len(in_rows) == 518 and sum(map(int.bit_count, in_rows)) == 53_449
        assert _Solver(rows, None).in_mask == in_rows
