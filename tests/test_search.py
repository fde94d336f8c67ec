"""Candidate window, exceptional collection verification, and the
branch-and-bound maximum search."""

import copy
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
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
    export_digraph_dot,
    export_digraph_json,
    ext_dims_via_les,
    find_cycles,
    get_preset,
    max_exceptional,
    parse,
    symmetry_quotient,
    verify_collection,
)
from invquot import search as search_module
from invquot.cli import main
from invquot.homs import ext_table
from invquot.search import (
    _Solver,
    _sorted_distinct,
    _TimeUp,
    base_vertex,
    edge,
    hom_digraph,
)

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"
Z9 = "x1^2*x2 + x1*x2^2 + x3^2*x4 + x4^2*x5 + x3*x5^2"
FERMAT = "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"
FERMAT_LOOPS = "x1^3 + x2^2*x3 + x2*x3^2 + x4^2*x5 + x4*x5^2"
QUADRIC = "x1^2 + x2^2 + x3^2 + x4^2 + x5^2"
SRC = Path(__file__).resolve().parent.parent / "src"

REFERENCE_SEQUENCE = [
    (1, 2), (1, 6), (1, 7), (1, 8), (1, 10), (2, 0),
    (0, 0), (1, 1), (1, 3), (1, 4), (1, 5), (1, 9),
    (2, 2), (2, 6), (2, 7), (2, 8), (2, 10), (3, 0),
    (1, 0), (2, 1), (2, 3), (2, 4), (2, 5), (2, 9),
]


def degs(sq, pairs):
    return [bidegree(sq, a, b) for a, b in pairs]


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

    def test_max_a_cap(self, sq):
        verts, _ = candidate_window(sq, max_a=1)
        assert {(v.a, v.b[0]) for v in verts} == {
            (a, b) for a in range(2) for b in range(11)
        }

    def test_cap_zero_keeps_layer_zero(self, sq):
        verts, _ = candidate_window(sq, max_a=0)
        assert len(verts) == 11

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
        verts, _ = candidate_window(sq, max_a=1)
        graph = hom_digraph(sq, verts)
        for u in verts:
            for v in graph[u]:
                assert edge(sq, u, v)

    def test_vertex_list_is_sorted_and_deduplicated(self, sq):
        verts, _ = candidate_window(sq, max_a=1)
        assert _sorted_distinct(verts) is verts
        graph = hom_digraph(sq, verts)
        data = export_digraph_json(sq, verts)
        for given in (sorted(verts + verts[:3]), verts[::-1], tuple(verts), iter(verts)):
            again = hom_digraph(sq, given)
            assert again == graph and list(again) == verts
        assert export_digraph_json(sq, sorted(verts + verts[-2:])) == data
        doubled = max_exceptional(sq, sorted(verts + verts[:3]))
        assert doubled.witness == max_exceptional(sq, verts).witness

    def test_acyclic_subsets_are_orderable(self, sq):
        verts, _ = candidate_window(sq, max_a=1)
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
        verts, _ = candidate_window(sq, max_a=0)
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
        # optimum search as it returned them, whatever the witness pass counts
        snapshots = []
        real = _Solver.search

        def spy(solver, *args, **kwargs):
            size, mask, stats = real(solver, *args, **kwargs)
            snapshots.append(copy.deepcopy(stats))
            return size, mask, stats

        monkeypatch.setattr(_Solver, "search", spy)
        stats = max_exceptional(sq).proof_log["stats"]
        optimum, witness = snapshots
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
        assert log["stats"]["nodes"] == 298

    def test_witness_is_lex_min_optimal_subset(self, sq):
        # the canonical witness must contain the base vertex and be
        # reproducible from its own sorted set
        result = max_exceptional(sq)
        assert base_vertex(sq) in result.witness_set
        assert tuple(sorted(result.witness, key=lambda d: (d.a, d.b))) == (
            result.witness_set
        )


class TestClosesCycle:
    """The solver's cycle test against networkx, along seeded random
    include/undo walks over the chosen set."""

    @pytest.mark.parametrize("poly", ["pentagon", "z9"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_walks_agree_with_networkx(self, sq, poly, seed):
        if poly == "z9":
            sq = symmetry_quotient(parse(Z9))
        verts, _ = candidate_window(sq)
        solver = _Solver(sq, verts, None)
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
        chosen = 0
        stack = []
        includes = undos = rejects = 0
        for _ in range(600):
            members = [i for i in range(n) if (chosen >> i) & 1]
            if stack and rng.random() < 0.35:
                chosen = stack.pop()
                undos += 1
                continue
            v = rng.choice([i for i in range(n) if i not in members])
            closes = solver._closes_cycle(v, chosen)
            acyclic = nx.is_directed_acyclic_graph(graph.subgraph(members + [v]))
            assert closes == (not acyclic)
            if closes:
                rejects += 1
                continue
            stack.append(chosen)
            chosen |= 1 << v
            includes += 1
        assert includes > 50 and undos > 20 and rejects > 20


class TestPairCap:
    """The pentagon's pair cap: two layers of total degrees a and a + 2 hold
    at most m + 1 vertices of a collection, because of 4-cycles of two
    degree-2 Hom arrows and two Ext^3 arrows. Its preconditions are checked
    here on the long-exact-sequence route."""

    def test_preconditions_by_les(self, sq):
        zero = bidegree(sq, 0, [0])
        hom_two = [ext_dims_via_les(sq, zero, bidegree(sq, 2, [b]))[0] for b in range(11)]
        assert hom_two[0] == 0
        assert all(h > 0 for h in hom_two[1:])
        assert ext_dims_via_les(sq, bidegree(sq, 2, [0]), zero) == (0, 0, 0, 1)

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

    @pytest.mark.parametrize(
        "poly, cap",
        [
            (PENTAGON, 12),
            (Z9, None),
            (FERMAT, None),
            (get_preset("cubic-trivial-quotient"), None),
        ],
        ids=["pentagon", "z9", "fermat", "cubic-trivial-quotient"],
    )
    def test_cap_is_set_only_on_the_pentagon(self, poly, cap):
        sq = symmetry_quotient(parse(poly))
        window, _ = candidate_window(sq)
        assert _Solver(sq, window, None).pair_cap == cap


class TestPairBound:
    """The one-pass pair bound against the dynamic program it replaced."""

    @staticmethod
    def recorded_states(monkeypatch, run):
        """Every (solver, chosen, avail) at which run() asks for the bound."""
        states = []
        real = _Solver._pair_bound

        def spy(solver, chosen, avail):
            states.append((solver, chosen, avail))
            return real(solver, chosen, avail)

        monkeypatch.setattr(_Solver, "_pair_bound", spy)
        run()
        monkeypatch.undo()
        return states

    @pytest.mark.parametrize("path", ["cli", "forced-base"])
    def test_pentagon_search_states(self, sq, monkeypatch, capsys, path):
        if path == "cli":
            states = self.recorded_states(
                monkeypatch, lambda: main(["search", PENTAGON, "--format", "json"])
            )
            capsys.readouterr()
        else:
            states = self.recorded_states(monkeypatch, lambda: max_exceptional(sq))
        assert len(states) > 300
        binding = 0
        for solver, chosen, avail in states:
            bound = solver._pair_bound(chosen, avail)
            assert bound == _pair_bound_dp(solver.chains, solver.pair_cap, chosen, avail)
            binding += bound < (chosen | avail).bit_count()
        assert binding > 100

    def test_synthetic_chains(self):
        rng = random.Random(7)
        feasible = binding = 0
        for _ in range(3000):
            chains = []
            chosen = avail = 0
            bit = 0
            for _ in range(rng.randint(1, 3)):
                chain = []
                for _ in range(rng.randint(1, 5)):
                    size = rng.randint(0, 8)
                    chain.append(((1 << size) - 1) << bit)
                    for i in range(bit, bit + size):
                        kind = rng.random()
                        if kind < 0.3:
                            chosen |= 1 << i
                        elif kind < 0.7:
                            avail |= 1 << i
                    bit += size
                chains.append(chain)
            cap = rng.randint(0, 12)
            solver = SimpleNamespace(chains=chains, pair_cap=cap)
            try:
                expected = _pair_bound_dp(chains, cap, chosen, avail)
            except SearchInvariantError:
                with pytest.raises(SearchInvariantError):
                    _Solver._pair_bound(solver, chosen, avail)
                continue
            bound = _Solver._pair_bound(solver, chosen, avail)
            assert bound == expected, (chains, cap, chosen, avail)
            feasible += 1
            binding += bound < (chosen | avail).bit_count()
        assert feasible > 1000 and binding > 500

    def test_infeasible_state_raises(self):
        # layers of 4 and 3 chosen vertices under a cap of 6
        chains = [[0b1111, 0b111 << 4]]
        solver = SimpleNamespace(chains=chains, pair_cap=6)
        chosen = (1 << 7) - 1
        with pytest.raises(SearchInvariantError, match="pair bound infeasible"):
            _Solver._pair_bound(solver, chosen, 0)
        with pytest.raises(SearchInvariantError):
            _pair_bound_dp(chains, 6, chosen, 0)
        assert _Solver._pair_bound(
            SimpleNamespace(chains=chains, pair_cap=7), chosen, 0
        ) == 7


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
        ],
        ids=["pentagon", "pentagon-layers-0-2", "z9", "fermat", "cubic-trivial-quotient"],
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
    candidate window with the base forced and the translation leader on."""

    @pytest.mark.parametrize(
        "poly, window, optimum, counts",
        [
            (PENTAGON, 40, 24, (298, 147, 1, 1)),
            (Z9, 34, 20, (112_432, 45_367, 20_791, 197)),
        ],
        ids=["pentagon", "z9"],
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
        assert _counts(stats) == (298, 147, 1, 1)

    def test_explicit_list_is_not_forced(self, sq):
        # the same 40 vertices as an explicit list: no forcing, no leader
        window, _ = candidate_window(sq)
        result = max_exceptional(sq, vertices=window)
        assert result.proof_log["forced_base"] is False
        assert _counts(result.proof_log["stats"]) == (320, 159, 1, 0)
        assert result.witness == max_exceptional(sq).witness


class TestTranslationLeader:
    """The lex-leader over the quotient's translations (0, r), used on the
    candidate window with the base forced. Switched off here by making every
    layer-0 set a leader, which leaves the forced-base search alone."""

    @staticmethod
    def leader_off(monkeypatch):
        monkeypatch.setattr(_Solver, "_leads", lambda solver, chosen: True)

    @pytest.mark.parametrize(
        "poly, max_a, forced_only_nodes",
        [
            (PENTAGON, None, 298),
            (Z9, None, 407_031),
            (Z9, 2, None),
            (FERMAT_LOOPS, 2, None),
        ],
        ids=["pentagon", "z9", "z9-max-a-2", "fermat-loop2-loop2-max-a-2"],
    )
    def test_same_optimum_and_witness(self, monkeypatch, poly, max_a, forced_only_nodes):
        on = max_exceptional(symmetry_quotient(parse(poly)), max_a=max_a)
        self.leader_off(monkeypatch)
        off = max_exceptional(symmetry_quotient(parse(poly)), max_a=max_a)
        assert on.size == off.size
        assert on.witness == off.witness
        assert on.vertices == off.vertices
        stats_on, stats_off = on.proof_log["stats"], off.proof_log["stats"]
        assert stats_off["symmetry_prunes"] == 0
        assert stats_on["nodes"] <= stats_off["nodes"]
        if poly != PENTAGON:
            assert stats_on["symmetry_prunes"] > 0
            assert 3 * stats_on["nodes"] < stats_off["nodes"]
        if forced_only_nodes is not None:
            assert stats_off["nodes"] == forced_only_nodes

    @pytest.mark.parametrize("poly", [Z9, FERMAT_LOOPS], ids=["z9", "fermat-loop2-loop2"])
    def test_brute_force_on_layers_0_and_2(self, poly):
        # every residue of layers 0 and 2 is in the window, so the union is
        # closed under translation and the leader applies with the base forced
        sq = symmetry_quotient(parse(poly))
        window, _ = candidate_window(sq)
        verts = [v for v in window if v.a in (0, 2)]
        assert len(verts) == 18 and verts[0] == base_vertex(sq)
        solver = _Solver(sq, verts, None)
        solver.force(0)
        solver.lead_translations(ext_table(sq))
        size, _, stats = solver.search(0, None)
        assert stats["symmetry_prunes"] > 0
        _, mask, _ = solver.search(size - 1, None, stop=True)
        found = [v for i, v in enumerate(verts) if mask >> i & 1]
        expected = TestBruteForce.lex_min_optimum(sq, verts, through=0)
        assert found == expected
        assert verify_collection(sq, solver.witness(mask)).valid

    def test_timeout_reports_valid_collection(self, monkeypatch):
        # a clock that advances one microsecond per reading: the budget runs
        # out after about 20,000 nodes of the 112,432, past the first cuts
        ticks = itertools.count()
        monkeypatch.setattr(
            search_module, "time", SimpleNamespace(monotonic=lambda: next(ticks) * 1e-6)
        )
        sq = symmetry_quotient(parse(Z9))
        with pytest.raises(SearchTimeoutError) as err:
            max_exceptional(sq, timeout_secs=0.02)
        log = err.value.proof_log
        assert log["forced_base"] is True
        assert 19_000 < log["stats"]["nodes"] < 21_000
        assert log["stats"]["symmetry_prunes"] > 0
        best = err.value.best_witness
        assert len(best) == err.value.best_size >= max(s["size"] for s in log["seeds"])
        assert base_vertex(sq) in best
        assert verify_collection(sq, best).valid

    def test_max_a_with_explicit_list_rejected(self, sq):
        window, _ = candidate_window(sq, max_a=1)
        with pytest.raises(ValueError, match="max_a"):
            max_exceptional(sq, vertices=window, max_a=1)


class TestInvariantErrors:
    def test_invalid_witness_raises_under_optimize(self):
        # python -O strips asserts; the typed error must still fire
        script = textwrap.dedent(
            f"""
            import dataclasses
            assert False, "stripped under -O"
            from invquot import SearchInvariantError, bidegree, parse, search
            from invquot import symmetry_quotient

            sq = symmetry_quotient(parse({PENTAGON!r}))
            real = search.verify_collection
            search.verify_collection = lambda sq, order: dataclasses.replace(
                real(sq, order), valid=False
            )
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
        verts, _ = candidate_window(sq, max_a=1)
        dot = export_digraph_dot(sq, verts)
        assert dot.startswith("digraph")
        for v in verts:
            assert f'"{v}"' in dot

    def test_json_export(self, sq):
        verts, _ = candidate_window(sq, max_a=1)
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
