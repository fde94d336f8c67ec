"""Maximum exceptional collections of line bundles, by exact branch and bound.

Vertices are bidegrees; there is an arrow u -> v when some Ext group from
O(u) to O(v) is nonzero. An exceptional collection is an induced acyclic
subgraph with no mutual arrows, ordered compatibly. The search space is cut
down to a finite window around the trivial bundle first: since twisting by a
line bundle is an automorphism of the whole picture, any collection can be
normalized to contain the base vertex, and every vertex forming a mutual
cycle with the base can never join it.

The branch and bound decides the window's vertices in index order, include
before exclude, and passes its whole state down the recursion as ints, so
backtracking undoes nothing. A vertex may join when it has no mutual arrow
with a chosen one and closes no cycle; the cycle test expands the vertex's
chosen descendants on demand. The same search, stopped at the first
collection of the proven optimum size, gives the canonical witness: the
lexicographically smallest optimal subset. Each pass returns its result with
its own counters, so the witness pass leaves the optimum's report alone. On
the candidate window, where the base is forced, the search also keeps only
one layer-0 set per translation class (see _Solver).
"""

from __future__ import annotations

import heapq
import operator
import time
from dataclasses import dataclass, field

from .errors import SearchInvariantError, SearchTimeoutError, UnsupportedGeometryError
from .homs import (
    BiDegree,
    _require_threefold,
    bidegree,
    ext_dims,
    ext_table,
)
from .symmetry import SymmetryQuotient

_SCAN_LIMIT = 64    # hard stop when hunting for the first all-positive row


def base_vertex(sq: SymmetryQuotient) -> BiDegree:
    return bidegree(sq, 0, [0] * len(sq.quotient_orders))


def edge(sq: SymmetryQuotient, u: BiDegree, v: BiDegree) -> bool:
    """True when some Ext group from O(u) to O(v) is nonzero (u != v)."""
    return u != v and any(ext_dims(sq, u, v))


def _sorted_distinct(vertices) -> list[BiDegree]:
    """The vertices sorted by bidegree without repeats; a list that is already
    strictly increasing, like a candidate window, is returned as it is."""
    if isinstance(vertices, list) and all(map(operator.lt, vertices, vertices[1:])):
        return vertices
    return sorted(set(vertices))


def hom_digraph(sq: SymmetryQuotient, vertices) -> dict[BiDegree, list[BiDegree]]:
    verts = _sorted_distinct(vertices)
    out = ext_table(sq).rows(verts)
    adj = {}
    for u, m in zip(verts, out):
        targets = []
        while m:
            low = m & -m
            targets.append(verts[low.bit_length() - 1])
            m ^= low
        adj[u] = targets
    return adj


def candidate_window(sq: SymmetryQuotient, max_a: int | None = None):
    """Finite vertex set that provably contains a maximum collection through
    the base, together with an audit trail of every exclusion.

    Layer a keeps the vertices v = (a, b) that do not form a mutual Ext cycle
    with the base. The arrow base -> v is Hom: the sections of S/(W) in
    bidegree (a, b). The arrow v -> base is Ext^3, by Serre duality dual to
    the sections in bidegree (a + d - n, b + the canonical residue).

    Scanning stops n - d layers after the first row whose section count is
    positive in every residue: two on a cubic threefold, where the Serre term
    has total degree d - n = -2, and never fewer than two (for d > 3 the
    extra layers are excluded whole). Positivity propagates upward through
    multiplication by a variable x_j that does not divide W: x_j then lies in
    no associated prime of (W), whose associated primes are the principal
    ideals of W's irreducible factors, so it is a nonzerodivisor on S/(W) and
    maps bidegree (a, b) injectively into (a + 1, b + char x_j). Since
    b -> b + char x_j permutes the residues, row a + 1 is positive wherever
    row a is. So from the stop layer on, Hom and the Serre term are both
    positive and every vertex has arrows both ways with the base. An
    invertible W is divisible by x_j exactly when every defining monomial
    contains x_j, which is what the free-variable check rules out.
    """
    _require_threefold(sq)
    table = ext_table(sq)
    base = base_vertex(sq)
    audit: dict = {"layers": [], "excluded": [], "certificate": None}

    # cutoff precondition: some defining monomial misses some variable x_j,
    # so x_j does not divide W and multiplication by it is injective on S/(W)
    if not any(0 in row for row in sq.poly.matrix.entries):
        raise UnsupportedGeometryError(
            "every defining monomial touches every variable, no cutoff certificate"
        )
    # the Serre term lags the Hom term by n - d layers
    span = max(2, -table.canonical[0])

    full_row = None
    a = 0
    vertices = []
    while True:
        if full_row is not None and a >= full_row + span:
            audit["certificate"] = {
                "first_all_positive_row": full_row,
                "stop_layer": a,
                "reason": (
                    "rows >= {0} have positive section count in every residue, "
                    "so every vertex there has arrows to and from the base"
                ).format(full_row),
            }
            break
        if max_a is not None and a > max_a:
            audit["certificate"] = {"stop_layer": a, "reason": "max_a cap"}
            break
        if a >= _SCAN_LIMIT:
            raise UnsupportedGeometryError(
                "no all-positive row found within the scan limit"
            )
        kept = []
        # the base is (0, residue number 0): forward reads difference (a, r),
        # backward (-a, -r)
        forward_row, backward_row = table._ext_row(a), table._ext_row(-a)
        for r, b in enumerate(table.residues):
            v = BiDegree(a=a, b=b)
            if v == base:
                kept.append(v)
                continue
            forward = forward_row[r]
            backward = backward_row[table.diff[r][0]]
            if any(forward) and any(backward):
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
        if full_row is None and min(table.hom_row(a)) > 0:
            full_row = a
        a += 1
    return vertices, audit


@dataclass(frozen=True)
class CollectionReport:
    valid: bool
    size: int
    violations: tuple[dict, ...]


def verify_collection(sq: SymmetryQuotient, order) -> CollectionReport:
    """Check an ordered sequence of bidegrees for exceptionality.

    Every object must have endomorphism Ext (1, 0, 0, 0), and every backward
    Ext (from a later object to an earlier one) must vanish entirely.
    """
    _require_threefold(sq)
    table = ext_table(sq)
    objs = list(order)
    keys = [(e.a, table.residue_index(e.b)) for e in objs]
    violations = []
    if len(set(objs)) != len(objs):
        violations.append({"kind": "duplicate objects"})
    # every endomorphism Ext is that of the zero difference
    self_ext = table._ext_row(0)[0]
    if self_ext != (1, 0, 0, 0):
        violations.extend(
            {"kind": "not exceptional", "object": str(e), "ext": list(self_ext)}
            for e in objs
        )
    diff = table.diff
    for j, (ja, jr) in enumerate(keys):
        for i in range(j):
            ia, ir = keys[i]
            back = table._ext_row(ia - ja)[diff[jr][ir]]
            if any(back):
                violations.append(
                    {
                        "kind": "backward ext",
                        "source": str(objs[j]),
                        "target": str(objs[i]),
                        "ext": list(back),
                    }
                )
    return CollectionReport(
        valid=not violations, size=len(objs), violations=tuple(violations)
    )


def find_cycles(sq: SymmetryQuotient, vertices, max_len: int):
    """All simple cycles of bounded length in the induced Ext digraph,
    each rotated to start at its smallest vertex, sorted."""
    import networkx as nx

    adj = hom_digraph(sq, vertices)
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((u, v) for u, vs in adj.items() for v in vs)
    out = []
    for cyc in nx.simple_cycles(g, length_bound=max_len):
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    out.sort(key=lambda c: (len(c), c))
    return out


@dataclass
class SearchResult:
    size: int
    witness: tuple[BiDegree, ...]       # in a valid exceptional order
    witness_set: tuple[BiDegree, ...]   # the same objects sorted by bidegree
    optimal: bool
    vertices: tuple[BiDegree, ...]      # the vertex list searched, sorted
    proof_log: dict = field(repr=False, default_factory=dict)


class _TimeUp(Exception):
    """The deadline passed; args are the incumbent (size, mask) and the
    interrupted pass's stats."""


class _Found(Exception):
    pass


class _Solver:
    """Branch and bound over one vertex list, the search state in plain ints.

    A node's state is (pos, chosen, count, undecided, conflicted): the next
    index to decide, the chosen vertices as a bitmask and their number, the
    vertices not decided yet, and the vertices with mutual arrows to some
    chosen one. Each branch passes a new state down the recursion and nothing
    is mutated, so backtracking is returning. The root state (nothing chosen,
    or the forced vertex) is kept in chosen, undecided and conflicted.

    The pair cap: when Hom in total degree 2 is nonzero at every nonzero
    residue difference (two_up_all) and Ext^3 from (a + 2, r) back to (a, r)
    is nonzero (serre_back: by Serre duality it is dual to the sections in
    bidegree (2, 0) + K), two layers of total degrees a and a + 2 hold at
    most m + 1 vertices of any collection, m the quotient order. For if
    residues r != s both occur in both layers, then
    (a, r) -> (a + 2, s) -> (a, s) -> (a + 2, r) -> (a, r) is a 4-cycle, two
    Hom arrows and two Ext^3 arrows. So at most one residue occurs in both
    layers, and a layer holds at most one vertex per residue. With m = 1
    there are no two residues and no cap.

    The translation leader, a lex-leader (Crawford-Ginsberg-Luks-Roy) for
    the quotient's own translations (0, r), is used only on the candidate
    window with the base forced, possibly cut by max_a. Once every layer-0
    vertex is decided, with R the chosen layer-0 residues, the node is kept
    only if, for every r in R, the sorted list of R is no larger than that
    of R - r; ties are kept. It is sound: suppose a collection C contains
    the base and (0, r). Twisting is an automorphism of the Ext digraph, so
    C - (0, r) is again a collection. It contains the base (the image of
    (0, r)), keeps the layer of every member, and, since it holds the base,
    has no member in mutual conflict with the base; so it lies in the same
    window, even one cut by max_a. Its layer-0 set is R - r. The smallest
    translate of R is a leader, since the translates of R - r are again
    translates of R, so some optimum survives. The canonical witness W*
    survives too: the layer-0 vertices are the window's first indices, in
    residue order, and for sets of one size comparing sorted index lists is
    include-first DFS order. If some translate of W*'s layer-0 set came
    earlier, the same translate of W* would be an optimal subset found
    before W*, which is the DFS-first one. So the witness pass with the
    leader on returns W* unchanged. An explicit vertex list need not be
    closed under translation and is searched without the leader.
    """

    def __init__(self, sq: SymmetryQuotient, verts: list[BiDegree], deadline):
        self.verts = verts
        self.n = n = len(verts)
        self.deadline = deadline
        self.index = {v: i for i, v in enumerate(verts)}
        table = ext_table(sq)
        self.out_mask = table.rows(verts)
        self.in_mask = [0] * n
        for i, m in enumerate(self.out_mask):
            bit = 1 << i
            while m:
                low = m & -m
                self.in_mask[low.bit_length() - 1] |= bit
                m ^= low
        self.conflict_mask = [
            self.out_mask[i] & self.in_mask[i] for i in range(n)
        ]
        m = sq.quotient_order
        ka, kr = table.canonical
        # the pair cap's two preconditions (see the class docstring);
        # residue number 0 is the zero residue
        two_up_all = all(h > 0 for h in table.hom_row(2)[1:])
        serre_back = table.hom(ka + 2, kr) > 0
        self.pair_cap = (m + 1) if (two_up_all and serre_back and m > 1) else None
        # the pair bound runs along chains of layers with total degrees two
        # apart; each chain is a list of layer bitmasks, lowest layer first
        self.chains: list[list[int]] = []
        chain_ending_at: dict[int, list[int]] = {}
        for a in sorted({v.a for v in verts}):
            chain = chain_ending_at.pop(a - 2, None)
            if chain is None:
                chain = []
                self.chains.append(chain)
            chain.append(sum(1 << i for i, v in enumerate(verts) if v.a == a))
            chain_ending_at[a] = chain
        self.chosen = 0
        self.undecided = (1 << n) - 1
        self.conflicted = 0
        # with the translation leader on, the residue numbers of layer 0 by
        # vertex index
        self.layer0: list[int] | None = None

    def _closes_cycle(self, v: int, chosen: int) -> bool:
        """True when adding v to the acyclic set chosen closes a cycle: some
        chosen predecessor of v is reachable from v inside chosen. Expands
        the chosen descendants of v one frontier at a time."""
        preds = self.in_mask[v] & chosen
        if not preds:
            return False
        out_mask = self.out_mask
        frontier = seen = out_mask[v] & chosen
        while frontier:
            if frontier & preds:
                return True
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= out_mask[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & chosen & ~seen
            seen |= frontier
        return False

    def _pair_bound(self, chosen: int, avail: int) -> int:
        """Admissible upper bound when two layers of total degrees a and a + 2
        together hold at most pair_cap chosen vertices: chain by chain, the
        largest sum of per-layer counts x_i with lo_i <= x_i <= hi_i and
        x_i + x_(i+1) <= cap, where lo_i counts the layer's chosen vertices
        and hi_i adds its available ones.

        One greedy pass from the lowest layer up is exact: it takes
        x_i = min(hi_i, cap - x_(i-1), cap - lo_(i+1)). Given an optimum y,
        at the first index where y differs, y_i < x_i (each term bounds y_i
        too); raising y_i to x_i and lowering y_(i+1) by as much, but not
        below lo_(i+1), keeps every constraint (the cap - lo_(i+1) term
        covers a y_(i+1) held at its floor) and does not lower the sum. So
        some optimum agrees with the greedy choice everywhere. The problem is
        infeasible exactly when some lo_i + lo_(i+1) > cap, which no
        reachable state allows.
        """
        cap = self.pair_cap
        total = 0
        for first, *rest in self.chains:
            lo = (chosen & first).bit_count()
            # room: the largest x_i that the layer and x_(i-1) allow
            room = lo + (avail & first).bit_count()
            for bits in rest:
                next_lo = (chosen & bits).bit_count()
                x = min(room, cap - next_lo)
                if x < lo:
                    raise SearchInvariantError("pair bound infeasible on a reachable state")
                total += x
                lo = next_lo
                room = min(lo + (avail & bits).bit_count(), cap - x)
            total += room
        return total

    # -- root state and greedy seeding ---------------------------------------

    def force(self, v: int):
        """Put v into the root state."""
        if self._closes_cycle(v, self.chosen):
            raise SearchInvariantError(f"forced vertex {self.verts[v]} closes a cycle")
        self.chosen |= 1 << v
        self.undecided &= ~(1 << v)
        self.conflicted |= self.conflict_mask[v]

    def lead_translations(self, table):
        """Keep one layer-0 set per translation class (see the class
        docstring). Sound only on the candidate window with the base forced;
        the window starts with layer 0, in residue order."""
        self.layer0 = [table.residue_index(v.b) for v in self.verts if v.a == 0]
        self.diff = table.diff

    def _leads(self, chosen: int) -> bool:
        """True when the chosen layer-0 residues R, as a sorted list, are no
        larger than R - r for any r in R."""
        diff = self.diff
        rs = [r for i, r in enumerate(self.layer0) if chosen >> i & 1]
        return all(rs <= sorted(diff[r][s] for s in rs) for r in rs)

    def greedy(self, order: list[int]) -> tuple[int, int]:
        """From the root state, add vertices in the given order whenever
        legal; returns (size, mask)."""
        chosen, conflicted = self.chosen, self.conflicted
        for v in order:
            if (chosen | conflicted) >> v & 1 or self._closes_cycle(v, chosen):
                continue
            chosen |= 1 << v
            conflicted |= self.conflict_mask[v]
        return chosen.bit_count(), chosen

    # -- branch and bound ----------------------------------------------------

    def search(self, best: int, best_mask: int | None, stop: bool = False):
        """Depth-first search from the root state, include before exclude in
        ascending index order, against the incumbent (best, best_mask). A
        node whose bound is at most best is pruned; a larger collection
        becomes the incumbent, or, with stop, ends the search. With the
        translation leader on, a state whose layer-0 set is no leader is cut
        as layer 0 is passed. Returns (size, mask, stats) with this pass's
        own counters; on the deadline raises _TimeUp carrying the same
        three."""
        n = self.n
        deadline = self.deadline
        conflict_mask = self.conflict_mask
        closes_cycle = self._closes_cycle
        pair_bound = self._pair_bound if self.pair_cap is not None else None
        improvements = []
        nodes = prunes = rejects = symmetry = 0
        monotonic = time.monotonic

        def node(descend=None):
            """The node function; it hands each child state to descend, by
            default to itself."""

            def dfs(pos, chosen, count, undecided, conflicted):
                nonlocal best, best_mask, nodes, prunes, rejects
                if count > best:
                    best, best_mask = count, chosen
                    if stop:
                        raise _Found
                    improvements.append({"size": count, "nodes": nodes})
                nodes += 1
                if deadline is not None and monotonic() > deadline:
                    raise _TimeUp
                while pos < n and not (undecided >> pos) & 1:
                    pos += 1
                if pos == n:
                    return
                avail = undecided & ~conflicted
                if pair_bound is None:
                    bound = count + avail.bit_count()
                else:
                    bound = pair_bound(chosen, avail)
                if bound <= best:
                    prunes += 1
                    return
                bit = 1 << pos
                undecided ^= bit
                if not conflicted & bit:
                    if closes_cycle(pos, chosen):
                        rejects += 1
                    else:
                        down(pos + 1, chosen | bit, count + 1, undecided,
                             conflicted | conflict_mask[pos])
                down(pos + 1, chosen, count, undecided, conflicted)

            down = descend or dfs
            return dfs

        root = dfs = node()
        if self.layer0 is not None:
            # layer-0 nodes hand their children to the gate; past layer 0 it
            # admits leaders only, so the nodes beyond never test pos. A cut
            # state counts as a node, and as a symmetry prune
            last = len(self.layer0)
            leads = self._leads

            def gate(pos, chosen, count, undecided, conflicted):
                nonlocal nodes, symmetry
                if pos < last:
                    head(pos, chosen, count, undecided, conflicted)
                elif leads(chosen):
                    dfs(pos, chosen, count, undecided, conflicted)
                else:
                    nodes += 1
                    symmetry += 1

            root = head = node(gate)

        def stats():
            return {
                "nodes": nodes,
                "bound_prunes": prunes,
                "cycle_rejects": rejects,
                "symmetry_prunes": symmetry,
                "improvements": improvements,
            }

        try:
            root(0, self.chosen, self.chosen.bit_count(), self.undecided, self.conflicted)
        except _Found:
            pass
        except _TimeUp:
            raise _TimeUp(best, best_mask, stats()) from None
        return best, best_mask, stats()

    def witness(self, mask: int) -> tuple[BiDegree, ...]:
        """The masked vertices in topological order, smallest ready index first."""
        members = [i for i in range(self.n) if (mask >> i) & 1]
        indeg = {i: (self.in_mask[i] & mask).bit_count() for i in members}
        ready = [i for i in members if indeg[i] == 0]
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            m = self.out_mask[v] & mask
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(members):
            raise SearchInvariantError("collection mask is not acyclic")
        return tuple(self.verts[i] for i in order)


def max_exceptional(
    sq: SymmetryQuotient,
    vertices=None,
    timeout_secs: float | None = None,
    max_a: int | None = None,
) -> SearchResult:
    """Size and witness of a maximum exceptional collection inside the window.

    With no explicit vertex list the candidate window is derived, cut at
    total degree max_a if given, and the base vertex is forced into the
    collection (any collection in the window can be twisted to contain it,
    so this loses nothing); the search then keeps one layer-0 set per
    translation class. An explicit vertex list is searched as given, without
    forcing or the translation leader, and takes no max_a.

    The witness is canonical: the lexicographically smallest optimal subset,
    ordered by a deterministic topological sort. Raises SearchTimeoutError
    with the best collection found so far when the budget runs out.
    """
    _require_threefold(sq)
    t0 = time.monotonic()
    deadline = t0 + timeout_secs if timeout_secs is not None else None
    proof_log: dict = {}
    window = vertices is None
    if window:
        verts, audit = candidate_window(sq, max_a=max_a)
        proof_log["window"] = audit
    elif max_a is not None:
        raise ValueError("max_a cuts the derived window, not an explicit vertex list")
    else:
        verts = _sorted_distinct(vertices)
    base = base_vertex(sq)
    proof_log["vertices"] = len(verts)
    proof_log["forced_base"] = window

    solver = _Solver(sq, verts, deadline)
    if window:
        solver.force(solver.index[base])
        solver.lead_translations(ext_table(sq))

    # deterministic greedy seeds: plain order, and plain order with the
    # nonzero residues of layer 0 deferred to the end
    orders = [list(range(solver.n))]
    deferred = [
        i for i in range(solver.n) if verts[i].a == 0 and verts[i] != base
    ]
    orders.append([i for i in range(solver.n) if i not in deferred] + deferred)
    best_size, best_mask = solver.chosen.bit_count(), solver.chosen
    seeds = []
    for name, order in zip(("plain", "layer0-last"), orders):
        size, mask = solver.greedy(order)
        seeds.append({"order": name, "size": size})
        if size > best_size:
            best_size, best_mask = size, mask
    proof_log["seeds"] = seeds

    try:
        best_size, best_mask, stats = solver.search(best_size, best_mask)
    except _TimeUp as up:
        size, mask, stats = up.args
        raise SearchTimeoutError(
            f"search budget exhausted after {time.monotonic() - t0:.1f}s",
            best_size=size,
            best_witness=solver.witness(mask),
            proof_log={**proof_log, "stats": stats},
        ) from None
    proof_log["stats"] = stats
    proof_log["optimum"] = best_size

    # the witness pass: the same search, stopped at the first collection of
    # the optimum size; its counters stay out of the report
    try:
        size, exact, _ = solver.search(best_size - 1, None, stop=True)
    except _TimeUp:
        # the optimum is already proven, but the canonical witness is not;
        # the run must not return an arbitrary one
        raise SearchTimeoutError(
            "budget exhausted while canonicalizing the witness "
            f"(optimum {best_size} already proven)",
            best_size=best_size,
            best_witness=solver.witness(best_mask),
            proof_log={**proof_log, "optimum_proven": True},
        ) from None
    if size != best_size:
        raise SearchInvariantError(
            f"no collection of the proven optimum size {best_size} found"
        )
    witness = solver.witness(exact)
    if not verify_collection(sq, witness).valid:
        raise SearchInvariantError("search produced an invalid collection")
    return SearchResult(
        size=best_size,
        witness=witness,
        witness_set=tuple(sorted(witness)),
        optimal=True,
        vertices=tuple(verts),
        proof_log=proof_log,
    )


def export_digraph_dot(sq: SymmetryQuotient, vertices) -> str:
    adj = hom_digraph(sq, vertices)
    lines = ["digraph ext {"]
    for u in adj:
        lines.append(f'  "{u}";')
    for u, vs in adj.items():
        for v in vs:
            lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)


def export_digraph_json(sq: SymmetryQuotient, vertices) -> dict:
    """The Ext digraph as {"vertices": [[a, b], ...], "edges": [[u, v], ...]}.

    Vertices are sorted by bidegree, and edges by source, then target. Each
    vertex is one [a, b] list, with b a list, and the same list object is
    shared by "vertices" and every edge at that vertex: copy an entry before
    mutating it.
    """
    verts = _sorted_distinct(vertices)
    node = [[v.a, list(v.b)] for v in verts]
    edges = []
    for u, m in zip(node, ext_table(sq).rows(verts)):
        while m:
            low = m & -m
            edges.append([u, node[low.bit_length() - 1]])
            m ^= low
    return {"vertices": node, "edges": edges}
