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
backtracking undoes nothing. A vertex may join when it closes no cycle with
the chosen ones. Every vertex that would close one is kept in a blocked
mask, updated as each vertex joins from its chosen ancestors and
descendants, so the bound never counts a vertex that can no longer join,
and the include test is one bit. The same search, stopped at the first
collection of the proven optimum size, gives the canonical witness: the
lexicographically smallest optimal subset. Each pass returns its result with
its own counters, so the witness pass leaves the optimum's report alone. On
the candidate window, where the base is forced, the search also keeps only
one layer-0 set per translation class; on a cubic threefold, two layers of
total degrees two apart hold at most m + alpha vertices, alpha found by the
same search on an m-vertex digraph (see _Solver).
"""

from __future__ import annotations

import heapq
import operator
import time

from .errors import SearchInvariantError, SearchTimeoutError, UnsupportedGeometryError
from .homs import (
    BiDegree,
    _require_threefold,
    bidegree,
    ext_dims,
    ext_table,
)
from .record import FrozenRecord, Record
from .symmetry import SymmetryQuotient

_SCAN_LIMIT = 64    # hard stop when hunting for the first all-positive row


def _byte_bits() -> tuple[bytes, ...]:
    """The offsets of the set bits of every byte value, ascending, each as a
    bytes object: the entry of b + 2**k, for b < 2**k, is that of b with k
    appended. Bytes, not tuples, so that the table leaves no objects for the
    cyclic garbage collector to track."""
    table = [b""]
    for k in range(8):
        table += [bits + bytes((k,)) for bits in table]
    return tuple(table)


# a row of n vertices is read a byte at a time, as m.to_bytes((n + 7) // 8,
# "little"): the set bits of the byte at offset at are at + k, k in
# _BYTE_BITS[byte], so zero bytes are skipped and no big int is made per bit
_BYTE_BITS = _byte_bits()


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


def candidate_window(sq: SymmetryQuotient):
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


class CollectionReport(FrozenRecord):
    _fields = ("valid", "size", "violations")

    def __init__(self, valid: bool, size: int, violations: tuple[dict, ...]):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "violations", violations)


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


class SearchResult(Record):
    _fields = ("size", "witness", "witness_set", "optimal", "vertices")

    def __init__(
        self,
        size: int,
        witness: tuple[BiDegree, ...],      # in a valid exceptional order
        witness_set: tuple[BiDegree, ...],  # the same objects sorted by bidegree
        optimal: bool,
        vertices: tuple[BiDegree, ...],     # the vertex list searched, sorted
        proof_log: dict | None = None,
    ):
        self.size = size
        self.witness = witness
        self.witness_set = witness_set
        self.optimal = optimal
        self.vertices = vertices
        self.proof_log = {} if proof_log is None else proof_log

    def _values(self) -> tuple:
        # the proof log is compared but left out of the repr
        return (*super()._values(), self.proof_log)


class _TimeUp(Exception):
    """The deadline passed; args are the incumbent (size, mask) and the
    interrupted pass's stats."""


class _Found(Exception):
    pass


def _blocks(in_rows: list[int], out_rows: list[int], v: int, chosen: int) -> int:
    """The vertices that adding v to the acyclic set chosen newly blocks: the
    in-neighbours of v and its chosen ancestors, met with the out-neighbours
    of v and its chosen descendants (see _Solver). Each side is the union of
    its rows over v and every vertex of chosen that v reaches along them
    inside chosen, expanded one frontier at a time. The two expansions are
    written out, not looped over, since this runs at every include."""
    ins = in_rows[v]
    frontier = done = ins & chosen
    while frontier:
        while frontier:
            low = frontier & -frontier
            ins |= in_rows[low.bit_length() - 1]
            frontier ^= low
        frontier = ins & chosen & ~done
        done |= frontier
    outs = out_rows[v]
    frontier = done = outs & chosen
    while frontier:
        while frontier:
            low = frontier & -frontier
            outs |= out_rows[low.bit_length() - 1]
            frontier ^= low
        frontier = outs & chosen & ~done
        done |= frontier
    return ins & outs


class _Solver:
    """Branch and bound over one digraph, given by its out rows, the search
    state in plain ints.

    A node's state is (pos, chosen, count, undecided, blocked): the next
    index to decide, the chosen vertices as a bitmask and their number, the
    vertices not decided yet, and the vertices that would close a cycle with
    the chosen ones. Each branch passes a new state down the recursion and
    nothing is mutated, so backtracking is returning. The root state (nothing
    chosen, or the forced vertex) is kept in chosen, undecided and blocked.
    The same solver searches a window of bidegrees and the m-vertex digraph
    behind the pair cap (see _pair_cap).

    The blocked mask: when v joins the acyclic set C, let A be v with its
    ancestors inside C and D be v with its descendants inside C. The newly
    blocked vertices are OR(in_mask[x], x in A) & OR(out_mask[y], y in D):
    w is among them exactly when C + {v, w} has a cycle through v, namely
    v -> .. -> y -> w -> x -> .. -> v with every inner vertex in C. A cycle
    of C + {v, w} that misses v is one of C + {w}, so w was blocked before v
    joined; a mutual arrow is the cycle of length two. No vertex of C + {v}
    is ever blocked, since that set is acyclic. Blocking is admissible: a
    blocked w closes a cycle in every superset of C + {v}, so it can join no
    collection below the node. Taking it out of the available set lowers the
    bound only by vertices that no descendant can hold, and the DFS order is
    unchanged, so every optimum and the canonical witness stay as they are.

    The pair cap on a cubic threefold, where K = (-2, k): two layers of
    total degrees a and a + 2 hold at most cap(2) = m + alpha vertices of
    any collection, m the quotient order. Twisting moves them to layers 0
    and 2, and a collection stays one on any subset, so take layers 0 and 2
    full, one vertex per residue. Three facts about their arrows, checked on
    ExtTable.rows before the cap is derived: (1) no layer has an arrow
    inside it; (2) the only arrows up are Hom arrows, (0, r) -> (2, s)
    exactly when hom(2, s - r) > 0; (3) each (2, s) has exactly one arrow
    down, an Ext^3 arrow dual to total degree 0, to (0, sigma(s)) with
    sigma a translation (by k). Let R + S be a collection, R in layer 0 and
    S in layer 2, and P = {s in S : sigma(s) in R}. Sigma is a bijection, so
    it maps S - P injectively into the residues missing from R, and
    |R| + |S| <= m + |P|. Let H be the digraph on the m residues with
    t -> t' exactly when (0, t) -> (2, sigma^-1(t')), that is when
    hom(2, sigma^-1(t') - t) > 0. A cycle t -> t' -> .. of H inside
    sigma(P) lifts to the cycle (0, t) -> (2, sigma^-1(t')) -> (0, t') -> ..
    inside R + S, so sigma(P) is acyclic in H and |P| <= alpha, the size of
    the largest acyclic set of H. The cap is reached: take R all of layer 0
    and S = sigma^-1(A), A an optimal acyclic set of H. By (1) and (3) a
    cycle of R + S alternates up and down, each down arrow lands on some
    sigma(s) in A, and so the cycle's layer-0 vertices form a cycle of H
    inside A, which has none. H is translation-invariant, so alpha is found
    by this same solver on H's m rows, with residue 0 forced and the
    translation leader on (every translate of an acyclic set is one); a
    loop of H at one residue is a loop at all, and then alpha = 0. A
    quotient where a fact fails, the quadric for one, has no cap.

    One full layer is a collection, so cap(2) >= m: the cap can bind only
    where two layers two apart of the searched list hold more than m
    vertices together, and alpha is computed only then, after the greedy
    seeds and under the same deadline. The node bound is taken cheapest
    first: count + available, and only when that does not prune, the pair
    bound, which is never larger (see _pair_bound), so the order changes no
    decision.

    The translation leader, a lex-leader (Crawford-Ginsberg-Luks-Roy) for
    the quotient's own translations (0, r), is used only on the candidate
    window with the base forced, and on H. Once every layer-0 vertex is
    decided, with R the chosen layer-0 residues, the node is kept only if,
    for every r in R, the sorted list of R is no larger than that of R - r;
    ties are kept. It is sound: suppose a collection C contains the base and
    (0, r). Twisting is an automorphism of the Ext digraph, so C - (0, r) is
    again a collection. It contains the base (the image of (0, r)), keeps
    the layer of every member, and, since it holds the base, has no member
    in mutual conflict with the base; so it lies in the same window. Its
    layer-0 set is R - r. The smallest translate of R is a leader, since the
    translates of R - r are again translates of R, so some optimum survives.
    The canonical witness W* survives too: the layer-0 vertices are the
    window's first indices, in residue order, and for sets of one size
    comparing sorted index lists is include-first DFS order. If some
    translate of W*'s layer-0 set came earlier, the same translate of W*
    would be an optimal subset found before W*, which is the DFS-first one.
    So the witness pass with the leader on returns W* unchanged. On H, every
    vertex is in "layer 0" and the same argument holds with the forced
    residue 0 for the base. An explicit vertex list need not be closed under
    translation and is searched without the leader.
    """

    def __init__(self, out_mask: list[int], deadline, chains: list[list[int]] = ()):
        self.out_mask = out_mask
        self.n = n = len(out_mask)
        self.deadline = deadline
        # the in rows are the transpose of the out rows, each read a byte at
        # a time
        self.in_mask = in_mask = [0] * n
        width, offsets = (n + 7) // 8, range(0, n, 8)
        for i, m in enumerate(out_mask):
            bit = 1 << i
            for at, byte in zip(offsets, m.to_bytes(width, "little")):
                if byte:
                    for k in _BYTE_BITS[byte]:
                        in_mask[at + k] |= bit
        # the pair bound runs along chains of layers with total degrees two
        # apart, each a list of layer bitmasks, lowest layer first; the cap
        # and the per-position plan are set once the cap is known
        self.chains = chains
        self.pair_cap: int | None = None
        self.plan: list[tuple] = []
        self.chosen = 0
        self.undecided = (1 << n) - 1
        self.blocked = 0
        # with the translation leader on, the residue numbers of layer 0 by
        # vertex index
        self.layer0: list[int] | None = None

    def set_pair_cap(self, cap: int):
        """Turn the pair bound on with cap, and plan its pass for every
        index pos of a node's next vertex: the bits of pos's layer, then, for
        each chain with a layer at or above pos (pos's chain first), its last
        layer wholly below pos (0 if none) and its layers from there up. The
        plan is the same for every pos of one layer. Each layer of a sorted
        vertex list is one index range and holds at most m <= cap vertices;
        a larger layer is an invariant error."""
        if any(bits.bit_count() > cap for chain in self.chains for bits in chain):
            raise SearchInvariantError("a layer holds more vertices than the pair cap")
        self.pair_cap = cap
        self.plan = plan = [()] * self.n
        for chain in self.chains:
            for bits in chain:
                if not bits:
                    continue
                first = (bits & -bits).bit_length() - 1
                runs = []
                for other in self.chains:
                    k = next((k for k, b in enumerate(other) if b >> first), None)
                    if k is None:
                        continue
                    run = (other[k - 1] if k else 0, tuple(other[k:]))
                    if other is chain:
                        runs.insert(0, run)
                    else:
                        runs.append(run)
                plan[first:bits.bit_length()] = [(bits, tuple(runs))] * bits.bit_count()

    def _pair_bound(self, pos: int, chosen: int, count: int, avail: int) -> int:
        """Admissible upper bound when two layers of total degrees a and a + 2
        together hold at most pair_cap chosen vertices: chain by chain, the
        largest sum of per-layer counts x_i with lo_i <= x_i <= hi_i and
        x_i + x_(i+1) <= cap, where lo_i counts the layer's chosen vertices
        and hi_i adds its available ones. It is never above count + avail,
        since each x_i is at most hi_i.

        One greedy pass from the lowest layer up is exact: it takes
        x_i = min(hi_i, cap - x_(i-1), cap - lo_(i+1)). Given an optimum y,
        at the first index where y differs, y_i < x_i (each term bounds y_i
        too); raising y_i to x_i and lowering y_(i+1) by as much, but not
        below lo_(i+1), keeps every constraint (the cap - lo_(i+1) term
        covers a y_(i+1) held at its floor) and does not lower the sum. So
        some optimum agrees with the greedy choice everywhere. The problem is
        infeasible exactly when some lo_i + lo_(i+1) > cap, which no
        reachable state allows.

        The pass runs over the open layers only. At a DFS node every vertex
        below pos is decided and none at or above it is chosen (the forced
        base is vertex 0), and each layer is an index range. A layer wholly
        below pos's layer has hi = lo, so the pass takes x = lo there, and
        together these layers add count - lo_cur, lo_cur the chosen vertices
        of pos's layer. A layer above pos's layer has lo = 0, so the
        cap - lo_(i+1) term never binds on the layer before it: x_(i-1) >= 0
        already keeps x_i at most cap, and on the first layer of a chain so
        does its size (see set_pair_cap). So each chain takes
        x = min(hi, cap - x_prev) over its open layers, from x_prev = lo of
        its last decided layer (0 if none). Feasibility is checked on the
        last decided layer of pos's chain with pos's layer, the pair the DFS
        is filling; a pair wholly below was that pair while it was filled,
        and a pair that meets a layer above has lo = 0 there.
        """
        cap = self.pair_cap
        current, runs = self.plan[pos]
        lo = (chosen & current).bit_count()
        if lo + (chosen & runs[0][0]).bit_count() > cap:
            raise SearchInvariantError("pair bound infeasible on a reachable state")
        total = count - lo
        held = chosen | avail
        for decided, layers in runs:
            x = (chosen & decided).bit_count()
            for bits in layers:
                hi = (held & bits).bit_count()
                x = cap - x
                if hi < x:
                    x = hi
                total += x
        return total

    # -- root state and greedy seeding ---------------------------------------

    def force(self, v: int):
        """Put v into the root state."""
        if self.blocked >> v & 1:
            raise SearchInvariantError(f"forced vertex {v} closes a cycle")
        self.blocked |= _blocks(self.in_mask, self.out_mask, v, self.chosen)
        self.chosen |= 1 << v
        self.undecided &= ~(1 << v)

    def lead_translations(self, residues: list[int], diff: list[list[int]]):
        """Keep one layer-0 set per translation class (see the class
        docstring). residues holds the residue numbers of the first vertices,
        layer 0, in residue order, and diff the quotient's difference table.
        Sound only on a list closed under translation with its base forced."""
        self.layer0 = residues
        self.diff = diff

    def _leads(self, chosen: int) -> bool:
        """True when the chosen layer-0 residues R, as a sorted list, are no
        larger than R - r for any r in R."""
        diff = self.diff
        rs = [r for i, r in enumerate(self.layer0) if chosen >> i & 1]
        return all(rs <= sorted(diff[r][s] for s in rs) for r in rs)

    def greedy(self, order: list[int]) -> tuple[int, int]:
        """From the root state, add vertices in the given order whenever
        legal; returns (size, mask)."""
        ins, outs = self.in_mask, self.out_mask
        chosen, blocked = self.chosen, self.blocked
        for v in order:
            if (chosen | blocked) >> v & 1:
                continue
            blocked |= _blocks(ins, outs, v, chosen)
            chosen |= 1 << v
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
        ins, outs = self.in_mask, self.out_mask
        pair_bound = self._pair_bound if self.pair_cap is not None else None
        improvements = []
        nodes = prunes = rejects = symmetry = 0
        monotonic = time.monotonic

        def node(descend=None):
            """The node function; it hands each child state to descend, by
            default to itself."""

            def dfs(pos, chosen, count, undecided, blocked):
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
                avail = undecided & ~blocked
                # cheapest bound first; the pair bound is never larger
                bound = count + avail.bit_count()
                if bound > best and pair_bound is not None:
                    bound = pair_bound(pos, chosen, count, avail)
                if bound <= best:
                    prunes += 1
                    return
                bit = 1 << pos
                undecided ^= bit
                if blocked & bit:
                    rejects += 1
                else:
                    down(pos + 1, chosen | bit, count + 1, undecided,
                         blocked | _blocks(ins, outs, pos, chosen))
                down(pos + 1, chosen, count, undecided, blocked)

            down = descend or dfs
            return dfs

        root = dfs = node()
        if self.layer0 is not None:
            # layer-0 nodes hand their children to the gate; past layer 0 it
            # admits leaders only, so the nodes beyond never test pos. A cut
            # state counts as a node, and as a symmetry prune
            last = len(self.layer0)
            leads = self._leads

            def gate(pos, chosen, count, undecided, blocked):
                nonlocal nodes, symmetry
                if pos < last:
                    head(pos, chosen, count, undecided, blocked)
                elif leads(chosen):
                    dfs(pos, chosen, count, undecided, blocked)
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
            root(0, self.chosen, self.chosen.bit_count(), self.undecided, self.blocked)
        except _Found:
            pass
        except _TimeUp:
            raise _TimeUp(best, best_mask, stats()) from None
        return best, best_mask, stats()

    def order(self, mask: int) -> list[int]:
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
        return order


def _chains(verts: list[BiDegree]) -> list[list[int]]:
    """The layers of a sorted vertex list as bitmasks, in chains of total
    degrees two apart, lowest layer first."""
    chains: list[list[int]] = []
    chain_ending_at: dict[int, list[int]] = {}
    layers: dict[int, int] = {}
    for i, v in enumerate(verts):
        layers[v.a] = layers.get(v.a, 0) | 1 << i
    for a, bits in layers.items():
        chain = chain_ending_at.pop(a - 2, None)
        if chain is None:
            chain = []
            chains.append(chain)
        chain.append(bits)
        chain_ending_at[a] = chain
    return chains


def _pair_cap(sq: SymmetryQuotient, deadline) -> dict | None:
    """{"cap": m + alpha, "alpha": alpha, "nodes": nodes of the alpha search},
    or None when the three facts behind the cap fail (see _Solver). Kept with
    the quotient; a deadline that passes in the alpha search raises _TimeUp
    and keeps nothing."""
    if "pair_cap" in sq.derived:
        return sq.derived["pair_cap"]
    table = ext_table(sq)
    m = len(table.residues)
    diff = table.diff
    out = table.rows([BiDegree(a=a, b=b) for a in (0, 2) for b in table.residues])
    layer = (1 << m) - 1
    hom_two = table.hom_row(2)
    # fact 3: the only arrow of (2, s) goes down to (0, s + c), one c for all s
    shifts = {
        diff[s][row.bit_length() - 1] if row & layer == row and row.bit_count() == 1 else None
        for s, row in enumerate(out[m:])
    }
    # facts 1 and 2: (0, r) has arrows up only, to (2, s) when hom(2, s - r) > 0
    facts = len(shifts) == 1 and None not in shifts and all(
        row == sum(1 << m + s for s in range(m) if hom_two[diff[r][s]] > 0)
        for r, row in enumerate(out[:m])
    )
    if not facts:
        sq.derived["pair_cap"] = None
        return None
    (c,) = shifts
    # H: t -> sigma(s) = s + c for every arrow (0, t) -> (2, s)
    sigma = diff[diff[c][0]]        # s -> s + c
    rows = [sum(1 << sigma[s] for s in range(m) if row >> m + s & 1) for row in out[:m]]
    if rows[0] & 1:
        # a loop at residue 0, so at every residue: no vertex of H can join
        alpha, nodes = 0, 0
    else:
        solver = _Solver(rows, deadline)
        solver.force(0)
        solver.lead_translations(list(range(m)), diff)
        alpha, _, stats = solver.search(1, solver.chosen)
        nodes = stats["nodes"]
    cap = sq.derived["pair_cap"] = {"cap": m + alpha, "alpha": alpha, "nodes": nodes}
    return cap


def max_exceptional(
    sq: SymmetryQuotient,
    vertices=None,
    timeout_secs: float | None = None,
) -> SearchResult:
    """Size and witness of a maximum exceptional collection inside the window.

    With no explicit vertex list the candidate window is derived and the
    base vertex is forced into the collection (any collection in the window
    can be twisted to contain it, so this loses nothing); the search then
    keeps one layer-0 set per translation class. An explicit vertex list is
    searched as given, without forcing or the translation leader. Either way
    the pair cap (see _Solver) is derived, after the greedy seeds, wherever
    it can bind, and recorded in proof_log["pair_cap"] (None where it cannot
    bind or the quotient has none).

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
        verts, audit = candidate_window(sq)
        proof_log["window"] = audit
    else:
        verts = _sorted_distinct(vertices)
    base = base_vertex(sq)
    proof_log["vertices"] = len(verts)
    proof_log["forced_base"] = window

    table = ext_table(sq)
    solver = _Solver(table.rows(verts), deadline, _chains(verts))
    if window:
        # the window starts with layer 0 in residue order, the base first
        solver.force(0)
        solver.lead_translations(
            [table.residue_index(v.b) for v in verts if v.a == 0], table.diff
        )

    def timed_out(message, size, mask, log):
        return SearchTimeoutError(
            message,
            best_size=size,
            best_witness=tuple(verts[i] for i in solver.order(mask)),
            proof_log=log,
        )

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

    # cap(2) >= m can bind only where two layers two apart hold more than m
    # vertices together; a lone layer never holds more than m
    m = len(table.residues)
    cap = None
    if any((x | y).bit_count() > m for c in solver.chains for x, y in zip(c, c[1:])):
        try:
            cap = _pair_cap(sq, deadline)
        except _TimeUp as up:
            raise timed_out(
                f"search budget exhausted after {time.monotonic() - t0:.1f}s "
                "while computing the pair cap",
                best_size, best_mask,
                {**proof_log, "pair_cap": {"timed_out": True, "nodes": up.args[2]["nodes"]}},
            ) from None
    if cap is not None:
        solver.set_pair_cap(cap["cap"])
        cap = dict(cap)
    proof_log["pair_cap"] = cap

    try:
        best_size, best_mask, stats = solver.search(best_size, best_mask)
    except _TimeUp as up:
        size, mask, stats = up.args
        raise timed_out(
            f"search budget exhausted after {time.monotonic() - t0:.1f}s",
            size, mask, {**proof_log, "stats": stats},
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
        raise timed_out(
            "budget exhausted while canonicalizing the witness "
            f"(optimum {best_size} already proven)",
            best_size, best_mask, {**proof_log, "optimum_proven": True},
        ) from None
    if size != best_size:
        raise SearchInvariantError(
            f"no collection of the proven optimum size {best_size} found"
        )
    witness = tuple(verts[i] for i in solver.order(exact))
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


def export_digraph_json(sq: SymmetryQuotient, vertices) -> dict:
    """The Ext digraph as {"vertices": [[a, b], ...], "edges": [[u, v], ...]}.

    Vertices are sorted by bidegree, and edges by source, then target. Each
    vertex is one [a, b] list, with b a list, and the same list object is
    shared by "vertices" and every edge at that vertex: copy an entry before
    mutating it.

    Each out row is read a byte at a time (see _BYTE_BITS): its bytes are
    walked low to high with the zero ones skipped, and the set bits of a byte
    name vertices of that byte's span of eight, in ascending order, so the
    edges come out in the same order as bit by bit. _blocks keeps peeling
    bits off, since its frontiers hold only a few.
    """
    verts = _sorted_distinct(vertices)
    node = [[v.a, list(v.b)] for v in verts]
    # the vertices of each byte of a row, eight to a byte
    spans = [node[at:at + 8] for at in range(0, len(node), 8)]
    width = len(spans)
    edges = [
        [u, span[k]]
        for u, m in zip(node, ext_table(sq).rows(verts))
        for span, byte in zip(spans, m.to_bytes(width, "little"))
        if byte
        for k in _BYTE_BITS[byte]
    ]
    return {"vertices": node, "edges": edges}
