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
the candidate window, where the base is forced, the search also keeps one
state per symmetry class, a lex-leader over the quotient's translations and
the residue maps read off the window's Ext rows (the additive bijections of
the residue group that keep which entries of every row are nonzero),
checked at every layer boundary; on a cubic threefold, two layers of total
degrees two apart hold at most m + alpha vertices, alpha found by the same
search on an m-vertex digraph (see _Solver).
"""

from __future__ import annotations

import operator
import time
from itertools import compress

from .errors import SearchInvariantError, SearchTimeoutError, UnsupportedGeometryError
from .homs import (
    BiDegree,
    _require_threefold,
    bidegree,
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
    audit: dict = {"layers": [], "excluded": [], "certificate": None}

    # cutoff precondition: some defining monomial misses some variable x_j,
    # so x_j does not divide W and multiplication by it is injective on S/(W)
    if not any(0 in row for row in sq.poly.matrix):
        raise UnsupportedGeometryError(
            "every defining monomial touches every variable, no cutoff certificate"
        )
    # the Serre term lags the Hom term by n - d layers
    span = max(2, -table.canonical[0])

    # minus[r]: the number of -r
    minus = [row[0] for row in table.diff]
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
        # the base is (0, residue number 0): forward reads difference (a, r),
        # backward (-a, -r); a vertex is excluded when both are nonzero
        backward = table.nonzero_row(-a)
        mutual = list(
            map(operator.mul, table.nonzero_row(a), map(backward.__getitem__, minus))
        )
        if a == 0:
            mutual[0] = 0    # the base itself, kept
        # the layer's audit reads the Hom and Serre rows of a and -a once
        excluded = list(compress(range(len(mutual)), mutual))
        audit["excluded"] += [
            {
                "vertex": [a, list(table.residues[r])],
                "reason": "mutual arrows with base",
                "ext_base_to_v": to_v,
                "ext_v_to_base": to_base,
            }
            for r, to_v, to_base in zip(
                excluded,
                table.exts(a, excluded),
                table.exts(-a, map(minus.__getitem__, excluded)),
            )
        ]
        kept = [
            BiDegree(a, b)
            for b in compress(table.residues, map(operator.not_, mutual))
        ]
        vertices.extend(kept)
        audit["layers"].append({"a": a, "kept": len(kept)})
        if full_row is None and min(table.hom_row(a)) > 0:
            full_row = a
        a += 1
    return vertices, audit


class CollectionReport(FrozenRecord):
    _fields = ("valid", "size", "violations")


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
    self_ext = table.ext(0, 0)
    if self_ext != (1, 0, 0, 0):
        violations.extend(
            {"kind": "not exceptional", "object": str(e), "ext": list(self_ext)}
            for e in objs
        )
    diff = table.diff
    for j, (ja, jr) in enumerate(keys):
        for i in range(j):
            ia, ir = keys[i]
            if table.nonzero_row(ia - ja)[diff[jr][ir]]:
                violations.append(
                    {
                        "kind": "backward ext",
                        "source": str(objs[j]),
                        "target": str(objs[i]),
                        "ext": list(table.ext(ia - ja, diff[jr][ir])),
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
    nothing is mutated, so backtracking is returning; the one record kept
    along the path is the lex-leader's, the symmetries still tied per layer,
    overwritten each time the DFS completes that layer (see _leads). The
    root state (nothing chosen, or the forced vertex) is kept in chosen,
    undecided and blocked.
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
    inside A, which has none. H is translation-invariant and every
    translate of an acyclic set of H is acyclic, so alpha is found by this
    same solver on H's m rows with residue 0 forced; a loop of H at one
    residue is a loop at all, and then alpha = 0. A quotient where a fact
    fails, the quadric for one, has no cap.

    H is searched without the lex-leader below, which would change nothing
    there: H is one layer, so the gate could cut only a leaf C, at its last
    vertex. Let L be the smallest translate of C that holds 0. No
    translation cuts L, whose images through 0 are translates of C too, and
    L comes before C in include-first DFS order, since C was cut. So before
    C the search either reached L, and best >= |L| = |C|, or pruned an
    ancestor of L at a bound <= best, which is at least |L|, as L is acyclic
    and each of its vertices was chosen or available there. Either way C
    cannot raise the incumbent, and a cut leaf counts one node as a reached
    one does, so alpha, the node count and every decision are unchanged.

    One full layer is a collection, so cap(2) >= m: the cap can bind only
    where two layers two apart of the searched list hold more than m
    vertices together, and alpha is computed only then, after the greedy
    seeds and under the same deadline. The node bound is taken cheapest
    first: count + available, and only when that does not prune, the pair
    bound, which is never larger (see _pair_bound), so the order changes no
    decision.

    The lex-leader (Crawford-Ginsberg-Luks-Roy) is used only on the
    candidate window with the base forced. Its symmetries are the
    maps g = t_-phi(r) o phi: phi is the identity or a residue map, which
    sends (a, s) to (a, phi(s)), and t_c translates every residue by c. A
    residue map is an additive bijection of the residue group that keeps
    which entries of each Ext difference row of total degree -top..top are
    nonzero, top the window's last layer (see _residue_maps). With R_0,
    ..., R_(k-1) the chosen residues of the layers already passed, r runs
    over R_0. A child of the DFS that completes a layer (whose index is the
    first of the next layer, or n) goes through the gate, and the state is
    cut when some g gives a list
    (sorted g(R_0), ..., sorted g(R_(k-1))) lexicographically smaller than
    (sorted R_0, ..., sorted R_(k-1)); ties are kept. A cut state counts as
    a node and as a symmetry prune. Each g is one list from residue number
    to residue number, and the gate tries every t_-c o phi but the identity,
    c any residue: R_0 holds the base's residue 0, and one with c outside
    phi(R_0) sends no member of R_0 to 0, so its image of R_0 is the larger
    and it neither cuts nor ties. So the gate cuts exactly where some
    g = t_-phi(r) o phi does.

    It is sound. The arrow (a, s) -> (a', s') depends only on the difference
    (a' - a, s' - s), of total degree in -top..top on layers 0..top. g sends
    it to (a' - a, phi(s') - phi(s)) = (a' - a, phi(s' - s)), as phi is
    additive and translations cancel, and phi keeps which entries of that
    row are nonzero, so each g is an automorphism of the Ext digraph on
    layers 0..top. Let C be a collection through the base with layer-0 set
    R_0 and r in R_0. Then g(C) is again a collection; it contains
    g(0, r) = (0, 0), the base, keeps the layer of every member, and, since
    it holds the base, has no member in mutual conflict with the base; so it
    lies in the same window, and g maps the collections through the base
    into the window. The g are closed under composition: an additive phi'
    gives phi' o t_c = t_phi'(c) o phi', so g' o g = t_-phi'phi(r'') o
    phi'phi for the member (0, r'') of C that g sends to (0, r'), and
    phi'phi is again a residue map or the identity, since the additive
    bijections that keep the rows form a group. So the images of C under
    the g, C among them, are one set, closed under every g, and the
    collection of that set with the smallest layer-by-layer list K(C) is
    cut by no g at any boundary: a g that gave a smaller list on layers
    0..k-1 would give a smaller K, since g keeps the size of every layer.
    Applied to an optimum, some optimum survives.

    Digraph automorphisms that are not additive are left out (the Z/9
    window has 9 that fix the base, against the identity and 2 residue
    maps), and so are maps that shift the total degree: the closure step
    above needs phi additive and every layer kept.

    The canonical witness W* survives too. The window lists the layers in
    order and each layer in residue order, so within a layer the g's
    images are compared the way the DFS orders indices. Every g keeps the
    size of each layer, so for two collections C and g(C) the comparison
    of K is the comparison of sorted index lists, which for sets of one
    size is include-first DFS order. If some g cut W* at a boundary, then
    K(g(W*)) < K(W*), and g(W*), an optimal subset of the window, would be
    found before W*, the DFS-first one. So the witness pass with the leader
    on returns W* unchanged.

    At a boundary only the g tied with the state on the earlier layers can
    cut (see _leads), and they are kept per layer along the DFS path. An
    explicit vertex list need not be closed under the g and is searched
    without the leader.
    """

    def __init__(self, out_mask: list[int], deadline):
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
        # the pair bound's cap and per-position plan, set once the cap is
        # known (see set_pair_cap)
        self.pair_cap: int | None = None
        self.plan: list[tuple] = []
        self.chosen = 0
        self.undecided = (1 << n) - 1
        self.blocked = 0
        # with the lex-leader on, the layers and the symmetries (see lead)
        self.layers: list[tuple] | None = None

    def set_pair_cap(self, cap: int, chains: list[list[int]]):
        """Turn the pair bound on with cap, along chains of layers with total
        degrees two apart, each a list of layer bitmasks, lowest layer first
        (see _chains), and plan its pass for every index pos of a node's
        next vertex: the bits of pos's layer, then, for each chain with a
        layer at or above pos (pos's chain first), its last layer wholly
        below pos (0 if none) and its layers from there up. The plan is the
        same for every pos of one layer. Each layer of a sorted vertex list
        is one index range and holds at most m <= cap vertices; a larger
        layer is an invariant error."""
        if any(bits.bit_count() > cap for chain in chains for bits in chain):
            raise SearchInvariantError("a layer holds more vertices than the pair cap")
        self.pair_cap = cap
        self.plan = plan = [()] * self.n
        for chain in chains:
            for bits in chain:
                if not bits:
                    continue
                first = (bits & -bits).bit_length() - 1
                runs = []
                for other in chains:
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

    def lead(self, layers: dict[int, list[int]], maps: list[list[int]], table):
        """Turn the lex-leader on (see the class docstring). layers is the
        list's layer table (see ExtTable.layers), each layer an index range
        in residue order, the layers in index order, and the first every
        residue; maps the residue maps besides the identity, and table the
        quotient's ExtTable. Every symmetry g = t_-c o phi but the identity
        is listed here once, as [diff[c][x] for x in phi], and is ties[0] of
        every search. Sound only where the base, vertex 0, is forced and
        every g maps each collection through the base into the list: the
        candidate window (see the class docstring)."""
        diff = table.diff
        m = len(diff)
        if not self.chosen & 1:
            raise SearchInvariantError("the base is not forced")
        # diff[c] is s -> s - c, so the first, t_0 o identity, is the identity
        self.symmetries = [
            [row[x] for x in phi] for phi in [list(range(m)), *maps] for row in diff
        ][1:]
        # per layer its mask and its bits by residue number, and the residue
        # number of every vertex bit
        self.layers = [(sum(bit_at), bit_at) for bit_at in layers.values()]
        self.residue_of = {
            bit: r for _, bit_at in self.layers for r, bit in enumerate(bit_at) if bit
        }
        if list(self.residue_of) != [1 << i for i in range(self.n)]:
            raise SearchInvariantError("the layers are not index ranges in residue order")
        if not all(self.layers[0][1]):
            raise SearchInvariantError("layer 0 does not hold every residue")

    def _leads(self, k: int, chosen: int, ties: list) -> bool:
        """True when no g cuts the state whose layers 0..k are decided, that
        is when the layer-by-layer list of sorted chosen residues is no
        larger than its image under any g (see the class docstring).

        Two sets of one size compare as sorted lists the way their lowest
        differing residue does, and residues ascend with a layer's bits, so
        the sets are compared as masks: the image is smaller when the lowest
        bit of the difference is its own. A g that was larger on an earlier
        layer stays larger, and one that was smaller cut the state there, so
        only the g tied on layers 0..k-1, ties[k], are compared, on layer k;
        those tied there too go to ties[k + 1]. ties[0] is every g but the
        identity (see lead), and layer 0 takes no other path: a g that moves
        the base off residue 0 drops out there as larger."""
        mask, bit_at = self.layers[k]
        mine = chosen & mask
        residue_of = self.residue_of
        rs = []
        rest = mine
        while rest:
            bit = rest & -rest
            rs.append(residue_of[bit])
            rest ^= bit
        tied = []
        for g in ties[k]:
            image = 0
            for s in rs:
                image |= bit_at[g[s]]
            if image == mine:
                tied.append(g)
                continue
            if image.bit_count() != len(rs):
                raise SearchInvariantError("a symmetry maps a chosen vertex off the list")
            split = image ^ mine
            if image & split & -split:
                return False
        ties[k + 1] = tied
        return True

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
        lex-leader on, a child that completes a layer goes through the gate,
        which cuts it unless it leads. Returns (size, mask, stats) with this
        pass's own counters; on the deadline raises _TimeUp carrying the same
        three."""
        n = self.n
        deadline = self.deadline
        ins, outs = self.in_mask, self.out_mask
        pair_bound = self._pair_bound if self.pair_cap is not None else None
        improvements = []
        nodes = prunes = rejects = symmetry = 0
        monotonic = time.monotonic

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
            # the children of a layer's last vertex go through the gate
            down = hand[pos]
            bit = 1 << pos
            undecided ^= bit
            if blocked & bit:
                rejects += 1
            else:
                down(pos + 1, chosen | bit, count + 1, undecided,
                     blocked | _blocks(ins, outs, pos, chosen))
            down(pos + 1, chosen, count, undecided, blocked)

        hand = [dfs] * n
        if self.layers is not None:
            # the gate admits leaders only; a cut state counts as a node, and
            # as a symmetry prune. ties[k] holds the g tied with the current
            # path on the layers before k, ties[0] every g (see _leads); once
            # none is, no later layer can cut
            leads = self._leads
            ties = [self.symmetries] + [None] * len(self.layers)
            # a layer's end is one past its highest bit
            passed = {mask.bit_length(): k for k, (mask, _) in enumerate(self.layers)}

            def gate(pos, chosen, count, undecided, blocked):
                nonlocal nodes, symmetry
                k = passed[pos]
                if not ties[k]:
                    ties[k + 1] = ()
                elif not leads(k, chosen, ties):
                    nodes += 1
                    symmetry += 1
                    return
                dfs(pos, chosen, count, undecided, blocked)

            for end in passed:
                hand[end - 1] = gate

        def stats():
            return {
                "nodes": nodes,
                "bound_prunes": prunes,
                "cycle_rejects": rejects,
                "symmetry_prunes": symmetry,
                "improvements": improvements,
            }

        try:
            dfs(0, self.chosen, self.chosen.bit_count(), self.undecided, self.blocked)
        except _Found:
            pass
        except _TimeUp:
            raise _TimeUp(best, best_mask, stats()) from None
        return best, best_mask, stats()

    def order(self, mask: int) -> list[int]:
        """The masked vertices in topological order, smallest ready index
        first: the lowest set bit of the ready mask."""
        members = [i for i in range(self.n) if (mask >> i) & 1]
        indeg = {i: (self.in_mask[i] & mask).bit_count() for i in members}
        ready = sum(1 << i for i in members if indeg[i] == 0)
        order = []
        while ready:
            low = ready & -ready
            v = low.bit_length() - 1
            ready ^= low
            order.append(v)
            m = self.out_mask[v] & mask
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready |= low
        if len(order) != len(members):
            raise SearchInvariantError("collection mask is not acyclic")
        return order


def _chains(layers: dict[int, list[int]]) -> list[list[int]]:
    """The layers of a sorted vertex list's layer table (see
    ExtTable.layers) as bitmasks, in chains of total degrees two apart,
    lowest layer first."""
    chains: list[list[int]] = []
    chain_ending_at: dict[int, list[int]] = {}
    for a, bits in layers.items():
        chain = chain_ending_at.pop(a - 2, None)
        if chain is None:
            chain = []
            chains.append(chain)
        chain.append(sum(bits))
        chain_ending_at[a] = chain
    return chains


def _pair_cap(sq: SymmetryQuotient, deadline) -> dict | None:
    """{"cap": m + alpha, "alpha": alpha, "nodes": nodes of the alpha search},
    or None when the three facts behind the cap fail (see _Solver), computed
    on each call; a deadline that passes in the alpha search raises
    _TimeUp."""
    table = ext_table(sq)
    m = len(table.residues)
    diff = table.diff
    # the layer table of (0, r) then (2, r) for every residue number r
    out = table.rows({0: [1 << r for r in range(m)], 2: [1 << m + r for r in range(m)]})
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
        alpha, _, stats = solver.search(1, solver.chosen)
        nodes = stats["nodes"]
    return {"cap": m + alpha, "alpha": alpha, "nodes": nodes}


def _residue_maps(table, top: int) -> list[list[int]]:
    """Every additive bijection phi of the residue group but the identity
    that keeps which entries of each Ext difference row of total degree
    -top..top are nonzero, the rows a window with layers 0..top reads: some
    Ext is nonzero at (a, s) exactly when one is at (a, phi(s)). Each is a
    list from residue number to residue number, the lists sorted, computed
    on each call.

    A bijection keeps every row's pattern exactly when it maps each row's
    support, the smaller of its nonzero and its zero residues, onto itself,
    so every row is read at once: bit a + top of sig[s] is set when s is in
    the support of row a, and phi must keep sig. An additive phi is fixed by
    its images of the basis residues, one per factor of the quotient, and
    the image of a basis residue of order q must have order dividing q. The
    images are chosen one basis residue at a time among the residues of the
    same signature, and each choice extends phi to the subgroup spanned so
    far, by phi(h + k e) = phi(h) + k phi(e); a choice ends at the first
    element whose image breaks sig or repeats an earlier image."""
    m = len(table.residues)
    sig = [0] * m
    for a in range(-top, top + 1):
        bit = 1 << a + top
        for s in table._support(a)[1]:
            sig[s] |= bit
    # plus[x][y]: the number of x + y, read as y less -x
    plus = [table.diff[row[0]] for row in table.diff]
    orders = table.sq.quotient_orders
    # the basis residues, in mixed radix one digit 1 and the rest 0, with the
    # residues of the same signature whose order divides theirs
    steps, place = [], m
    for q in orders:
        place //= q
        steps.append((place, q, [
            c for c in range(m)
            if sig[c] == sig[place]
            and all(t * q % order == 0 for t, order in zip(table.residues[c], orders))
        ]))
    maps = []

    def extend(phi, span, i):
        if i == len(steps):
            maps.append(phi)
            return
        e, q, candidates = steps[i]
        for c in candidates:
            new, grown, images = phi[:], [], {phi[h] for h in span}
            ke = kc = 0
            for _ in range(q - 1):
                ke, kc = plus[ke][e], plus[kc][c]
                for h in span:
                    x, y = plus[h][ke], plus[phi[h]][kc]
                    if sig[y] != sig[x] or y in images:
                        break
                    new[x] = y
                    images.add(y)
                    grown.append(x)
                else:
                    continue
                break
            else:
                extend(new, span + grown, i + 1)

    extend([0] + [None] * (m - 1), [0], 0)
    identity = list(range(m))
    return sorted(phi for phi in maps if phi != identity)


def max_exceptional(
    sq: SymmetryQuotient,
    vertices=None,
    timeout_secs: float | None = None,
) -> SearchResult:
    """Size and witness of a maximum exceptional collection inside the window.

    With no explicit vertex list the candidate window is derived and the
    base vertex is forced into the collection (any collection in the window
    can be twisted to contain it, so this loses nothing); the search then
    keeps one state per symmetry class, by the lex-leader (see _Solver). An
    explicit vertex list is searched as given, without forcing or the
    leader. Either way
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
    proof_log["vertices"] = len(verts)
    proof_log["forced_base"] = window

    table = ext_table(sq)
    layers = table.layers(verts)
    solver = _Solver(table.rows(layers), deadline)
    if window:
        # the window starts with layer 0 in residue order, the base first
        solver.force(0)
        solver.lead(layers, _residue_maps(table, verts[-1].a), table)

    def timed_out(message, size, mask, log):
        return SearchTimeoutError(
            message,
            best_size=size,
            best_witness=tuple(verts[i] for i in solver.order(mask)),
            proof_log=log,
        )

    # deterministic greedy seeds: plain order, and plain order with the
    # nonzero residues of layer 0 deferred to the end, in index order, which
    # is residue order on a sorted list
    deferred = [bit.bit_length() - 1 for bit in layers.get(0, ())[1:] if bit]
    skip = set(deferred)
    orders = [list(range(solver.n)), [i for i in range(solver.n) if i not in skip] + deferred]
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
    chains = _chains(layers)
    cap = None
    if any((x | y).bit_count() > m for c in chains for x, y in zip(c, c[1:])):
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
        solver.set_pair_cap(cap["cap"], chains)
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
    """The Ext digraph as {"vertices": [(a, b), ...], "edges": [(u, v), ...]}.

    Vertices are sorted by bidegree, and edges by source, then target. Each
    vertex is one (a, b) tuple, b the bidegree's own residue tuple, shared by
    "vertices" and every edge at that vertex; json.dumps writes each tuple
    as an array. Tuples of ints leave the cyclic collector's tracking at its
    first young collection, so the Fermat export (53,449 edges) takes 14.2 ms
    against 15.6 ms with lists (medians of 10 cold interpreters, 2-core Xeon).

    Each out row is read a byte at a time (see _BYTE_BITS): its bytes are
    walked low to high with the zero ones skipped, and the set bits of a byte
    name vertices of that byte's span of eight, in ascending order, so the
    edges come out in the same order as bit by bit.
    """
    verts = _sorted_distinct(vertices)
    node = [(v.a, v.b) for v in verts]
    # the vertices of each byte of a row, eight to a byte
    spans = [node[at:at + 8] for at in range(0, len(node), 8)]
    width = len(spans)
    table = ext_table(sq)
    edges = [
        (u, span[k])
        for u, m in zip(node, table.rows(table.layers(verts)))
        for span, byte in zip(spans, m.to_bytes(width, "little"))
        if byte
        for k in _BYTE_BITS[byte]
    ]
    return {"vertices": node, "edges": edges}
