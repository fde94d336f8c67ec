"""Maximum exceptional collections of line bundles, by exact branch and bound.

Vertices are bidegrees; there is an arrow u -> v when some Ext group from
O(u) to O(v) is nonzero. An exceptional collection is an induced acyclic
subgraph with no mutual arrows, ordered compatibly. The search space is cut
down to a finite window around the trivial bundle first: since twisting by a
line bundle is an automorphism of the whole picture, any collection can be
normalized to contain the base vertex, and every vertex forming a mutual
cycle with the base can never join it.
"""

from __future__ import annotations

import heapq
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


def hom_digraph(sq: SymmetryQuotient, vertices) -> dict[BiDegree, list[BiDegree]]:
    verts = sorted(set(vertices), key=lambda d: (d.a, d.b))
    out, _ = ext_table(sq).rows(verts)
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

    Layer a keeps the vertices that do not form a mutual Ext cycle with the
    base. Scanning stops two layers after the first row whose section count is
    positive in every residue: positivity then propagates upward (multiply by
    any monomial), so all later layers have arrows both ways with the base.
    """
    _require_threefold(sq)
    table = ext_table(sq)
    base = base_vertex(sq)
    audit: dict = {"layers": [], "excluded": [], "certificate": None}

    # certificate precondition: some defining monomial misses some variable,
    # so multiplication by it proves positivity propagation in every residue
    free_var = None
    for row in sq.poly.matrix.entries:
        for j, e in enumerate(row, start=1):
            if e == 0:
                free_var = j
                break
        if free_var:
            break
    if free_var is None:
        raise UnsupportedGeometryError(
            "every defining monomial touches every variable, no cutoff certificate"
        )

    full_row = None
    a = 0
    vertices = []
    while True:
        if full_row is not None and a >= full_row + 2:
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
        for b in table.residues:
            v = BiDegree(a=a, b=b)
            if v == base:
                kept.append(v)
                continue
            forward = table.dims(base, v)
            backward = table.dims(v, base)
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
        if full_row is None and all(
            table.hom(a, r) > 0 for r in range(len(table.residues))
        ):
            full_row = a
        a += 1
    vertices.sort(key=lambda d: (d.a, d.b))
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
    violations = []
    if len(set(objs)) != len(objs):
        violations.append({"kind": "duplicate objects"})
    for i, e in enumerate(objs):
        self_ext = table.dims(e, e)
        if self_ext != (1, 0, 0, 0):
            violations.append(
                {"kind": "not exceptional", "object": str(e), "ext": list(self_ext)}
            )
    for j in range(len(objs)):
        for i in range(j):
            back = table.dims(objs[j], objs[i])
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
        k = min(range(len(cyc)), key=lambda i: (cyc[i].a, cyc[i].b))
        out.append(tuple(cyc[k:] + cyc[:k]))
    out.sort(key=lambda c: (len(c), [(d.a, d.b) for d in c]))
    return out


@dataclass
class SearchResult:
    size: int
    witness: tuple[BiDegree, ...]       # in a valid exceptional order
    witness_set: tuple[BiDegree, ...]   # the same objects sorted by bidegree
    optimal: bool
    proof_log: dict = field(repr=False, default_factory=dict)


class _TimeUp(Exception):
    pass


class _Solver:
    """Branch and bound over one vertex list, bitmask state throughout.

    Acyclicity of the chosen set is kept by descendant masks: reach[u] holds
    the chosen vertices reachable from the chosen vertex u inside the chosen
    induced subgraph (0 for vertices not chosen).
    """

    def __init__(self, sq: SymmetryQuotient, verts: list[BiDegree], deadline):
        self.sq = sq
        self.verts = verts
        self.n = len(verts)
        self.deadline = deadline
        self.index = {v: i for i, v in enumerate(verts)}
        n = self.n
        table = ext_table(sq)
        self.out_mask, self.in_mask = table.rows(verts)
        self.conflict_mask = [
            self.out_mask[i] & self.in_mask[i] for i in range(n)
        ]
        # layer bookkeeping for the pair bound
        self.layers = sorted({v.a for v in verts})
        layer_pos = {a: k for k, a in enumerate(self.layers)}
        self.layer_of = [layer_pos[v.a] for v in verts]
        self.layer_bits = [0] * len(self.layers)
        for i, k in enumerate(self.layer_of):
            self.layer_bits[k] |= 1 << i
        m = sq.quotient_order
        ka, kr = table.canonical
        # residue number 0 is the zero residue
        two_up_all = all(table.hom(2, r) > 0 for r in range(1, m))
        serre_back = table.hom(ka + 2, kr) > 0
        self.pair_cap = (m + 1) if (two_up_all and serre_back and m > 1) else None
        # mutable search state
        self.chosen_mask = 0
        self.chosen_count = 0
        self.layer_count = [0] * len(self.layers)
        self.undecided = (1 << n) - 1
        self.conflict_cnt = [0] * n
        self.conflicted_bits = 0
        self.reach = [0] * n
        self.chosen_list: list[int] = []    # in include order
        self.stats = {
            "nodes": 0,
            "bound_prunes": 0,
            "cycle_rejects": 0,
            "improvements": [],
        }
        self.best_size = 0
        self.best_mask = 0

    # -- acyclicity by descendant masks --------------------------------------

    def _try_insert(self, v: int):
        """Chosen vertices reachable from v once it joins, or None when v
        closes a cycle (some of them is a predecessor of v)."""
        chosen = self.chosen_mask
        m = self.out_mask[v] & chosen
        down = m
        while m:
            low = m & -m
            down |= self.reach[low.bit_length() - 1]
            m ^= low
        if down & self.in_mask[v] & chosen:
            return None
        return down

    def _include(self, v: int, down: int) -> list[tuple[int, int]]:
        """Add v to the chosen set; returns the reach entries it overwrote."""
        chosen = self.chosen_mask
        preds = self.in_mask[v] & chosen
        add = (1 << v) | down
        saved = []
        self.reach[v] = down
        if preds:
            # every chosen ancestor of v now also reaches v and all below it
            reach = self.reach
            for u in self.chosen_list:
                r = reach[u]
                if r & preds or (preds >> u) & 1:
                    saved.append((u, r))
                    reach[u] = r | add
        self.chosen_list.append(v)
        self.chosen_mask = chosen | (1 << v)
        self.chosen_count += 1
        self.layer_count[self.layer_of[v]] += 1
        self.undecided &= ~(1 << v)
        m = self.conflict_mask[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            self.conflict_cnt[u] += 1
            if self.conflict_cnt[u] == 1:
                self.conflicted_bits |= low
        return saved

    def _undo_include(self, v: int, saved: list[tuple[int, int]]):
        """Take back the latest include; includes are undone last in, first out."""
        for u, r in saved:
            self.reach[u] = r
        self.reach[v] = 0
        self.chosen_list.pop()
        self.chosen_mask &= ~(1 << v)
        self.chosen_count -= 1
        self.layer_count[self.layer_of[v]] -= 1
        self.undecided |= 1 << v
        m = self.conflict_mask[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            self.conflict_cnt[u] -= 1
            if self.conflict_cnt[u] == 0:
                self.conflicted_bits &= ~low

    # -- admissible upper bound --------------------------------------------

    def _bound(self) -> int:
        avail = self.undecided & ~self.conflicted_bits
        if self.pair_cap is None:
            return self.chosen_count + avail.bit_count()
        floors = self.layer_count
        caps = [
            f + (avail & bits).bit_count() for f, bits in zip(floors, self.layer_bits)
        ]
        total = 0
        for parity in (0, 1):
            chain = [k for k, a in enumerate(self.layers) if a % 2 == parity]
            dp: dict[int, int] | None = None
            prev_a = None
            for k in chain:
                a = self.layers[k]
                xs = range(floors[k], caps[k] + 1)
                if dp is None or a - prev_a != 2:
                    total += max(dp.values()) if dp else 0
                    dp = {x: x for x in xs}
                else:
                    ndp = {}
                    for x in xs:
                        fits = [s for px, s in dp.items() if px + x <= self.pair_cap]
                        if fits:
                            ndp[x] = max(fits) + x
                    if not ndp:
                        raise SearchInvariantError(
                            "pair bound infeasible on a reachable state"
                        )
                    dp = ndp
                prev_a = a
            total += max(dp.values()) if dp else 0
        return total

    def _tick(self):
        self.stats["nodes"] += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _TimeUp

    # -- greedy seeding ------------------------------------------------------

    def greedy(self, order: list[int]) -> tuple[int, int]:
        """Insert vertices in the given order whenever legal; returns (size, mask).
        Leaves the search state clean."""
        taken: list[tuple[int, list[tuple[int, int]]]] = []
        for v in order:
            if self.conflict_cnt[v] or not (self.undecided >> v) & 1:
                continue
            ins = self._try_insert(v)
            if ins is None:
                continue
            saved = self._include(v, ins)
            taken.append((v, saved))
        size, mask = self.chosen_count, self.chosen_mask
        for v, saved in reversed(taken):
            self._undo_include(v, saved)
        return size, mask

    # -- main search ---------------------------------------------------------

    def maximize(self, start_best: int, start_mask: int):
        self.best_size, self.best_mask = start_best, start_mask

        def dfs(pos: int):
            self._tick()
            while pos < self.n and not (self.undecided >> pos) & 1:
                pos += 1
            if pos == self.n:
                return
            if self._bound() <= self.best_size:
                self.stats["bound_prunes"] += 1
                return
            v = pos
            if self.conflict_cnt[v]:
                self.undecided &= ~(1 << v)
                dfs(pos + 1)
                self.undecided |= 1 << v
                return
            ins = self._try_insert(v)
            if ins is not None:
                saved = self._include(v, ins)
                if self.chosen_count > self.best_size:
                    self.best_size = self.chosen_count
                    self.best_mask = self.chosen_mask
                    self.stats["improvements"].append(
                        {"size": self.best_size, "nodes": self.stats["nodes"]}
                    )
                dfs(pos + 1)
                self._undo_include(v, saved)
            else:
                self.stats["cycle_rejects"] += 1
            self.undecided &= ~(1 << v)
            dfs(pos + 1)
            self.undecided |= 1 << v

        dfs(0)
        return self.best_size, self.best_mask

    def find_exact(self, target: int):
        """First (include-first, ascending index) solution of the target size:
        the lexicographically smallest optimal subset."""
        found: list[int] = []

        def dfs(pos: int) -> bool:
            self._tick()
            while pos < self.n and not (self.undecided >> pos) & 1:
                pos += 1
            if self.chosen_count == target:
                found.append(self.chosen_mask)
                return True
            if pos == self.n:
                return False
            if self._bound() < target:
                return False
            v = pos
            if self.conflict_cnt[v]:
                self.undecided &= ~(1 << v)
                hit = dfs(pos + 1)
                self.undecided |= 1 << v
                return hit
            ins = self._try_insert(v)
            if ins is not None:
                saved = self._include(v, ins)
                if dfs(pos + 1):
                    self._undo_include(v, saved)
                    return True
                self._undo_include(v, saved)
            self.undecided &= ~(1 << v)
            hit = dfs(pos + 1)
            self.undecided |= 1 << v
            return hit

        dfs(0)
        return found[0] if found else None

    def force(self, v: int):
        ins = self._try_insert(v)
        if ins is None:
            raise SearchInvariantError(f"forced vertex {self.verts[v]} closes a cycle")
        self._include(v, ins)

    def canonical_order(self, mask: int) -> list[int]:
        """Topological order of the masked vertices, smallest ready index first."""
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


def max_exceptional(
    sq: SymmetryQuotient,
    vertices=None,
    deterministic: bool = True,
    timeout_secs: float | None = None,
) -> SearchResult:
    """Size and witness of a maximum exceptional collection inside the window.

    With no explicit vertex list the derived candidate window is used and the
    base vertex is forced into the collection (any maximum collection can be
    twisted to contain it, so this loses nothing). An explicit vertex list is
    searched as given, without forcing.

    deterministic=True additionally canonicalizes the witness to the
    lexicographically smallest optimal subset, ordered by a deterministic
    topological sort. Raises SearchTimeoutError with the best collection found
    so far when the budget runs out.
    """
    _require_threefold(sq)
    t0 = time.monotonic()
    deadline = t0 + timeout_secs if timeout_secs is not None else None
    proof_log: dict = {}
    if vertices is None:
        verts, audit = candidate_window(sq)
        proof_log["window"] = audit
        forced = True
    else:
        verts = sorted(set(vertices), key=lambda d: (d.a, d.b))
        forced = False
    base = base_vertex(sq)
    proof_log["vertices"] = len(verts)
    proof_log["forced_base"] = forced and base in verts

    solver = _Solver(sq, verts, deadline)
    if proof_log["forced_base"]:
        solver.force(solver.index[base])

    # deterministic greedy seeds: plain order, and plain order with the
    # nonzero residues of layer 0 deferred to the end
    orders = [list(range(solver.n))]
    deferred = [
        i for i in range(solver.n) if verts[i].a == 0 and verts[i] != base
    ]
    orders.append([i for i in range(solver.n) if i not in deferred] + deferred)
    best_size, best_mask = solver.chosen_count, solver.chosen_mask
    seeds = []
    for name, order in zip(("plain", "layer0-last"), orders):
        size, mask = solver.greedy(order)
        seeds.append({"order": name, "size": size})
        if size > best_size:
            best_size, best_mask = size, mask
    proof_log["seeds"] = seeds

    try:
        best_size, best_mask = solver.maximize(best_size, best_mask)
        optimal = True
    except _TimeUp:
        order = solver.canonical_order(solver.best_mask)
        witness = tuple(verts[i] for i in order)
        raise SearchTimeoutError(
            f"search budget exhausted after {time.monotonic() - t0:.1f}s",
            best_size=solver.best_size,
            best_witness=witness,
            proof_log={**proof_log, "stats": solver.stats},
        )

    proof_log["stats"] = dict(solver.stats)
    proof_log["optimum"] = best_size

    if deterministic:
        try:
            exact = solver.find_exact(best_size)
        except _TimeUp:
            # the optimum is already proven, but the canonical witness is not;
            # a deterministic run must not return an arbitrary one
            order = solver.canonical_order(best_mask)
            witness = tuple(verts[i] for i in order)
            raise SearchTimeoutError(
                "budget exhausted while canonicalizing the witness "
                f"(optimum {best_size} already proven)",
                best_size=best_size,
                best_witness=witness,
                proof_log={**proof_log, "optimum_proven": True},
            )
        if exact is None:
            raise SearchInvariantError(
                f"no collection of the proven optimum size {best_size} found"
            )
        best_mask = exact
    order = solver.canonical_order(best_mask)
    witness = tuple(verts[i] for i in order)
    witness_set = tuple(sorted(witness, key=lambda d: (d.a, d.b)))
    report = verify_collection(sq, witness)
    if not report.valid:
        raise SearchInvariantError("search produced an invalid collection")
    return SearchResult(
        size=best_size,
        witness=witness,
        witness_set=witness_set,
        optimal=optimal,
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
    adj = hom_digraph(sq, vertices)
    return {
        "vertices": [[u.a, list(u.b)] for u in adj],
        "edges": [
            [[u.a, list(u.b)], [v.a, list(v.b)]] for u, vs in adj.items() for v in vs
        ],
    }
