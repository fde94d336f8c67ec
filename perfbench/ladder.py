"""The ladder: every quasi-smooth five-variable cubic atomic sum.

Each monomial is xi^3 or xi^2*xj, and each variable carries the square or
cube of exactly one monomial, so an input is a map f on {0..4}: monomial i is
xi^3 when f(i) = i and xi^2*x{f(i)} otherwise. By Kreuzer-Skarke the sum is
quasi-smooth exactly when it splits into Fermat, chain and loop blocks, which
for such maps means no variable is the linear factor of two monomials.

The ladder is built twice, by different routes, and the two must agree:
from partitions of 5 into typed blocks, and by enumerating every map f and
keeping one per relabelling orbit. This module needs nothing from invquot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

N = 5
EXPECTED_COUNT = 16


@dataclass(frozen=True)
class LadderInput:
    name: str                    # block structure, e.g. "chain2+loop3"
    kinds: tuple[str, ...]       # sorted atomic kinds: "fermat", "chain", "loop"
    rows: tuple[tuple[int, ...], ...]
    det: int                     # |det| of the exponent matrix, by elimination

    @property
    def text(self) -> str:
        return " + ".join(
            "*".join(f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(r) if e)
            for r in self.rows
        )


def _rows_of_map(f: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    rows = []
    for i, j in enumerate(f):
        r = [0] * N
        if i == j:
            r[i] = 3
        else:
            r[i], r[j] = 2, 1
        rows.append(tuple(r))
    return tuple(rows)


def _canonical(f: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest relabelling of the map f: p o f o p^-1 over all permutations p."""
    best = None
    for p in permutations(range(N)):
        g = [0] * N
        for i in range(N):
            g[p[i]] = p[f[i]]
        g = tuple(g)
        if best is None or g < best:
            best = g
    return best


def _quasi_smooth(f: tuple[int, ...]) -> bool:
    pointed = [j for i, j in enumerate(f) if i != j]
    return len(pointed) == len(set(pointed))


def _blocks(f: tuple[int, ...]) -> list[tuple[str, int]]:
    """Atomic blocks of a quasi-smooth map: cycles of length >= 2 are loops,
    paths ending in a fixed point are chains (length 1 is Fermat)."""
    pointed = {j for i, j in enumerate(f) if i != j}
    seen: set[int] = set()
    blocks = []
    for start in range(N):
        if start in seen or start in pointed:
            continue
        path = [start]
        while f[path[-1]] != path[-1]:
            path.append(f[path[-1]])
        seen.update(path)
        blocks.append(("fermat" if len(path) == 1 else "chain", len(path)))
    for start in range(N):
        if start in seen:
            continue
        cyc = [start]
        while f[cyc[-1]] != start:
            cyc.append(f[cyc[-1]])
        seen.update(cyc)
        blocks.append(("loop", len(cyc)))
    return sorted(blocks)


def _maps_from_partitions() -> set[tuple[int, ...]]:
    """One map per multiset of typed blocks whose sizes sum to 5."""

    def parts(n, largest):
        if n == 0:
            yield []
            return
        for p in range(min(n, largest), 0, -1):
            for rest in parts(n - p, p):
                yield [p] + rest

    out = set()
    for part in parts(N, N):
        options = [[("fermat", 1)] if k == 1 else [("chain", k), ("loop", k)] for k in part]
        for combo in product(*options):
            f, off = [], 0
            for kind, k in sorted(combo):
                for i in range(k):
                    last = i == k - 1
                    if kind == "loop":
                        f.append(off + (i + 1) % k)
                    else:
                        f.append(off + (i if last else i + 1))
                off += k
            out.add(_canonical(tuple(f)))
    return out


def _abs_det(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(N):
        piv = next((r for r in range(c, N) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        det *= m[c][c]
        for r in range(c + 1, N):
            k = m[r][c] / m[c][c]
            if k:
                m[r] = [x - k * y for x, y in zip(m[r], m[c])]
    return abs(int(det))


def build_ladder() -> list[LadderInput]:
    """The 16 ladder inputs in a fixed order; raises if the routes disagree."""
    enumerated = {
        _canonical(f) for f in product(range(N), repeat=N) if _quasi_smooth(f)
    }
    built = _maps_from_partitions()
    if enumerated != built or len(built) != EXPECTED_COUNT:
        raise RuntimeError(
            f"ladder mismatch: {len(enumerated)} maps by enumeration, "
            f"{len(built)} by block construction, expected {EXPECTED_COUNT}"
        )
    out = []
    for f in sorted(built):
        blocks = _blocks(f)
        rows = _rows_of_map(f)
        out.append(
            LadderInput(
                name="+".join(f"{kind}{k}" if kind != "fermat" else "fermat" for kind, k in blocks),
                kinds=tuple(kind for kind, _ in blocks),
                rows=rows,
                det=_abs_det(rows),
            )
        )
    return out
