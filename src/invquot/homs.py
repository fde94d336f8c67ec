"""Bigraded Hom and Ext dimensions between line bundles on the quotient.

Line bundles are indexed by a bidegree: an integer total degree together with
one residue per quotient factor. Section spaces are counted exactly by the
generating-function recurrence over the variables: the degree-a monomials
over x_1..x_j are those over x_1..x_{j-1} together with x_j times the
degree-(a - 1) monomials over x_1..x_j, whose residues move by char x_j.
Higher Ext groups come from Serre duality, with an independent
long-exact-sequence route, which counts its Laurent monomials by character
classes, kept alongside for cross-checking.

Every dimension between O(u) and O(v) depends only on the difference v - u.
One ExtTable per quotient, from ext_table(sq), holds int rows by residue
number, one total degree at a time on first use: the section counts (Hom),
the Serre row (Ext^3, the sections of the canonical degree less a read
through one column), and the nonzero row hom | serre, which the window, the
digraph and verification test; an Ext tuple is built only for a lookup or a
violation, and the window's audit entries of a layer come from one read of
its Hom and Serre rows (ExtTable.exts). The public per-pair functions,
hom_dim and ext_dims, each read one entry of it. The layer table of a
vertex list, the bit of its vertex at every residue number of every total
degree, is built by ExtTable.layers, and ExtTable.rows builds the Ext
digraph on its vertices by residue translation: the targets of a source in
one layer are that layer's vertices at the source's residue plus each
nonzero entry of one difference row, and every target layer of a source is
summed in one pipeline. The long-exact-sequence route reads only the section counts and
its own Laurent monomial counts, kept per quotient beside the table, never
the Ext entries.

Everything requires the split grading (characters available), all weights
equal to 1, and at least 5 variables; Ext computations additionally pin the
dimension down to the 5-variable case.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, product
from operator import add, getitem, not_, or_, sub

from .errors import CohomologyInvariantError, UnsupportedGeometryError
from .polynomials import monomial_text
from .record import FrozenRecord
from .symmetry import SymmetryQuotient


class BiDegree(FrozenRecord):
    """Total degree plus one residue per quotient factor, ordered by (a, b)."""

    _fields = ("a", "b")

    # not Record's initializer: a ladder-sweep pass builds about 6,700
    # bidegrees, at 0.53 us each here against 1.8 us through Record's (warm,
    # 2-core Xeon), some 8 ms of a pass under 60 ms; the per-cell loops of
    # the window and the tables pass a and b positionally, 0.43 us each
    def __init__(self, a: int, b: tuple[int, ...]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # built and compared in the window and table loops, so each comparison
    # is one tuple comparison
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) < (other.a, other.b)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) <= (other.a, other.b)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) > (other.a, other.b)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) >= (other.a, other.b)
        return NotImplemented

    def __str__(self):
        if len(self.b) == 1:
            return f"({self.a}, {self.b[0]})"
        return f"({self.a}, {'.'.join(map(str, self.b))})"


def bidegree(sq: SymmetryQuotient, a: int, b=0) -> BiDegree:
    """Normalize (a, b); b may be an int (cyclic quotient) or a sequence."""
    orders = sq.quotient_orders
    if isinstance(b, int):
        if not orders:
            if b:
                raise ValueError("trivial quotient admits only residue 0")
            return BiDegree(a=a, b=())
        if len(orders) != 1:
            raise ValueError("integer residue needs a cyclic quotient")
        return BiDegree(a=a, b=(b % orders[0],))
    b = tuple(b)
    if len(b) != len(orders):
        raise ValueError(f"expected {len(orders)} residues, got {len(b)}")
    return BiDegree(a=a, b=tuple(x % m for x, m in zip(b, orders)))


def delta(sq: SymmetryQuotient, source: BiDegree, target: BiDegree) -> BiDegree:
    return bidegree(
        sq, target.a - source.a, [x - y for x, y in zip(target.b, source.b)]
    )


def shift(sq: SymmetryQuotient, deg: BiDegree, by: BiDegree) -> BiDegree:
    return bidegree(sq, deg.a + by.a, [x + y for x, y in zip(deg.b, by.b)])


def negate(sq: SymmetryQuotient, deg: BiDegree) -> BiDegree:
    return bidegree(sq, -deg.a, [-x for x in deg.b])


def _require_graded(sq: SymmetryQuotient):
    if sq.characters is None:
        raise UnsupportedGeometryError(
            "quotient characters unavailable, the bigraded model does not apply"
        )
    if any(w != 1 for w in sq.weights):
        raise UnsupportedGeometryError(
            f"weights {sq.weights} are not all 1, total degree is not a grading by 1"
        )
    if sq.n < 5:
        raise UnsupportedGeometryError(
            f"{sq.n} variables give an ambient space too small for this line bundle model"
        )


def _require_threefold(sq: SymmetryQuotient):
    _require_graded(sq)
    if sq.n != 5:
        raise UnsupportedGeometryError(
            f"Ext bookkeeping is fixed to dimension 3 (5 variables), got {sq.n}"
        )


def _difference_table(orders: tuple[int, ...]) -> list[list[int]]:
    """diff[i][j] is the number of residue j - i, residues numbered by their
    position in lexicographic order (mixed radix over the orders)."""
    table = [[0]]
    for m in orders:
        cyclic = [[(j - i) % m for j in range(m)] for i in range(m)]
        table = [
            [t * m + c for t in trow for c in crow]
            for trow in table
            for crow in cyclic
        ]
    return table


def _count_step(a: int, minus, last) -> list[list[int]]:
    """One total degree a >= 0 of the monomial-count recurrence over a
    sequence of variables y_1, y_2, ...

    last[k] is the count row of degree a - 1 over y_1..y_{k+1}, by residue
    number. Returns the rows of degree a over y_1..y_{k+1} for every k: the
    row over y_1..y_k plus the degree-(a - 1) row over y_1..y_{k+1}
    multiplied by y_{k+1}, that is read through minus[k], which maps residue
    number r to the number of r - char y_{k+1}.
    """
    rows = []
    # degree a over no variable: the monomial 1, at the zero residue (number 0)
    row = [int(a == 0)] + [0] * (len(minus[0]) - 1)
    for m, prev in zip(minus, last):
        row = list(map(add, row, map(prev.__getitem__, m)))
        rows.append(row)
    return rows


class ExtTable:
    """Section and Ext dimensions of one quotient, looked up by difference.

    Residues are numbered by their position in all_residues; index maps a
    residue tuple to its number and diff[i][j] is the number of j - i;
    minus[j][r] is the number of r - char x_{j+1}. Monomial counts are kept
    per total degree and filled upward by _count_step, from the last row of
    each variable prefix; the Hom, Serre and nonzero rows are kept per
    difference (a_target - a_source, residue-difference number), one whole
    row of residues per total degree, on first use.
    """

    def __init__(self, sq: SymmetryQuotient):
        _require_graded(sq)
        self.sq = sq
        self.residues = all_residues(sq)
        self.index = {b: i for i, b in enumerate(self.residues)}
        self.diff = _difference_table(sq.quotient_orders)
        units = [[int(i == j) for i in range(sq.n)] for j in range(sq.n)]
        self.minus = [self.diff[self.index[sq.char_of_exponents(e)]] for e in units]
        # canonical bundle: total degree d - n, residue of minus the character sum
        self.canonical = (
            sq.degree - sq.n,
            self.residue_index([-sum(chars) for chars in sq.characters]),
        )
        # kr - r for every residue number r, kr the canonical residue number:
        # the Serre residue of difference r
        self._serre_column = [row[self.canonical[1]] for row in self.diff]
        self._zeros = [0] * len(self.residues)
        self._counts: list[list[int]] = []
        # the count row of the highest degree filled, over each prefix x_1..x_j;
        # rows are never mutated, so the prefixes may share the zero row
        self._last = [self._zeros] * sq.n
        self._homs: dict[int, list[int]] = {}
        self._serres: dict[int, list[int]] = {}
        self._nonzeros: dict[int, list[int]] = {}
        self._supports: dict[int, tuple[bool, list[int]]] = {}

    def residue_index(self, b) -> int:
        """Number of a residue; anything but a normalized tuple goes through
        bidegree, which reduces it or rejects its width."""
        try:
            return self.index[b]
        except (KeyError, TypeError):
            return self.index[bidegree(self.sq, 0, b).b]

    def monomial_row(self, a: int) -> list[int]:
        """Degree-a monomials of the ambient ring, by residue number.

        Filled upward from degree 0 by the generating-function recurrence:
        the row of degree a over x_1..x_j is the row over x_1..x_{j-1} plus
        the degree-(a - 1) row over x_1..x_j translated by char x_j. Each
        step is one map over the residue numbers per variable, so a degree
        costs n row sums, whatever its number of monomials.
        """
        if a < 0:
            return self._zeros
        counts = self._counts
        while len(counts) <= a:
            self._last = _count_step(len(counts), self.minus, self._last)
            counts.append(self._last[-1])
        return counts[a]

    def hom_row(self, a: int) -> list[int]:
        """Sections of the coordinate ring in every difference of total
        degree a, by residue number: ambient monomials modulo multiples of W,
        which has bidegree (d, 0), so the monomial row of a less that of
        a - d; zeros when a < 0."""
        row = self._homs.get(a)
        if row is None:
            row = self._homs[a] = list(
                map(sub, self.monomial_row(a), self.monomial_row(a - self.sq.degree))
            )
        return row

    def serre_row(self, a: int) -> list[int]:
        """dim Ext^3 in every difference of total degree a, by residue
        number: by Serre duality, the sections of the canonical degree less
        a, read at kr - r for difference r."""
        row = self._serres.get(a)
        if row is None:
            serre = self.hom_row(self.canonical[0] - a)
            row = self._serres[a] = list(map(serre.__getitem__, self._serre_column))
        return row

    def nonzero_row(self, a: int) -> list[int]:
        """Some Ext nonzero in every difference of total degree a, by residue
        number: hom | serre, an int that is 0 exactly when every Ext is."""
        row = self._nonzeros.get(a)
        if row is None:
            row = self._nonzeros[a] = list(map(or_, self.hom_row(a), self.serre_row(a)))
        return row

    def ext(self, a: int, r: int) -> tuple[int, int, int, int]:
        """(dim Ext^0, ..., dim Ext^3) in difference (a, r): Hom, and Ext^3
        by Serre duality. The two middle groups vanish whenever the ambient
        middle cohomology does; that is checked explicitly by the
        long-exact-sequence route in ext_dims_via_les."""
        return (self.hom_row(a)[r], 0, 0, self.serre_row(a)[r])

    def exts(self, a: int, numbers) -> list[list[int]]:
        """The entries of ext(a, r) as lists, for each residue number r of
        numbers in turn: the Hom and Serre rows of a are read once for all.
        The window writes a layer's audit entries with it, as JSON lists;
        ext stays for a single pair, a tuple that ext_dims returns and
        verification compares, which a one-entry list would only wrap."""
        hom, serre = self.hom_row(a), self.serre_row(a)
        return [[hom[r], 0, 0, serre[r]] for r in numbers]

    def _support(self, a: int) -> tuple[bool, list[int]]:
        """(True, the residue numbers s with some nonzero Ext in difference
        (a, s)), or (False, those with all Ext zero) when these are fewer."""
        support = self._supports.get(a)
        if support is None:
            row = self.nonzero_row(a)
            nonzero = list(compress(range(len(row)), row))
            if 2 * len(nonzero) <= len(row):
                support = (True, nonzero)
            else:
                support = (False, list(compress(range(len(row)), map(not_, row))))
            self._supports[a] = support
        return support

    def layers(self, verts) -> dict[int, list[int]]:
        """The layer table of vertices that must be distinct (a repeat
        raises ValueError): for each total degree a of the list, in the order
        the list first reaches it, the bit 1 << j of the vertex verts[j] = (a,
        r) at every residue number r, 0 where the list has none."""
        layers: dict[int, list[int]] = {}
        for j, v in enumerate(verts):
            r = self.residue_index(v.b)
            bits = layers.get(v.a)
            if bits is None:
                bits = layers[v.a] = [0] * len(self.residues)
            if bits[r]:
                raise ValueError(f"vertex {v} given twice")
            bits[r] = 1 << j
        return layers

    def rows(self, layers: dict[int, list[int]]) -> list[int]:
        """Out rows of the Ext digraph on the distinct vertices of a layer
        table, layers(verts): bit j of out[i] is set when some Ext from
        verts[i] to verts[j] is nonzero (i != j).

        An arrow u -> v depends only on v - u. So the targets of a source
        (a, r) in layer a' are that layer's vertices at residues r + s, with
        s running over the nonzero entries of difference row a' - a, or the
        whole layer less those at r + s over the zero entries when these are
        fewer. The layer table keeps the bit of each layer's vertex at every
        residue number, and distinct vertices make each sum an OR. Per source
        layer, the whole layers read through their zero entries (and the
        all-nonzero ones, which list none) fold into one constant, and every
        listed entry of every target layer is one (bit list, residue) pair,
        the bit list negated for a zero entry: the out row of a source is
        that constant plus one sum over the pairs, read at r + s.
        """
        _require_threefold(self.sq)
        # per target layer: its bits, the same negated, its whole mask
        looks = [(va, bits, [-b for b in bits], sum(bits)) for va, bits in layers.items()]
        diff = self.diff
        out = [0] * sum(len(bits) - bits.count(0) for bits in layers.values())
        for ua, sources in layers.items():
            # the constant, and the bit list and residue number of every
            # listed entry, in target layer order
            constant, lists, entries = 0, [], []
            for va, bits, negated, full in looks:
                nonzero, support = self._support(va - ua)
                if not nonzero:
                    constant += full
                lists += [bits if nonzero else negated] * len(support)
                entries += support
            for ur in compress(range(len(sources)), sources):
                bit = sources[ur]
                plus = diff[diff[ur][0]].__getitem__   # residue number s -> r + s
                # the constant goes last, so the running sum grows to full
                # width only as the higher layers come: on the Fermat window,
                # 5.7 ms for all rows against 8.8 ms with the constant first
                # (warm, 2-core Xeon)
                m = sum(map(getitem, lists, map(plus, entries))) + constant
                out[bit.bit_length() - 1] = m & ~bit
        return out


def ext_table(sq: SymmetryQuotient) -> ExtTable:
    """The ExtTable of a quotient, built on first use and kept with the quotient."""
    table = sq.derived.get("ext")
    if table is None:
        table = sq.derived["ext"] = ExtTable(sq)
    return table


def monomial_dim(sq: SymmetryQuotient, deg: BiDegree) -> int:
    """Dimension of the ambient polynomial ring in one bidegree."""
    table = ext_table(sq)
    return table.monomial_row(deg.a)[table.residue_index(deg.b)]


def _w_degree(sq: SymmetryQuotient) -> BiDegree:
    """Bidegree of the defining polynomial: (d, 0) since its rows have character 0."""
    return bidegree(sq, sq.degree, [0] * len(sq.quotient_orders))


def hom_dim(sq: SymmetryQuotient, source: BiDegree, target: BiDegree) -> int:
    """dim Hom(O(source), O(target)): sections of the coordinate ring in
    bidegree target - source."""
    return hom_dim_delta(sq, delta(sq, source, target))


def hom_dim_delta(sq: SymmetryQuotient, d: BiDegree) -> int:
    table = ext_table(sq)
    return table.hom_row(d.a)[table.residue_index(d.b)]


def canonical_bidegree(sq: SymmetryQuotient) -> BiDegree:
    """Bidegree of the canonical bundle: total degree d - n, residue of minus
    the character sum of the coordinates."""
    _require_threefold(sq)
    table = ext_table(sq)
    a, r = table.canonical
    return BiDegree(a=a, b=table.residues[r])


def ext_dims(
    sq: SymmetryQuotient, source: BiDegree, target: BiDegree
) -> tuple[int, int, int, int]:
    """(dim Ext^0, ..., dim Ext^3) between two line bundles, via Serre duality."""
    _require_threefold(sq)
    table = ext_table(sq)
    r = table.diff[table.residue_index(source.b)][table.residue_index(target.b)]
    return table.ext(target.a - source.a, r)


def _neg_char_counts(sq: SymmetryQuotient, a: int) -> dict[tuple[int, ...], int]:
    """Counts of Laurent monomials with all exponents <= -1 summing to a,
    by quotient character. These index top ambient cohomology.

    Counted by character classes, never listed: write the exponents as
    -1 - f with f >= 0 summing to t = -n - a. The k variables of one
    character c contribute the factor 1/(1 - z w^-c)^k to the generating
    function of the f by sum (z) and character (w), and the -1s shift every
    character by minus the character sum. Each factor 1/(1 - z w^-c) is
    multiplied out by its own first-order recurrence, q_s = p_s + w^-c q_(s-1),
    one pass over the excesses 0..t, so the count is linear in t; the series
    then holds the counts of every smaller excess too, which are kept.

    Kept per total degree in a table in sq.derived, beside the ExtTable and
    apart from it, so the long-exact-sequence route shares no entry with the
    Serre-duality route and never hashes the quotient."""
    table = sq.derived.setdefault("neg_counts", {})
    counts = table.get(a)
    if counts is not None:
        return counts
    total = -sq.n - a
    if total < 0:
        counts = table[a] = {}
        return counts
    orders = sq.quotient_orders
    residues = all_residues(sq)
    number = {r: i for i, r in enumerate(residues)}
    classes = Counter(
        tuple(chars[j] for chars in sq.characters) for j in range(sq.n)
    )
    # series[s][i]: choices of f summing to s that give residue number i
    series = [[0] * len(residues) for _ in range(total + 1)]
    start = tuple(-sum(chars) % m for chars, m in zip(sq.characters, orders))
    series[0][number[start]] = 1
    for c, k in classes.items():
        # w^-c moves residue r to r - c, so the entry at r comes from r + c
        up = [number[tuple((x + y) % m for x, y, m in zip(r, c, orders))] for r in residues]
        for _ in range(k):
            for s in range(1, total + 1):
                series[s] = list(map(add, series[s], map(series[s - 1].__getitem__, up)))
    for s, row in enumerate(series):
        table.setdefault(-sq.n - s, {r: v for r, v in zip(residues, row) if v})
    return table[a]


def ambient_cohomology_dim(sq: SymmetryQuotient, i: int, deg: BiDegree) -> int:
    """dim H^i of a line bundle on the ambient quotient of projective space.

    Degree 0 is counted by ordinary monomials, the top degree n-1 by Laurent
    monomials with all exponents negative; every intermediate degree vanishes.
    """
    _require_graded(sq)
    if i == 0:
        return monomial_dim(sq, deg)
    if i == sq.n - 1:
        return _neg_char_counts(sq, deg.a).get(deg.b, 0)
    return 0


def hypersurface_cohomology(
    sq: SymmetryQuotient, deg: BiDegree
) -> tuple[int, int, int, int]:
    """(dim H^0, ..., dim H^3) of one line bundle on the hypersurface quotient,
    from the restriction sequence 0 -> O_P(deg - w) -> O_P(deg) -> O_X(deg) -> 0.

    This is the independent route: every term comes from ambient cohomology
    counts, with the connecting maps accounted for degree by degree.
    """
    _require_threefold(sq)
    w = _w_degree(sq)
    lower = shift(sq, deg, negate(sq, w))
    h = [ambient_cohomology_dim(sq, i, deg) for i in range(5)]
    hl = [ambient_cohomology_dim(sq, i, lower) for i in range(5)]
    # H^0(X): cokernel of multiplication by w on sections, which is injective
    h0 = h[0] - hl[0]
    if h0 < 0 or hl[1] != 0:
        raise CohomologyInvariantError(
            f"H^0 of {deg}: multiplication by W is not injective on sections"
        )
    # middle degrees: squeezed between vanishing ambient groups
    h1 = h[1] + hl[2]
    h2 = h[2] + hl[3]
    if h1 or h2:
        raise UnsupportedGeometryError(
            "nonzero intermediate ambient cohomology, sequence does not split"
        )
    # H^3(X): kernel of the surjection H^4(P, deg - w) -> H^4(P, deg)
    if h[3] != 0:
        raise CohomologyInvariantError(f"H^3 of {deg}: ambient H^3 is nonzero")
    h3 = hl[4] - h[4]
    if h3 < 0:
        raise CohomologyInvariantError(
            f"H^3 of {deg}: H^4(P, deg - w) -> H^4(P, deg) is not surjective"
        )
    return (h0, h1, h2, h3)


def ext_dims_via_les(
    sq: SymmetryQuotient, source: BiDegree, target: BiDegree
) -> tuple[int, int, int, int]:
    """Same contract as ext_dims, computed through hypersurface cohomology of
    the difference bundle instead of Serre duality."""
    return hypersurface_cohomology(sq, delta(sq, source, target))


def all_residues(sq: SymmetryQuotient):
    """Every quotient character tuple, in lexicographic order."""
    return [tuple(t) for t in product(*(range(m) for m in sq.quotient_orders))]


def hom_table(sq: SymmetryQuotient, max_a: int) -> dict[BiDegree, int]:
    """Section dimensions of O(a, b) for 0 <= a <= max_a and every residue b."""
    table = ext_table(sq)
    return {
        BiDegree(a, b): h
        for a in range(max_a + 1)
        for b, h in zip(table.residues, table.hom_row(a))
    }


def representative_table(
    sq: SymmetryQuotient, max_a: int
) -> dict[BiDegree, str | None]:
    """Lexicographically smallest monomial in each nonempty bidegree, or None.

    Any single monomial is a valid representative of its section space: a
    monomial never lies in the ideal generated by a polynomial with several
    terms.

    The exponents are chosen one variable at a time, each the smallest that
    the later variables can still complete to the cell; whether they can is
    read off count rows over the suffixes x_j..x_n, filled by the count
    recurrence over the variables in reverse order.
    """
    table = ext_table(sq)
    n = sq.n
    # suffix[a][k]: the count row of degree a over x_{n-k}..x_n
    suffix = []
    last = [[0] * len(table.residues)] * n
    reverse = table.minus[::-1]
    for a in range(max_a + 1):
        last = _count_step(a, reverse, last)
        suffix.append(last)
    out: dict[BiDegree, str | None] = {}
    for a in range(max_a + 1):
        for r, (b, h) in enumerate(zip(table.residues, table.hom_row(a))):
            if h <= 0:
                out[BiDegree(a, b)] = None
                continue
            exps = []
            rest, s = a, r
            for j in range(n - 1):
                # smallest power e of x_{j+1} such that x_{j+2}..x_n have a
                # monomial of degree rest - e whose residue is what the cell
                # still lacks, s: r less the characters of the powers chosen
                # so far, e of them x_{j+1}; some e <= rest works, since the
                # cell is nonempty
                e = 0
                while not suffix[rest - e][n - 2 - j][s]:
                    s = table.minus[j][s]
                    e += 1
                exps.append(e)
                rest -= e
            exps.append(rest)
            out[BiDegree(a, b)] = monomial_text(exps)
    return out
