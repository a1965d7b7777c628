"""Class functions and the character-theoretic toolkit.

Inner products, decomposition into irreducibles with ATLAS-style
rendering, Frobenius-Schur indicators via the squaring power map, and
real-class detection. Everything is exact; no floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclotomic, CycloSum, factorize
from .group import PermGroup, coset_action


def _coerce_value(v) -> Cyclotomic:
    if isinstance(v, Cyclotomic):
        return v
    return Cyclotomic.rational(v)


class ClassFunction:
    """A vector of exact cyclotomic values, one per conjugacy class, in the
    class order of the owning table or class data (identity class first)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(_coerce_value(v) for v in values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i) -> Cyclotomic:
        return self.values[i]

    def __eq__(self, other):
        return isinstance(other, ClassFunction) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    @property
    def degree(self) -> Cyclotomic:
        return self.values[0]

    def is_real_valued(self) -> bool:
        return all(v.is_real() for v in self.values)

    def is_rational_valued(self) -> bool:
        return all(v.is_rational() for v in self.values)

    def conjugate(self) -> "ClassFunction":
        return ClassFunction([v.conjugate() for v in self.values])

    def __repr__(self):
        return f"ClassFunction([{', '.join(str(v) for v in self.values)}])"


class CharacterTableError(ValueError):
    """A violated character-table invariant; the message names the relation."""


class CharacterTable:
    """Square table of irreducible character values.

    `sizes`, `orders` and `power_maps` describe the classes (class 0 is the
    identity class); `rows` are the irreducibles in a deterministic order.
    ATLAS letters (`1a`, `21a`, ...) follow the stored row order within
    each degree.
    """

    def __init__(self, name: str, order: int, sizes, orders, power_maps, rows):
        self.name = name
        self.order = order
        self.sizes = tuple(sizes)
        self.orders = tuple(orders)
        self.power_maps = {int(p): tuple(m) for p, m in power_maps.items()}
        self.rows = [r if isinstance(r, ClassFunction) else ClassFunction(r) for r in rows]
        self._fs = None
        self._letters = None

    # -- basic derived data -------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    @property
    def degrees(self) -> list:
        return [int(r.degree.as_rational()) for r in self.rows]

    def row_letters(self) -> list:
        """ATLAS letter per row: a, b, ... within each degree, by row order."""
        if self._letters is None:
            count: dict = {}
            letters = []
            for d in self.degrees:
                k = count.get(d, 0)
                count[d] = k + 1
                letters.append(_letter(k))
            self._letters = letters
        return self._letters

    def row_name(self, i: int) -> str:
        return f"{self.degrees[i]}{self.row_letters()[i]}"

    def fs_indicators(self) -> list:
        if self._fs is None:
            self._fs = [fs_indicator(r, self) for r in self.rows]
        return self._fs

    def real_row_flags(self) -> list:
        return [r.is_real_valued() for r in self.rows]

    def real_class_indices(self) -> list:
        """Classes where every irreducible takes a real value."""
        return [
            k
            for k in range(self.n_classes)
            if all(r.values[k].is_real() for r in self.rows)
        ]

    def power_class(self, i: int, k: int) -> int:
        """Class of g^k for g in class i, composed from stored prime maps."""
        m = self.orders[i]
        k %= m
        if k == 0:
            return 0
        cur = i
        for p in factorize(k):
            pm = self.power_maps.get(p)
            if pm is None:
                raise CharacterTableError(
                    f"power map for prime {p} not stored; cannot form k-th powers"
                )
            cur = pm[cur]
        return cur

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check every table invariant; raises CharacterTableError naming
        the first violated relation."""
        k = self.n_classes
        if len(self.rows) != k:
            raise CharacterTableError("row count differs from class count")
        if any(len(r) != k for r in self.rows):
            raise CharacterTableError("row length differs from class count")
        if sum(self.sizes) != self.order:
            raise CharacterTableError("class sizes do not sum to the group order")
        if self.sizes[0] != 1 or self.orders[0] != 1:
            raise CharacterTableError("class 0 must be the identity class")
        if any(self.order % s for s in self.sizes):
            raise CharacterTableError("class size does not divide the group order")
        if any(o < 1 or self.order % o for o in self.orders):
            raise CharacterTableError("element order is not a positive divisor of the group order")
        for p, pm in self.power_maps.items():
            if pm[0] != 0:
                raise CharacterTableError(f"power map {p} moves the identity class")
            for i, j in enumerate(pm):
                oi, oj = self.orders[i], self.orders[j]
                expect = oi // p if oi % p == 0 else oi
                if oj != expect:
                    raise CharacterTableError(
                        f"power map {p} maps order {oi} to order {oj} at class {i}"
                    )
        for r in self.rows:
            d = r.degree.as_rational()
            if d is None or d.denominator != 1 or d <= 0:
                raise CharacterTableError("degree column entry not a positive integer")
        if sum(d * d for d in self.degrees) != self.order:
            raise CharacterTableError("sum of squared degrees differs from the group order")
        for i in range(len(self.rows)):
            for j in range(i, len(self.rows)):
                got = inner_product(self.rows[i], self.rows[j], self.sizes, self.order)
                want = 1 if i == j else 0
                if got != want:
                    raise CharacterTableError(
                        f"row orthogonality fails for rows {i},{j}: <.,.> = {got}"
                    )
        for a in range(k):
            for b in range(a, k):
                acc = CycloSum()
                for r in self.rows:
                    acc.add(r.values[a] * r.values[b].conjugate())
                got = acc.total_rational()
                want = Fraction(self.order, self.sizes[a]) if a == b else Fraction(0)
                if got != want:
                    raise CharacterTableError(
                        f"column orthogonality fails for classes {a},{b}"
                    )
        if 2 in self.power_maps:
            for i, nu in enumerate(self.fs_indicators()):
                if nu not in (-1, 0, 1):
                    raise CharacterTableError(
                        f"indicator of row {i} is {nu}, outside {{0,+1,-1}}"
                    )
                if (nu != 0) != self.rows[i].is_real_valued():
                    raise CharacterTableError(
                        f"indicator of row {i} disagrees with real-valuedness"
                    )


def _letter(k: int) -> str:
    out = ""
    while True:
        out = "abcdefghijklmnopqrstuvwxyz"[k % 26] + out
        k = k // 26 - 1
        if k < 0:
            return out


# -- core operations -------------------------------------------------------------


def perm_character(G: PermGroup, H: PermGroup, reps) -> ClassFunction:
    """The permutation character of G on the cosets of H: its value at each
    class is the number of cosets fixed by that class representative."""
    return perm_character_values(coset_action(G, H), reps)


def perm_character_values(action, reps) -> ClassFunction:
    """The permutation character of an existing CosetAction at `reps`."""
    return ClassFunction([Fraction(action.fixed_cosets(r)) for r in reps])


def inner_product(a, b, sizes, order) -> Fraction:
    """<a,b> = (1/|G|) sum |K| a(K) conj(b(K)); exact.

    Raises if the lengths mismatch or the result is irrational (which
    signals values indexed by different class orders).
    """
    av = a.values if isinstance(a, ClassFunction) else tuple(map(_coerce_value, a))
    bv = b.values if isinstance(b, ClassFunction) else tuple(map(_coerce_value, b))
    if len(av) != len(bv) or len(av) != len(sizes):
        raise ValueError("class-function length mismatch")
    acc = CycloSum()
    for s, x, y in zip(sizes, av, bv):
        acc.add(x * y.conjugate() * s)
    total = acc.total_rational()
    if total is None:
        raise ValueError("inner product is not rational; mismatched class data?")
    return total / order


def decompose(pi: ClassFunction, table: CharacterTable) -> list:
    """Multiplicities of pi over the table rows, as nonnegative integers.

    Raises ValueError when a multiplicity is not a nonnegative integer or
    the recomposition does not reproduce pi (pi is then not a character
    for this table's class order).
    """
    mults = []
    for i, row in enumerate(table.rows):
        m = inner_product(pi, row, table.sizes, table.order)
        if m.denominator != 1 or m < 0:
            raise ValueError(
                f"multiplicity of {table.row_name(i)} is {m}, not a nonnegative integer"
            )
        mults.append(int(m))
    for k in range(table.n_classes):
        acc = CycloSum()
        for m, row in zip(mults, table.rows):
            if m:
                acc.add(row.values[k] * m)
        if not (acc.total() == pi.values[k]):
            raise ValueError("recomposition mismatch: input is not a character here")
    return mults


def atlas_string(mults, table: CharacterTable) -> str:
    """ATLAS-style rendering: `1a+21a+55a`, letter repeated for multiplicity
    (`230aa` for multiplicity two)."""
    parts = []
    letters = table.row_letters()
    for i, m in enumerate(mults):
        if m:
            parts.append(f"{table.degrees[i]}{letters[i] * m}")
    return "+".join(parts) if parts else "0"


def fs_indicator(row: ClassFunction, table: CharacterTable) -> int:
    """nu_2 via the squaring power map: (1/|G|) sum |K| row(class of g_K^2)."""
    squares = table.power_maps.get(2)
    if squares is None:
        raise CharacterTableError("power map for 2 is required to compute indicators")
    acc = CycloSum()
    for k, s in enumerate(table.sizes):
        acc.add(row.values[squares[k]] * s)
    total = acc.total_rational()
    if total is None:
        raise ValueError("indicator sum is not rational: corrupted table")
    nu = total / table.order
    if nu.denominator != 1 or int(nu) not in (-1, 0, 1):
        raise ValueError(f"indicator value {nu} outside {{0,+1,-1}}: corrupted table")
    return int(nu)


def fs_indicator_brute(row: ClassFunction, group: PermGroup, class_of) -> Fraction:
    """Independent oracle: literally (1/|G|) sum over group elements of
    row(class of g^2). `class_of` maps an image tuple to a class index."""
    from .perm import mul_images

    counts: dict = {}
    for g in group.element_images_iter():
        k = class_of(mul_images(g, g))
        counts[k] = counts.get(k, 0) + 1
    acc = CycloSum()
    for k, c in counts.items():
        acc.add(row.values[k] * c)
    total = acc.total_rational()
    if total is None:
        raise ValueError("brute-force indicator sum irrational")
    return total / group.order()


def regular_character(table: CharacterTable) -> ClassFunction:
    """|G| at the identity, zero elsewhere."""
    vals = [Fraction(0)] * table.n_classes
    vals[0] = Fraction(table.order)
    return ClassFunction(vals)


def trivial_character(table: CharacterTable) -> ClassFunction:
    return ClassFunction([Fraction(1)] * table.n_classes)


def restriction_values(row: ClassFunction, fusion) -> ClassFunction:
    """Values of a G-class-function on the classes of a subgroup, given the
    fusion map (H-class index -> G-class index)."""
    return ClassFunction([row.values[g] for g in fusion])
