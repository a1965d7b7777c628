"""Class functions and the character-theoretic toolkit.

Inner products, decomposition into irreducibles with ATLAS-style
rendering, Frobenius-Schur indicators via the squaring power map, and
real-class detection. Everything is exact; no floating point.

The arithmetic runs on an integer kernel. A value a in Q(zeta_c), stored
in the power basis, is read as the element sum_j x_j t^j of the group
ring Z[C_c] (t^c = 1), after scaling the whole class function by a common
denominator. Complex conjugation is t^j -> t^-j and a product is a cyclic
convolution, both over Python ints. Sums collect their terms in buckets
keyed by the lcm M of the conductors involved, and each bucket is reduced
modulo Phi_M once. Galois-conjugate classes carry values of the same
conductor, so for characters every bucket is Galois-stable and reduces to
a rational; the buckets that do not are summed into one vector at the lcm
of their moduli, which becomes the one Cyclotomic of the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclo import Cyclotomic, reduce_mod_phi
from .group import PermGroup, check_subgroup, coset_action, orbit_closure
from .perm import mul_images, packed_conjugator, packer


def _coerce_value(v) -> Cyclotomic:
    if isinstance(v, Cyclotomic):
        return v
    return Cyclotomic.rational(v)


class ClassFunction:
    """A vector of exact cyclotomic values, one per conjugacy class, in the
    class order of the owning table or class data (identity class first)."""

    __slots__ = ("values", "_form")

    def __init__(self, values):
        self.values = tuple(_coerce_value(v) for v in values)
        self._form = None

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

    def kernel_form(self) -> tuple:
        """(den, forms): den times value k is the group-ring element
        forms[k] = (c, ((j, x), ...)) of Z[C_c], c the conductor. Built
        once per class function."""
        if self._form is None:
            den = lcm(*(x.denominator for v in self.values for x in v.coords))
            self._form = (den, tuple(
                (v.conductor, tuple((j, x.numerator * (den // x.denominator))
                                    for j, x in enumerate(v.coords) if x))
                for v in self.values
            ))
        return self._form

    def is_real_valued(self) -> bool:
        return all(_is_real(f) for f in self.kernel_form()[1])

    def is_rational_valued(self) -> bool:
        return all(v.is_rational() for v in self.values)

    def __repr__(self):
        return f"ClassFunction({list(self.values)!r})"


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
        self._degrees = None
        self._letters = None
        self._real_rows = None
        self._real_classes = None
        self._o2prime_classes = None

    # -- basic derived data -------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    @property
    def degrees(self) -> list:
        """Row degrees; computed once. `validate` checks the degree column
        before it reads them."""
        if self._degrees is None:
            self._degrees = [int(r.degree.as_rational()) for r in self.rows]
        return self._degrees

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
        """Whether each row is real-valued; computed once."""
        if self._real_rows is None:
            self._real_rows = [r.is_real_valued() for r in self.rows]
        return self._real_rows

    def real_class_indices(self) -> list:
        """Classes where every irreducible takes a real value; computed once."""
        if self._real_classes is None:
            forms = [r.kernel_form()[1] for r in self.rows]
            self._real_classes = [
                k for k in range(self.n_classes) if all(_is_real(f[k]) for f in forms)
            ]
        return self._real_classes

    def o2prime_classes(self) -> list:
        """Classes of O^{2'}(G), the least normal subgroup of odd index;
        computed once. Every normal subgroup is the intersection of the
        kernels of the irreducibles of its quotient, and those of a
        subgroup of odd index have odd index, so O^{2'}(G) is the
        intersection of the kernels {k : chi(k) = chi(1)} of odd index."""
        if self._o2prime_classes is None:
            inside = set(range(self.n_classes))
            for r in self.rows:
                kernel = {k for k, v in enumerate(r.values) if v == r.values[0]}
                if (self.order // sum(self.sizes[k] for k in kernel)) % 2 == 1:
                    inside &= kernel
            self._o2prime_classes = sorted(inside)
        return self._o2prime_classes

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check every table invariant; raises CharacterTableError naming
        the first violated relation.

        Column orthogonality is not checked separately: for a square table,
        row orthogonality X D X* = |G| I makes X invertible, so
        X* X = |G| D^-1, which is column orthogonality."""
        k = self.n_classes
        if len(self.rows) != k:
            raise CharacterTableError("row count differs from class count")
        if any(len(r) != k for r in self.rows):
            raise CharacterTableError("row length differs from class count")
        check_class_data(self.order, self.sizes, self.orders, self.power_maps)
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
        if 2 in self.power_maps:
            real = self.real_row_flags()
            for i, nu in enumerate(self.fs_indicators()):
                if (nu != 0) != real[i]:
                    raise CharacterTableError(
                        f"indicator of row {i} disagrees with real-valuedness"
                    )


def check_class_data(order: int, sizes, orders, power_maps) -> None:
    """The class-data invariants: sizes sum to the order, the identity class
    comes first, sizes and element orders divide the order, and each prime
    power map sends a class of order o to one of order o/p or o. Raises
    CharacterTableError naming the first violated relation."""
    if sum(sizes) != order:
        raise CharacterTableError("class sizes do not sum to the group order")
    if not sizes or sizes[0] != 1 or orders[0] != 1:
        raise CharacterTableError("class 0 must be the identity class")
    if any(s < 1 or order % s for s in sizes):
        raise CharacterTableError("class size does not divide the group order")
    if any(o < 1 or order % o for o in orders):
        raise CharacterTableError("element order is not a positive divisor of the group order")
    for p, pm in power_maps.items():
        if pm[0] != 0:
            raise CharacterTableError(f"power map {p} moves the identity class")
        for i, j in enumerate(pm):
            oi, oj = orders[i], orders[j]
            expect = oi // p if oi % p == 0 else oi
            if oj != expect:
                raise CharacterTableError(
                    f"power map {p} maps order {oi} to order {oj} at class {i}"
                )


def _letter(k: int) -> str:
    out = ""
    while True:
        out = "abcdefghijklmnopqrstuvwxyz"[k % 26] + out
        k = k // 26 - 1
        if k < 0:
            return out


# -- the integer group-ring kernel ----------------------------------------------


def _is_real(form) -> bool:
    """A value v is real when v - reflect(v) is 0 modulo Phi_c."""
    c, pairs = form
    if c == 1:
        return True
    vec = [0] * c
    for j, x in pairs:
        vec[j] += x
        vec[-j % c] -= x
    return not any(reduce_mod_phi(vec, c))


def _total(scalar, buckets: dict, den):
    """The exact value of (scalar + the bucket elements) / den: a Fraction
    when rational, else a Cyclotomic. A bucket of modulus M that does not
    reduce to a rational is lifted to the lcm L of all such moduli by
    zeta_M = zeta_L^(L/M), and the scalar joins their sum at index 0."""
    rest = {}
    for M, vec in buckets.items():
        coords = reduce_mod_phi(vec, M)
        if any(coords[1:]):
            rest[M] = coords
        else:
            scalar += coords[0]
    if not rest:
        return Fraction(scalar, den)
    L = lcm(*rest)
    total = [scalar] + [0] * (L - 1)
    for M, coords in rest.items():
        step = L // M
        for i, x in enumerate(coords):
            total[i * step] += x
    v = Cyclotomic(L, [Fraction(x, den) for x in total])
    return v.as_rational() if v.is_rational() else v


def _correlation(weights, fa, fb, den):
    """sum_k w_k a_k conj(b_k) / den for kernel forms fa, fb; exact."""
    scalar = 0
    buckets: dict = {}
    for w, (ca, pa), (cb, pb) in zip(weights, fa, fb):
        if not (w and pa and pb):
            continue
        if ca == cb == 1:
            scalar += w * pa[0][1] * pb[0][1]
            continue
        M = lcm(ca, cb)
        vec = buckets.get(M)
        if vec is None:
            vec = buckets[M] = [0] * M
        ea, eb = M // ca, M // cb
        for i, x in pa:
            wx, ia = w * x, i * ea
            for j, y in pb:
                vec[(ia - j * eb) % M] += wx * y
    return _total(scalar, buckets, den)


def _combination(terms, den):
    """sum w v / den over (w, kernel form of v) pairs; exact."""
    scalar = 0
    buckets: dict = {}
    for w, (c, pairs) in terms:
        if not (w and pairs):
            continue
        if c == 1:
            scalar += w * pairs[0][1]
            continue
        vec = buckets.get(c)
        if vec is None:
            vec = buckets[c] = [0] * c
        for j, x in pairs:
            vec[j] += w * x
    return _total(scalar, buckets, den)


def _as_class_function(a) -> ClassFunction:
    return a if isinstance(a, ClassFunction) else ClassFunction(a)


# -- core operations -------------------------------------------------------------


def perm_character(G: PermGroup, H: PermGroup, classes) -> ClassFunction:
    """The permutation character pi = 1_H^G at the representatives of the
    class data `classes` (group, reps, sizes, orders, classify and
    element_class_map): its value at a class is the number of cosets of H
    fixed by the representative. Raises ValueError unless H is a subgroup
    of G.

    This is the one place that picks how pi is computed. If |H| <= k [G:H]
    for k classes, pi comes from the class fusion of H
    (`perm_character_by_fusion`): one element-map probe per element of H
    when every class of G is walked whole, else one `classify` per class
    of H. Otherwise G acts on the [G:H] cosets and each representative is
    sifted through H once per coset that passes the orbit guard of
    `CosetAction.fixed_cosets`, at most k [G:H] sifts in all.
    """
    if H.order() <= len(classes.sizes) * (G.order() // H.order()):
        return perm_character_by_fusion(G, H, classes)
    return perm_character_values(coset_action(G, H), classes.reps)


def perm_character_by_fusion(G: PermGroup, H: PermGroup, classes) -> ClassFunction:
    """pi = 1_H^G by the induced-character formula
    pi(k) = |G| |H & C_k| / (|H| |C_k|). Raises ValueError unless H is a
    subgroup of G, before any lookup.

    With an element map (`element_class_map`, every class of G walked
    whole) |H & C_k| counts one packed probe per element of H: a probe is
    cheaper than walking the classes of H. Without one (a matching, or
    classes sampled above the threshold) `classify` walks the element's
    cycles and may move it onto a base point set, and it is a class
    function, so H is walked class by class (`orbit_closure` under its
    generators, packed) and each class of H costs one `classify` of its
    first member, counted with the length of the class.

    The counts and class sizes are pooled per value b = classify(rep_k),
    so pi(k) = |G| count[b] / (|H| sum of the sizes in b). For exact class
    data b = k and this is the formula above. A matched classify returns
    one column for the columns that share a bucket key; their classes are
    Galois conjugate, so they have equal sizes and the rational pi is
    constant on them, and the pooled ratio is that constant.
    """
    check_subgroup(G, H)
    g_order, h_order = G.order(), H.order()
    counts = [0] * len(classes.sizes)
    classify, pack = classes.classify, packer(G.degree)
    if classes.element_class_map() is not None:
        # classify is the element map's probe, keyed packed
        key = pack
        for h in map(pack, H.element_images_iter()):
            counts[classify(h)] += 1
    else:
        key, seen = tuple, set()
        conjugators = [packed_conjugator(g.images) for g in H.generators]
        for h in map(pack, H.element_images_iter()):
            if h in seen:
                continue
            orbit = orbit_closure(h, conjugators)
            seen |= orbit
            counts[classify(tuple(h))] += len(orbit)
            if len(seen) == h_order:
                break
    pooled = [0] * len(classes.sizes)
    buckets = [classify(key(r.images)) for r in classes.reps]
    for b, s in zip(buckets, classes.sizes):
        pooled[b] += s
    return ClassFunction([Fraction(g_order * counts[b], h_order * pooled[b]) for b in buckets])


def perm_character_values(action, reps) -> ClassFunction:
    """The permutation character of an existing CosetAction at `reps`."""
    return ClassFunction([Fraction(action.fixed_cosets(r)) for r in reps])


def inner_product(a, b, sizes, order) -> Fraction:
    """<a,b> = (1/|G|) sum |K| a(K) conj(b(K)); exact.

    Raises if the lengths mismatch or the result is irrational (which
    signals values indexed by different class orders).
    """
    a, b = _as_class_function(a), _as_class_function(b)
    if len(a) != len(b) or len(a) != len(sizes):
        raise ValueError("class-function length mismatch")
    (da, fa), (db, fb) = a.kernel_form(), b.kernel_form()
    total = _correlation(sizes, fa, fb, da * db)
    if not isinstance(total, Fraction):
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
    forms = [row.kernel_form() for row in table.rows]
    d_pi, f_pi = pi.kernel_form()
    den = lcm(d_pi, *(d for d, _ in forms))
    for k in range(table.n_classes):
        terms = [(m * (den // d), f[k]) for m, (d, f) in zip(mults, forms) if m]
        terms.append((-(den // d_pi), f_pi[k]))
        if _combination(terms, den) != 0:
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
    den, forms = row.kernel_form()
    total = _combination(((s, forms[squares[k]]) for k, s in enumerate(table.sizes)), den)
    if not isinstance(total, Fraction):
        raise ValueError("indicator sum is not rational: corrupted table")
    nu = total / table.order
    if nu.denominator != 1 or int(nu) not in (-1, 0, 1):
        raise ValueError(f"indicator value {nu} outside {{0,+1,-1}}: corrupted table")
    return int(nu)


def fs_indicator_brute(row: ClassFunction, group: PermGroup, classify) -> Fraction:
    """Independent oracle: literally (1/|G|) sum over group elements of
    row(class of g^2). `classify` maps an image tuple to a class index."""
    counts: dict = {}
    for g in group.element_images_iter():
        k = classify(mul_images(g, g))
        counts[k] = counts.get(k, 0) + 1
    den, forms = row.kernel_form()
    total = _combination(((c, forms[k]) for k, c in counts.items()), den)
    if not isinstance(total, Fraction):
        raise ValueError("brute-force indicator sum irrational")
    return total / group.order()


def restriction_values(row: ClassFunction, fusion) -> ClassFunction:
    """Values of a G-class-function on the classes of a subgroup, given the
    fusion map (H-class index -> G-class index)."""
    return ClassFunction([row.values[g] for g in fusion])
