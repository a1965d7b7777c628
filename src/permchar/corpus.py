"""Constructors and bundled data for the groups used throughout the checks.

Families cover cyclic, dihedral, generalized quaternion, symmetric and
alternating groups, Frobenius groups C_p : C_m, the affine groups
AGL(1,q), PSL(2,q) and PSL(3,q) in their natural actions, SL(2,3),
C3 : Q16, and the Mathieu groups M11, M22, M23 from bundled generator
files. Construction is deterministic and every constructor asserts the
closed-form order of the family.
"""

from __future__ import annotations

import itertools
import re
from importlib import resources
from math import factorial, gcd
from pathlib import Path

from .cyclo import divisors, prime_factors
from .dixon import primitive_root
from .group import PermGroup, _point_orbits, setwise_stabilizer, sylow_2, trivial_group
from .perm import Permutation, parse_permutation

MAX_FIELD_SIZE = 128


def _prime_power(q: int) -> tuple:
    """(p, a) with q = p^a for a prime p; ValueError otherwise."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, a = factors[0], 1
    while p ** a < q:
        a += 1
    return p, a


def _powers_of_x(p: int, a: int) -> list:
    """x^0 .. x^(q-2) as coefficient tuples, low degree first, modulo the
    lexicographically least monic degree-a polynomial (coefficients low to
    high) modulo which x has order q-1: such a polynomial is primitive."""
    q = p ** a
    one = (1,) + (0,) * (a - 1)
    # a constant term 0 would make x a zero divisor
    for low in itertools.product(range(1, p), *[range(p)] * (a - 1)):
        powers, y = [], one
        while len(powers) < q - 1:
            powers.append(y)
            # y * x: shift up, then reduce x^a = -(low part)
            top = y[-1]
            y = tuple((c - top * m) % p for c, m in zip((0,) + y[:-1], low))
            if y == one:
                break
        if y == one and len(powers) == q - 1:
            return powers
    raise AssertionError(f"no primitive polynomial of degree {a} over GF({p})")


class GF:
    """GF(p^a) for q <= 128, elements indexed 0..q-1 in lex order of their
    coefficient tuples (so 0 is the zero element and 1 is the unit).

    The generator is the least primitive root mod p when a = 1 (1 for
    p = 2), and otherwise the residue of x modulo the lexicographically
    least primitive polynomial (`_powers_of_x`). Products and powers are
    read off the list of generator powers and its log dict."""

    def __init__(self, q: int):
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported bound {MAX_FIELD_SIZE}")
        p, a = _prime_power(q)
        self.q, self.p, self.a = q, p, a
        # coefficient tuples, low degree first
        self.tuples = list(itertools.product(range(p), repeat=a))
        self._index = index = {t: i for i, t in enumerate(self.tuples)}
        self.zero = index[(0,) * a]
        self.one = index[(1,) + (0,) * (a - 1)]
        if a == 1:
            g = 1 if p == 2 else primitive_root(p)
            self.exp = [pow(g, k, p) for k in range(q - 1)]
        else:
            self.exp = [index[t] for t in _powers_of_x(p, a)]
        self.log = {x: k for k, x in enumerate(self.exp)}
        self.generator = self.exp[1 % (q - 1)]  # GF(2)'s generator is 1
        self.neg = [index[tuple(-c % p for c in t)] for t in self.tuples]

    def add(self, i, j):
        x, y = self.tuples[i], self.tuples[j]
        return self._index[tuple((c + d) % self.p for c, d in zip(x, y))]

    def mul(self, i, j):
        if i == self.zero or j == self.zero:
            return self.zero
        return self.exp[(self.log[i] + self.log[j]) % (self.q - 1)]

    def power(self, i, k):
        if i == self.zero:
            return self.one if k == 0 else self.zero
        return self.exp[self.log[i] * k % (self.q - 1)]


class CorpusGroup:
    """A constructed group plus its named subgroups."""

    def __init__(self, name: str, group: PermGroup, selectors=None):
        self.name = name
        self.group = group
        self._selectors = dict(selectors or {})
        self._subgroups: dict = {}

    def subgroup_names(self):
        return sorted(self._selectors) + ["sylow2", "trivial", "whole"]

    def subgroup(self, selector: str) -> PermGroup:
        """The named subgroup, built on the first call and kept."""
        H = self._subgroups.get(selector)
        if H is None:
            H = self._subgroups[selector] = self._build_subgroup(selector)
        return H

    def _build_subgroup(self, selector: str) -> PermGroup:
        if selector in self._selectors:
            out = self._selectors[selector]
            return out() if callable(out) else out
        if selector == "sylow2":
            return sylow_2(self.group)
        if selector == "trivial":
            return trivial_group(self.group.degree)
        if selector == "whole":
            return self.group
        m = re.fullmatch(r"point([0-9]+)", selector)
        if m:
            point = int(m.group(1))
            if point >= self.group.degree:
                raise ValueError(
                    f"{selector}: {self.name} acts on points 0..{self.group.degree - 1}"
                )
            return self.group.pointwise_stabilizer([point])
        raise ValueError(
            f"unknown subgroup selector {selector!r} for {self.name};"
            f" available: {', '.join(self.subgroup_names())}"
        )


def _assert_order(g: PermGroup, expected: int, name: str) -> PermGroup:
    if g.order() != expected:
        raise AssertionError(f"{name}: constructed order {g.order()} != expected {expected}")
    return g


# -- elementary families -------------------------------------------------------


def cyclic(n: int) -> CorpusGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    g = Permutation(tuple(range(1, n)) + (0,))
    G = _assert_order(PermGroup([g], n), n, f"c{n}")
    return CorpusGroup(f"c{n}", G)


def dihedral(order: int) -> CorpusGroup:
    if order < 2 or order % 2:
        raise ValueError("dihedral family takes the group order, an even integer >= 2")
    n = order // 2
    if n == 1:
        return CorpusGroup("d2", _assert_order(PermGroup([Permutation((1, 0))], 2), 2, "d2"))
    rot = Permutation(tuple(range(1, n)) + (0,))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    G = _assert_order(PermGroup([rot, ref], n), order, f"d{order}")
    return CorpusGroup(f"d{order}", G)


def quaternion(order: int) -> CorpusGroup:
    """Generalized quaternion of the given order 4m, regular action."""
    if order < 8 or order % 4:
        raise ValueError("generalized quaternion order must be a multiple of 4, >= 8")
    m = order // 4
    two_m = 2 * m
    # elements a^i b^j, encoded i + 2m*j; relations a^(2m)=1, b^2=a^m, a^b=a^-1
    def encode(i, j):
        return i % two_m + two_m * (j % 2)

    def rmul_a(k):
        i, j = k % two_m, k // two_m
        return encode(i + (1 if j == 0 else -1), j)

    def rmul_b(k):
        i, j = k % two_m, k // two_m
        if j == 0:
            return encode(i, 1)
        return encode(i + m, 0)

    a = Permutation([rmul_a(k) for k in range(order)])
    b = Permutation([rmul_b(k) for k in range(order)])
    G = _assert_order(PermGroup([a, b], order), order, f"q{order}")
    return CorpusGroup(f"q{order}", G)


def symmetric(n: int) -> CorpusGroup:
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    if n == 1:
        return CorpusGroup("s1", trivial_group(1))
    gens = [Permutation((1, 0) + tuple(range(2, n)))]
    if n > 2:
        gens.append(Permutation(tuple(range(1, n)) + (0,)))
    G = _assert_order(PermGroup(gens, n), factorial(n), f"s{n}")
    return CorpusGroup(f"s{n}", G)


def alternating(n: int) -> CorpusGroup:
    if n < 3:
        return CorpusGroup(f"a{n}", trivial_group(max(n, 1)))
    three = Permutation((1, 2, 0) + tuple(range(3, n)))
    if n == 3:
        gens = [three]
    elif n % 2:
        gens = [three, Permutation(tuple(range(1, n)) + (0,))]
    else:
        gens = [three, Permutation((0,) + tuple(range(2, n)) + (1,))]
    G = _assert_order(PermGroup(gens, n), factorial(n) // 2, f"a{n}")
    return CorpusGroup(f"a{n}", G)


def frobenius(p: int, m: int) -> CorpusGroup:
    """C_p : C_m inside AGL(1,p), with p prime and m dividing p-1."""
    if _prime_power(p)[1] != 1:
        raise ValueError(f"f{p}_{m}: {p} is not a prime")
    G = _assert_order(_affine(GF(p), m), p * m, f"f{p}_{m}")
    return CorpusGroup(f"f{p}_{m}", G)


def _translations(field: GF) -> list:
    """x -> x + e for e in the polynomial basis of the field, 1 first."""
    q, a = field.q, field.a
    basis = [field.tuples.index((0,) * k + (1,) + (0,) * (a - 1 - k)) for k in range(a)]
    return [Permutation([field.add(x, e) for x in range(q)]) for e in basis]


def _scaling(field: GF, m: int) -> Permutation:
    """x -> s x for the element s = g^((q-1)/m) of order m, g the field's
    generator."""
    q = field.q
    if (q - 1) % m:
        raise ValueError(f"complement order {m} does not divide {q - 1}")
    s = field.power(field.generator, (q - 1) // m)
    return Permutation([field.mul(s, x) for x in range(q)])


def _affine(field: GF, m: int) -> PermGroup:
    """GF(q) : C_m in AGL(1,q): the translations, then the scaling of order m."""
    return PermGroup(_translations(field) + [_scaling(field, m)], field.q)


def agl1(q: int) -> CorpusGroup:
    """AGL(1,q) = GF(q) : GF(q)^x on the q field elements."""
    field = GF(q)
    shifts = _translations(field)
    t = shifts[0]
    G = _assert_order(PermGroup([t, _scaling(field, q - 1)], q), q * (q - 1), f"agl1_{q}")
    selectors = {
        "f": lambda: PermGroup(shifts, q),
        "h2p": lambda: _agl_h2p(field, t),
    }
    for m in divisors(q - 1):
        if m > 1:
            selectors[f"c{m}"] = lambda m=m: PermGroup([_scaling(field, m)], q)
            selectors[f"fc{m}"] = lambda m=m: _affine(field, m)
    return CorpusGroup(f"agl1_{q}", G, selectors)


def _agl_h2p(field: GF, t: Permutation) -> PermGroup:
    """The distinguished order-2p subgroup of AGL(1,q): a translation of order p
    together with the scalar -1 (q odd)."""
    if field.q % 2 == 0:
        raise ValueError("order-2p subgroup needs odd q")
    neg = Permutation([field.neg[x] for x in range(field.q)])
    H = PermGroup([t, neg], field.q)
    if H.order() != 2 * field.p:
        raise AssertionError("order-2p subgroup construction broke")
    return H


# -- linear families -------------------------------------------------------------


def _matrix_action(field: GF, points: list, projective: bool):
    """M -> the permutation v -> vM of `points`, row vectors of field
    elements, with M a list of rows; each image is scaled to first nonzero
    coordinate 1 when `projective`."""
    index = {v: i for i, v in enumerate(points)}

    def image(v, M):
        w = []
        for column in zip(*M):
            s = field.zero
            for x, m in zip(v, column):
                s = field.add(s, field.mul(x, m))
            w.append(s)
        if projective:
            inv = field.power(next(c for c in w if c != field.zero), field.q - 2)
            w = [field.mul(inv, c) for c in w]
        return index[tuple(w)]

    return lambda M: Permutation([image(v, M) for v in points])


def psl2(q: int) -> CorpusGroup:
    """PSL(2,q) on the projective line: point 0 is infinity (0:1), and the
    field element x is point 1 + x, (1:x)."""
    field = GF(q)
    zero, one = field.zero, field.one
    act = _matrix_action(field, [(zero, one)] + [(one, x) for x in range(q)], True)
    s = field.power(field.generator, 2 if q % 2 else 1)
    gens = [
        act([[one, one], [zero, one]]),  # x -> x + 1
        act([[one, zero], [zero, s]]),  # x -> g^2 x (odd q), g x (even q)
        act([[zero, field.neg[one]], [one, zero]]),  # x -> -1/x
    ]
    expected = q * (q * q - 1) // gcd(2, q - 1)
    G = _assert_order(PermGroup(gens, q + 1), expected, f"psl2_{q}")
    return CorpusGroup(f"psl2_{q}", G, {"borel": lambda: G.pointwise_stabilizer([0])})


def psl3(q: int) -> CorpusGroup:
    """PSL(3,q) on the q^2+q+1 projective points, in lex order of their
    coordinate triples with first nonzero coordinate 1."""
    field = GF(q)
    pts = [
        v for v in itertools.product(range(q), repeat=3)
        if next((c for c in v if c != field.zero), None) == field.one
    ]
    act = _matrix_action(field, pts, True)

    def elementary(i, j, c):
        m = [[field.one if a == b else field.zero for b in range(3)] for a in range(3)]
        m[i][j] = c
        return m

    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                gens.append(act(elementary(i, j, field.one)))
                if field.a > 1:
                    gens.append(act(elementary(i, j, field.generator)))
    d = gcd(3, q - 1)
    expected = q**3 * (q**3 - 1) * (q**2 - 1) // d
    G = _assert_order(PermGroup(gens, len(pts)), expected, f"psl3_{q}")

    def line_stabilizer():
        # stabilizer of the line z = 0 (all points with last coordinate 0)
        line = frozenset(i for i, v in enumerate(pts) if v[2] == field.zero)
        return setwise_stabilizer(G, line)

    return CorpusGroup(
        f"psl3_{q}",
        G,
        {
            "point": lambda: G.pointwise_stabilizer([0]),
            "line": line_stabilizer,
        },
    )


def sl23() -> CorpusGroup:
    """SL(2,3) on the 8 nonzero vectors of GF(3)^2."""
    vecs = [v for v in itertools.product(range(3), repeat=2) if v != (0, 0)]
    act = _matrix_action(GF(3), vecs, False)
    G = _assert_order(PermGroup([act([[1, 1], [0, 1]]), act([[0, 2], [1, 0]])], 8), 24, "sl23")
    return CorpusGroup("sl23", G)


def a4_c4() -> CorpusGroup:
    """A4 : C4 of order 48, the C4 acting through a transposition of S4;
    degree-8 faithful action (4 natural points + a regular C4 block)."""
    a = Permutation.from_cycles(8, [(0, 1, 2)])
    b = Permutation.from_cycles(8, [(0, 1), (2, 3)])
    h = Permutation.from_cycles(8, [(0, 1), (4, 5, 6, 7)])
    G = _assert_order(PermGroup([a, b, h], 8), 48, "a4c4")
    return CorpusGroup("a4c4", G)


def c3_q16() -> CorpusGroup:
    """C3 : Q16 of order 48, the x-generator of Q16 inverting C3.

    Faithful degree-19 action: affine action on 3 points plus the regular
    action of the Q16 quotient-complement on 16 points, the latter taken
    from `quaternion(16)`.
    """
    qa, qb = (tuple(3 + k for k in g.images) for g in quaternion(16).group.generators)
    t = Permutation((1, 2, 0) + tuple(range(3, 19)))
    a = Permutation((0, 2, 1) + qa)
    b = Permutation((0, 1, 2) + qb)
    G = _assert_order(PermGroup([t, a, b], 19), 48, "c3q16")
    return CorpusGroup("c3q16", G)


# -- bundled permutation groups ---------------------------------------------------


_DATA_DIR_OVERRIDE: Path | None = None


def set_data_dir(path) -> Path | None:
    """Point bundled-data lookups somewhere else (CLI --data-dir); None
    restores the bundled data. Returns the previous override."""
    global _DATA_DIR_OVERRIDE
    previous = _DATA_DIR_OVERRIDE
    _DATA_DIR_OVERRIDE = Path(path) if path else None
    return previous


def data_dir() -> Path:
    if _DATA_DIR_OVERRIDE is not None:
        return _DATA_DIR_OVERRIDE
    return Path(resources.files("permchar")) / "data"


# Every generator is a tuple of `degree` images, so a file declaring a huge
# degree would exhaust memory before any check could fail.
MAX_GROUP_FILE_DEGREE = 1 << 16


def load_group_file(path) -> PermGroup:
    """Read the group-definition format: `degree N` then one generator per
    line in 1-based disjoint-cycle notation. `# name:`/`# order:` header
    comments are asserted when present."""
    text = Path(path).read_text()
    degree = None
    expected_order = None
    gens = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*order:(.*)", line)
            if m:
                value = m.group(1).strip()
                if not (value.isascii() and value.isdigit()):
                    raise ValueError(f"{path}:{lineno}: declared order {value!r} is not a"
                                     " number")
                expected_order = int(value)
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+([0-9]+)", line)
            if not m:
                raise ValueError(f"{path}:{lineno}: expected 'degree N' before generators")
            degree = int(m.group(1))
            if degree > MAX_GROUP_FILE_DEGREE:
                raise ValueError(f"{path}:{lineno}: degree {degree} exceeds the supported"
                                 f" maximum {MAX_GROUP_FILE_DEGREE}")
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if degree is None:
        raise ValueError(f"{path}: missing 'degree N' line")
    G = PermGroup(gens, degree)
    if expected_order is not None and G.order() != expected_order:
        raise ValueError(
            f"{path}: constructed order {G.order()} != declared order {expected_order}"
        )
    return G


def _load_bundled(name: str) -> PermGroup:
    return load_group_file(data_dir() / "groups" / f"{name}.grp")


def _steiner_block(G: PermGroup, points: set) -> frozenset:
    """The Steiner block through `points` (3 of them in M22, 4 in M23):
    their pointwise stabilizer has a unique 3-point orbit off them, which
    completes the block."""
    stab = G.pointwise_stabilizer(sorted(points))
    three = [o for o in _point_orbits(stab) if len(o) == 3 and not o & points]
    if len(three) != 1:
        raise AssertionError("Steiner block construction: expected a unique 3-orbit")
    return frozenset(points | three[0])


def mathieu11() -> CorpusGroup:
    G = _load_bundled("m11")

    def s5():
        H = PermGroup(
            [
                parse_permutation("(1,7,5,6,4)(2,3,10,8,9)", 11),
                parse_permutation("(1,5)(2,8)(4,11)(6,7)", 11),
            ],
            11,
        )
        if H.order() != 120:
            raise AssertionError("bundled S5 generators no longer generate S5")
        return H

    return CorpusGroup("m11", G, {"s5": s5})


def mathieu22() -> CorpusGroup:
    G = _load_bundled("m22")
    sel = {
        "hexad": lambda: _assert_order(
            setwise_stabilizer(G, _steiner_block(G, {0, 1, 2})), 5760, "2^4:A6"
        ),
        "pair": lambda: _assert_order(setwise_stabilizer(G, {0, 1}), 1920, "2^4:S5"),
    }
    return CorpusGroup("m22", G, sel)


def mathieu23() -> CorpusGroup:
    G = _load_bundled("m23")
    sel = {
        "m22": lambda: _assert_order(G.pointwise_stabilizer([22]), 443520, "M22"),
        "pair": lambda: _assert_order(setwise_stabilizer(G, {0, 1}), 40320, "PSL(3,4).2_2"),
        "heptad": lambda: _assert_order(
            setwise_stabilizer(G, _steiner_block(G, {0, 1, 2, 3})), 40320, "2^4:A7"
        ),
        "triad": lambda: _assert_order(
            setwise_stabilizer(G, {0, 1, 2}), 5760, "2^4:(3xA5).2"
        ),
    }
    return CorpusGroup("m23", G, sel)


# -- family registry ---------------------------------------------------------------


def build(family: str) -> CorpusGroup:
    """Construct a corpus group from its compact family name.

    Examples: c6, d10, q8, q16, s4, a5, f7_3, agl1_27, psl2_11, psl3_2,
    sl23, c3q16, m11, m22, m23.
    """
    name = family.lower()
    fixed = {
        "sl23": sl23,
        "c3q16": c3_q16,
        "a4c4": a4_c4,
        "m11": mathieu11,
        "m22": mathieu22,
        "m23": mathieu23,
    }
    if name in fixed:
        return fixed[name]()
    # each family with the degree it acts on, bounded like a group file's
    # before anything is built
    for pattern, builder, degree in [
        (r"c([0-9]+)", cyclic, lambda n: n),
        (r"d([0-9]+)", dihedral, lambda order: order // 2),
        (r"q([0-9]+)", quaternion, lambda order: order),
        (r"s([0-9]+)", symmetric, lambda n: n),
        (r"a([0-9]+)", alternating, lambda n: n),
        (r"f([0-9]+)_([0-9]+)", frobenius, lambda p, m: p),
        (r"agl1_([0-9]+)", agl1, lambda q: q),
        (r"psl2_([0-9]+)", psl2, lambda q: q + 1),
        (r"psl3_([0-9]+)", psl3, lambda q: q * q + q + 1),
    ]:
        m = re.fullmatch(pattern, name)
        if m:
            args = [int(x) for x in m.groups()]
            if degree(*args) > MAX_GROUP_FILE_DEGREE:
                raise ValueError(f"{family}: degree {degree(*args)} exceeds the supported"
                                 f" maximum {MAX_GROUP_FILE_DEGREE}")
            return builder(*args)
    raise ValueError(f"unknown family {family!r}")
