"""Constructors and bundled data for the groups used throughout the checks.

Families cover cyclic, dihedral, generalized quaternion, symmetric and
alternating groups, Frobenius groups C_p : C_m, the affine groups
AGL(1,q), PSL(2,q) and PSL(3,q) in their natural actions, SL(2,3),
C3 : Q16, and the Mathieu groups M11, M22, M23 from bundled generator
files. Construction is deterministic and every constructor asserts the
closed-form order of the family.
"""

from __future__ import annotations

import re
from importlib import resources
from math import factorial, gcd
from pathlib import Path

from .cyclo import divisors, prime_factors
from .dixon import primitive_root
from .group import PermGroup, _point_orbits, setwise_stabilizer, sylow_2, trivial_group
from .perm import Permutation, parse_permutation

# Lexicographically least primitive polynomial per (p, a), coefficients low
# to high, monic; validated at field construction (the residue of x must
# have multiplicative order q-1).
_FIELD_POLYS = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (2, 0, 0, 1, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 0, 1, 1),
    (7, 2): (3, 1, 1),
    (11, 2): (2, 4, 1),
}

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


class GF:
    """GF(p^a) for q <= 128, elements indexed 0..q-1 in lex order of their
    coefficient tuples (so 0 is the zero element and 1 is the unit)."""

    def __init__(self, q: int):
        p, a = _prime_power(q)
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported bound {MAX_FIELD_SIZE}")
        self.q, self.p, self.a = q, p, a
        if a == 1:
            tuples = [(i,) for i in range(p)]
            mul_tuples = lambda x, y: ((x[0] * y[0]) % p,)
        else:
            poly = _FIELD_POLYS[(p, a)]

            def mul_tuples(x, y):
                out = [0] * (2 * a - 1)
                for i, xi in enumerate(x):
                    if xi:
                        for j, yj in enumerate(y):
                            out[i + j] = (out[i + j] + xi * yj) % p
                for i in range(len(out) - 1, a - 1, -1):
                    c = out[i]
                    if c:
                        out[i] = 0
                        for j in range(a):
                            out[i - a + j] = (out[i - a + j] - c * poly[j]) % p
                return tuple(out[:a])

            import itertools

            # coefficient tuples, low degree first
            tuples = sorted(itertools.product(range(p), repeat=a))
        self.tuples = tuples
        index = {t: i for i, t in enumerate(tuples)}
        self.zero = index[(0,) * a]
        self.one = index[(1,) + (0,) * (a - 1)]
        gen_t = self._find_generator(tuples, mul_tuples, index)
        self.generator = index[gen_t]
        self.add_table = [
            [index[tuple((xi + yi) % p for xi, yi in zip(x, y))] for y in tuples]
            for x in tuples
        ]
        self.mul_table = [[index[mul_tuples(x, y)] for y in tuples] for x in tuples]
        self.neg = [index[tuple(-xi % p for xi in x)] for x in tuples]

    def _find_generator(self, tuples, mul_tuples, index):
        if self.a == 1:
            return (1,) if self.p == 2 else (primitive_root(self.p),)
        # residue class of x; primitivity of the shipped polynomial is
        # what makes this a generator, asserted here
        xt = (0, 1) + (0,) * (self.a - 2)
        o, y = 1, xt
        one = tuples[self.one]
        while y != one:
            y = mul_tuples(y, xt)
            o += 1
            if o > self.q:
                raise AssertionError("shipped field polynomial is not primitive")
        if o != self.q - 1:
            raise AssertionError("shipped field polynomial is not primitive")
        return xt

    def add(self, i, j):
        return self.add_table[i][j]

    def mul(self, i, j):
        return self.mul_table[i][j]

    def power(self, i, k):
        out = self.one
        for _ in range(k):
            out = self.mul(out, i)
        return out


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


def psl2(q: int) -> CorpusGroup:
    """PSL(2,q) on the projective line (q+1 points: infinity then GF(q))."""
    field = GF(q)
    INF = 0  # point 0 is infinity; field element x sits at index 1+x

    def moebius_t(pt):  # x -> x+1
        return pt if pt == INF else 1 + field.add(pt - 1, field.one)

    def moebius_s(pt):  # x -> g^2 x (odd q), x -> g x (even q)
        s = field.mul(field.generator, field.generator) if q % 2 else field.generator
        return pt if pt == INF else 1 + field.mul(s, pt - 1)

    def moebius_w(pt):  # x -> -1/x
        if pt == INF:
            return 1 + field.zero
        x = pt - 1
        if x == field.zero:
            return INF
        inv = field.power(x, q - 2)
        return 1 + field.neg[inv]

    gens = [
        Permutation([moebius_t(i) for i in range(q + 1)]),
        Permutation([moebius_s(i) for i in range(q + 1)]),
        Permutation([moebius_w(i) for i in range(q + 1)]),
    ]
    expected = q * (q * q - 1) // gcd(2, q - 1)
    G = _assert_order(PermGroup(gens, q + 1), expected, f"psl2_{q}")
    return CorpusGroup(f"psl2_{q}", G, {"borel": lambda: G.pointwise_stabilizer([INF])})


def psl3(q: int) -> CorpusGroup:
    """PSL(3,q) on the q^2+q+1 projective points."""
    field = GF(q)
    pts = []
    for x in range(q):
        for y in range(q):
            for z in range(q):
                v = (x, y, z)
                if v == (field.zero,) * 3:
                    continue
                first = next(c for c in v if c != field.zero)
                if first == field.one:
                    pts.append(v)
    pts.sort()
    index = {v: i for i, v in enumerate(pts)}

    def normalize(v):
        first = next(c for c in v if c != field.zero)
        inv = field.power(first, q - 2)
        return tuple(field.mul(inv, c) for c in v)

    def act(matrix):
        # row vector times matrix; matrix entries are field indices
        out = []
        for v in pts:
            w = []
            for j in range(3):
                s = field.zero
                for i in range(3):
                    s = field.add(s, field.mul(v[i], matrix[i][j]))
                w.append(s)
            out.append(index[normalize(tuple(w))])
        return Permutation(out)

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
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def act(m):
        out = []
        for (x, y) in vecs:
            w = ((x * m[0][0] + y * m[1][0]) % 3, (x * m[0][1] + y * m[1][1]) % 3)
            out.append(index[w])
        return Permutation(out)

    a = act([[1, 1], [0, 1]])
    b = act([[0, 2], [1, 0]])
    G = _assert_order(PermGroup([a, b], 8), 24, "sl23")
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
    for pattern, builder in [
        (r"c([0-9]+)", lambda m: cyclic(int(m.group(1)))),
        (r"d([0-9]+)", lambda m: dihedral(int(m.group(1)))),
        (r"q([0-9]+)", lambda m: quaternion(int(m.group(1)))),
        (r"s([0-9]+)", lambda m: symmetric(int(m.group(1)))),
        (r"a([0-9]+)", lambda m: alternating(int(m.group(1)))),
        (r"f([0-9]+)_([0-9]+)", lambda m: frobenius(int(m.group(1)), int(m.group(2)))),
        (r"agl1_([0-9]+)", lambda m: agl1(int(m.group(1)))),
        (r"psl2_([0-9]+)", lambda m: psl2(int(m.group(1)))),
        (r"psl3_([0-9]+)", lambda m: psl3(int(m.group(1)))),
    ]:
        m = re.fullmatch(pattern, name)
        if m:
            return builder(m)
    raise ValueError(f"unknown family {family!r}")
