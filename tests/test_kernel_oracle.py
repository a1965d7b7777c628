"""The integer group-ring kernel in `charfun` against the Fraction path it
replaced.

The oracle below is the former implementation: every product is a
`Cyclotomic` (Fraction coordinates, reduced modulo Phi_n and minimized),
and sums go through `CycloSum`, which keeps pairwise-coprime conductor
buckets. Kernel and oracle must agree on every value, and on the exception
type and message wherever either raises. `Cyclotomic` is a value type, so
the oracle's field arithmetic is `add` and `mul` below: both lift their
operands to the group ring Q[C_m], m the lcm of the conductors, and
canonicalize through the constructor, independently of the `charfun`
kernel.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

from permchar import verify
from permchar.charfun import (
    CharacterTable,
    CharacterTableError,
    ClassFunction,
    decompose,
    fs_indicator,
    fs_indicator_brute,
    inner_product,
    perm_character,
)
from permchar.classes import conjugacy_classes
from permchar.corpus import build
from permchar.cyclo import Cyclotomic
from permchar.tableio import bundled_table

from helpers import regular_character, trivial_character

BUNDLED = ["s3", "s4", "a5", "d10", "q8", "sl23", "psl3_2", "m11", "m22", "m23"]


def zeta(n: int, k: int = 1) -> Cyclotomic:
    return Cyclotomic(n, [0] * (k % n) + [1])


def _lift(v, m) -> list:
    """The nonzero terms (i, x) of v (a Cyclotomic, int or Fraction) at
    conductor m, a multiple of its own: zeta_c = zeta_m^(m/c)."""
    if not isinstance(v, Cyclotomic):
        return [(0, v)] if v else []
    return [(i * (m // v.conductor), x) for i, x in enumerate(v.coords) if x]


def add(a, b) -> Cyclotomic:
    m = lcm(getattr(a, "conductor", 1), getattr(b, "conductor", 1))
    vec = [0] * m
    for i, x in _lift(a, m) + _lift(b, m):
        vec[i] += x
    return Cyclotomic(m, vec)


def mul(a, b, scale=1) -> Cyclotomic:
    """a * b * scale, for a rational scale."""
    m = lcm(getattr(a, "conductor", 1), getattr(b, "conductor", 1))
    vec, ys = [0] * m, _lift(b, m)
    for i, x in _lift(a, m):
        for j, y in ys:
            vec[(i + j) % m] += x * y * scale
    return Cyclotomic(m, vec)


class CycloSum:
    """Exact accumulator for sums whose terms have assorted conductors.

    Terms are bucketed by conductor; buckets whose conductors share a
    factor are merged (lifted to their lcm), so the buckets stay pairwise
    coprime. Q(zeta_a) and Q(zeta_b) with gcd(a,b)=1 intersect in Q only,
    hence the total is rational iff every bucket is.
    """

    def __init__(self):
        self._buckets: dict = {}
        self._rational = Fraction(0)

    def add(self, v: Cyclotomic) -> None:
        if v.conductor == 1:
            self._rational += v.coords[0]
            return
        n = v.conductor
        to_merge = [m for m in self._buckets if gcd(m, n) > 1]
        for m in to_merge:
            v = add(v, self._buckets.pop(m))
            n = lcm(n, m)
        if v.conductor == 1:
            self._rational += v.coords[0]
        else:
            key = v.conductor
            # a merged value may again collide after minimization
            if any(gcd(key, m) > 1 for m in self._buckets):
                self.add(v)
            else:
                self._buckets[key] = v

    def total(self) -> Cyclotomic:
        out = Cyclotomic.rational(self._rational)
        for v in self._buckets.values():
            out = add(out, v)
        return out

    def total_rational(self):
        """Fraction if the sum is rational, else None."""
        if self._buckets:
            return None
        return self._rational

    def is_zero(self) -> bool:
        return not self._buckets and self._rational == 0


def oracle_inner_product(a, b, sizes, order) -> Fraction:
    av, bv = ClassFunction(a).values, ClassFunction(b).values
    if len(av) != len(bv) or len(av) != len(sizes):
        raise ValueError("class-function length mismatch")
    acc = CycloSum()
    for s, x, y in zip(sizes, av, bv):
        acc.add(mul(x, y.galois(-1), s))
    total = acc.total_rational()
    if total is None:
        raise ValueError("inner product is not rational; mismatched class data?")
    return total / order


def oracle_decompose(pi, table) -> list:
    mults = []
    for i, row in enumerate(table.rows):
        m = oracle_inner_product(pi, row, table.sizes, table.order)
        if m.denominator != 1 or m < 0:
            raise ValueError(
                f"multiplicity of {table.row_name(i)} is {m}, not a nonnegative integer"
            )
        mults.append(int(m))
    for k in range(table.n_classes):
        acc = CycloSum()
        for m, row in zip(mults, table.rows):
            if m:
                acc.add(mul(row.values[k], m))
        if not (acc.total() == pi.values[k]):
            raise ValueError("recomposition mismatch: input is not a character here")
    return mults


def oracle_fs_indicator(row, table) -> int:
    squares = table.power_maps.get(2)
    if squares is None:
        raise CharacterTableError("power map for 2 is required to compute indicators")
    acc = CycloSum()
    for k, s in enumerate(table.sizes):
        acc.add(mul(row.values[squares[k]], s))
    total = acc.total_rational()
    if total is None:
        raise ValueError("indicator sum is not rational: corrupted table")
    nu = total / table.order
    if nu.denominator != 1 or int(nu) not in (-1, 0, 1):
        raise ValueError(f"indicator value {nu} outside {{0,+1,-1}}: corrupted table")
    return int(nu)


def oracle_fs_indicator_brute(row, group, class_of) -> Fraction:
    from permchar.perm import mul_images

    counts: dict = {}
    for g in group.element_images_iter():
        k = class_of(mul_images(g, g))
        counts[k] = counts.get(k, 0) + 1
    acc = CycloSum()
    for k, c in counts.items():
        acc.add(mul(row.values[k], c))
    total = acc.total_rational()
    if total is None:
        raise ValueError("brute-force indicator sum irrational")
    return total / group.order()


def oracle_real_row_flags(table) -> list:
    return [all(v.galois(-1) == v for v in r.values) for r in table.rows]


def oracle_real_class_indices(table) -> list:
    return [
        k for k in range(table.n_classes)
        if all(r.values[k].galois(-1) == r.values[k] for r in table.rows)
    ]


def oracle_validate(table) -> None:
    """The former `CharacterTable.validate`, with both orthogonality passes."""
    k = table.n_classes
    if len(table.rows) != k:
        raise CharacterTableError("row count differs from class count")
    if any(len(r) != k for r in table.rows):
        raise CharacterTableError("row length differs from class count")
    if sum(table.sizes) != table.order:
        raise CharacterTableError("class sizes do not sum to the group order")
    if table.sizes[0] != 1 or table.orders[0] != 1:
        raise CharacterTableError("class 0 must be the identity class")
    if any(table.order % s for s in table.sizes):
        raise CharacterTableError("class size does not divide the group order")
    if any(o < 1 or table.order % o for o in table.orders):
        raise CharacterTableError("element order is not a positive divisor of the group order")
    for p, pm in table.power_maps.items():
        if pm[0] != 0:
            raise CharacterTableError(f"power map {p} moves the identity class")
        for i, j in enumerate(pm):
            oi, oj = table.orders[i], table.orders[j]
            expect = oi // p if oi % p == 0 else oi
            if oj != expect:
                raise CharacterTableError(
                    f"power map {p} maps order {oi} to order {oj} at class {i}"
                )
    for r in table.rows:
        d = r.degree.as_rational()
        if d is None or d.denominator != 1 or d <= 0:
            raise CharacterTableError("degree column entry not a positive integer")
    if sum(d * d for d in table.degrees) != table.order:
        raise CharacterTableError("sum of squared degrees differs from the group order")
    for i in range(len(table.rows)):
        for j in range(i, len(table.rows)):
            got = oracle_inner_product(table.rows[i], table.rows[j], table.sizes, table.order)
            want = 1 if i == j else 0
            if got != want:
                raise CharacterTableError(
                    f"row orthogonality fails for rows {i},{j}: <.,.> = {got}"
                )
    for a in range(k):
        for b in range(a, k):
            acc = CycloSum()
            for r in table.rows:
                acc.add(mul(r.values[a], r.values[b].galois(-1)))
            got = acc.total_rational()
            want = Fraction(table.order, table.sizes[a]) if a == b else Fraction(0)
            if got != want:
                raise CharacterTableError(f"column orthogonality fails for classes {a},{b}")
    if 2 in table.power_maps:
        real = oracle_real_row_flags(table)
        for i, row in enumerate(table.rows):
            nu = oracle_fs_indicator(row, table)
            if nu not in (-1, 0, 1):
                raise CharacterTableError(f"indicator of row {i} is {nu}, outside {{0,+1,-1}}")
            if (nu != 0) != real[i]:
                raise CharacterTableError(f"indicator of row {i} disagrees with real-valuedness")


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return (type(exc), str(exc))


def copy_table(T, rows=None) -> CharacterTable:
    return CharacterTable(T.name, T.order, T.sizes, T.orders, T.power_maps,
                          rows if rows is not None else T.rows)


def assert_table_agrees(T) -> None:
    n = len(T.rows)
    for i in range(n):
        for j in range(i, n):
            a, b = T.rows[i], T.rows[j]
            got = outcome(inner_product, a, b, T.sizes, T.order)
            assert got == outcome(oracle_inner_product, a, b, T.sizes, T.order), (T.name, i, j)
            # <b,a> is the conjugate of <a,b>: equal when rational, else both raise
            assert outcome(inner_product, b, a, T.sizes, T.order) == got, (T.name, j, i)
    fresh = copy_table(T)
    assert fresh.real_row_flags() == oracle_real_row_flags(T), T.name
    assert fresh.real_class_indices() == oracle_real_class_indices(T), T.name
    assert [r.is_real_valued() for r in T.rows] == oracle_real_row_flags(T), T.name
    for row in T.rows:
        assert outcome(fs_indicator, row, T) == outcome(oracle_fs_indicator, row, T), T.name
    for pi in (regular_character(T), trivial_character(T)):
        assert outcome(decompose, pi, T) == outcome(oracle_decompose, pi, T), T.name


def test_cyclosum_coprime_buckets():
    acc = CycloSum()
    acc.add(zeta(7))
    acc.add(zeta(5))
    assert acc.total_rational() is None
    acc2 = CycloSum()
    for k in range(5):
        acc2.add(mul(zeta(5, k), 3))
    assert acc2.total_rational() == 0
    acc3 = CycloSum()
    acc3.add(zeta(8))
    acc3.add(zeta(12))
    acc3.add(mul(zeta(8), -1))
    acc3.add(mul(zeta(12), -1))
    assert acc3.total_rational() == 0
    assert acc3.is_zero()


@pytest.mark.parametrize("name", BUNDLED)
def test_kernel_matches_oracle_on_bundled_table(name):
    assert_table_agrees(bundled_table(name))


@pytest.mark.slow
@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES)
def test_kernel_matches_oracle_on_sweep_table_and_subgroups(family):
    """The family's Dixon table, and the decomposition of pi for every
    sample_subgroups pair on seeds 0 and 1."""
    ctx = verify.context(family)
    T = ctx.table
    assert_table_agrees(T)
    for seed in (0, 1):
        for name, H in verify.sample_subgroups(ctx.group, seed=seed):
            pi = perm_character(ctx.group, H, ctx.classes)
            assert outcome(decompose, pi, T) == outcome(oracle_decompose, pi, T), (seed, name)


@pytest.mark.parametrize("family", ["q8", "c5", "c12", "agl1_7"])
def test_kernel_brute_indicator_matches_oracle(family):
    G = build(family).group
    C = conjugacy_classes(G)
    T = verify.context(family).table
    emap = C.element_class_map()
    for row in T.rows:
        assert (outcome(fs_indicator_brute, row, G, emap.__getitem__)
                == outcome(oracle_fs_indicator_brute, row, G, emap.__getitem__))


def _corruptions(T):
    """Tables with one entry times a root of unity, and with one degree
    changed, over every row and a spread of columns."""
    k = T.n_classes
    for i in range(len(T.rows)):
        for col in sorted({1 % k, k // 2, k - 1}):
            for z in (zeta(3), zeta(4), zeta(5), zeta(2)):
                rows = [list(r.values) for r in T.rows]
                rows[i][col] = mul(rows[i][col], z)
                yield f"row {i} col {col} times {z}", copy_table(T, rows)
        for delta in (1, -1, Fraction(1, 2)):
            rows = [list(r.values) for r in T.rows]
            rows[i][0] = add(rows[i][0], delta)
            yield f"row {i} degree plus {delta}", copy_table(T, rows)


@pytest.mark.parametrize("name", ["s3", "q8", "a5", "sl23", "d10", "psl3_2"])
def test_corrupted_tables_fail_alike(name):
    T = bundled_table(name)
    seen = set()
    for what, bad in _corruptions(T):
        got = outcome(CharacterTable.validate, bad)
        assert got == outcome(oracle_validate, bad), (name, what)
        # the degrees are kept once read; validate checks the column first
        outcome(lambda: bad.degrees)
        assert outcome(CharacterTable.validate, bad) == got, (name, what)
        seen.add(got[0])
        assert_table_agrees(bad)
    assert CharacterTableError in seen and ValueError in seen, seen


def test_irrational_inner_product_message():
    T = bundled_table("a5")
    z5 = zeta(5)
    twisted = ClassFunction([mul(v, z5) if k else v for k, v in enumerate(T.rows[1].values)])
    message = r"^inner product is not rational; mismatched class data\?$"
    with pytest.raises(ValueError, match=message):
        inner_product(twisted, T.rows[2], T.sizes, T.order)
    assert outcome(inner_product, twisted, T.rows[2], T.sizes, T.order) == outcome(
        oracle_inner_product, twisted, T.rows[2], T.sizes, T.order)


def test_non_galois_stable_sums_are_exact():
    """Buckets that do not reduce to rationals on their own are added
    exactly: the lcm-12 bucket holds zeta_3 and the conductor-3 bucket
    -zeta_3, so the total is 0, or the rational part when there is one."""
    z3, z4 = zeta(3), zeta(4)
    a = ClassFunction([mul(z3, z4), mul(z3, -1), Fraction(1, 3)])
    b = ClassFunction([z4, 1, 0])
    assert inner_product(a, b, [1, 1, 1], 1) == 0 == oracle_inner_product(a, b, [1, 1, 1], 1)
    d = ClassFunction([z4, 1, 1])
    third = Fraction(1, 3)
    assert inner_product(a, d, [1, 1, 1], 1) == third == oracle_inner_product(a, d, [1, 1, 1], 1)
    c = ClassFunction([mul(z3, z4), z3, 1])
    assert (outcome(inner_product, c, b, [1, 1, 1], 1)
            == outcome(oracle_inner_product, c, b, [1, 1, 1], 1))
    assert outcome(inner_product, c, b, [1, 1, 1], 1)[0] is ValueError
