import itertools
import random
from math import lcm, prod

import pytest

from permchar import corpus, dixon
from permchar.classes import ConjugacyClassSet, conjugacy_classes, conjugation_orbit
from permchar.dixon import (
    character_table,
    class_matrix,
    dixon_prime,
    is_prime,
    poly_roots_mod,
    primitive_root,
)
from permchar.cyclo import Cyclotomic, prime_factors
from permchar.group import PermGroup
from permchar.perm import inv_images, mul_images, power_images
from permchar.tableio import bundled_table, serialize_table, tables_match
from permchar.verify import SWEEP_FAMILIES

from helpers import conj_images


def test_modular_helpers():
    assert is_prime(9241) and not is_prime(212521)  # 212521 = 461^2
    assert dixon_prime(6, 6) == 7
    p = primitive_root(23)
    assert pow(p, 11, 23) != 1 and pow(p, 2, 23) != 1
    assert poly_roots_mod([0, 5, 0, 1], 7) == [0, 3, 4]
    # (x-1)(x-2)(x-3) mod 101
    assert poly_roots_mod([-6, 11, -6, 1], 101) == [1, 2, 3]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _non_residue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def _oracle_polys(p, rng):
    """Seeded polynomials of degree 0 to 6 over F_p: random ones, products
    of linear factors with repeats, and irreducible quadratics alone or
    times linear factors."""
    polys = []
    for deg in range(7):
        for _ in range(4):
            polys.append([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
    for deg in range(1, 7):
        roots = [rng.randrange(min(p, 4)) for _ in range(deg)]  # repeats
        f = [rng.randrange(1, p)]
        for r in roots:
            f = _poly_mul(f, [-r % p, 1], p)
        polys.append(f)
    if p > 2:
        n = _non_residue(p)
        irreducible = [(-n) % p, 0, 1]  # x^2 - n
        polys.append(irreducible)
        polys.append(_poly_mul(irreducible, [rng.randrange(p), rng.randrange(1, p)], p))
        # (x - c)^2 - n: an irreducible quadratic with a linear term
        c = rng.randrange(1, p)
        shifted = [(c * c - n) % p, (-2 * c) % p, 1]
        polys.append(shifted)
        polys.append(_poly_mul(shifted, _poly_mul([0, 1], [p - 1, 1], p), p))
        polys.append(_poly_mul(shifted, shifted, p))
    return polys


@pytest.mark.parametrize("p", [2, 3, 7, 13, 17, 73, 337, 1321, 3037])
def test_poly_roots_mod_matches_brute_force(p):
    """Every x in F_p is tried. The primes cover p = 3 (mod 4) and 2-adic
    valuations 1 to 4 of p - 1, the cases of the square root."""
    rng = random.Random(p)
    for f in _oracle_polys(p, rng):
        want = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]
        assert poly_roots_mod(f, p) == want, (f, p)
    assert poly_roots_mod([], p) == poly_roots_mod([0, p], p) == []


def test_class_matrix_s3_spec_examples():
    C = conjugacy_classes(corpus.build("s3").group)
    mats = [class_matrix(C, i) for i in range(len(C))]
    k = len(C)
    # identity class matrix is the identity
    assert mats[0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # every column sums to the size of the acting class
    for i in range(k):
        assert all(sum(mats[i][j][c] for j in range(k)) == C.sizes[i] for c in range(k))
    # a[transpositions][transpositions][identity] = 3
    assert mats[1][1][0] == 3
    # structure-constant consistency: sum_k a[i][j][k] |K_k| = |K_i| |K_j|
    for i in range(k):
        for j in range(k):
            total = sum(mats[i][j][t] * C.sizes[t] for t in range(k))
            assert total == C.sizes[i] * C.sizes[j]


def _class_matrix_by_columns(C, i):
    """The whole-matrix formula that the rows replaced, kept as the oracle:
    entries[j][c] = #{x in C_i : x^-1 * z_c in C_j}."""
    k = len(C.reps)
    reps = [r.images for r in C.reps]
    entries = [[0] * k for _ in range(k)]
    for x in conjugation_orbit(C.group, reps[i]):
        xi = inv_images(x)
        for c in range(k):
            entries[C.classify(mul_images(xi, reps[c]))][c] += 1
    return entries


@pytest.mark.parametrize("family", SWEEP_FAMILIES + ["m11", "psl2_23", "c1", "s1"])
def test_class_matrix_rows_match_the_column_formula(family):
    C = conjugacy_classes(corpus.build(family).group)
    k = len(C)
    for i in range(k):
        want = _class_matrix_by_columns(C, i)
        assert class_matrix(C, i) == want, (family, i)
        rows = {0, k - 1, (i * 7) % k}
        got = class_matrix(C, i, rows)
        assert [r for r in range(k) if got[r] is not None] == sorted(rows)
        assert all(got[r] == want[r] for r in rows), (family, i)


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_derived_power_maps_and_real_classes_match_classify(family):
    """The power maps `character_table` derives are `classify` of the powered reps,
    for 2 and every prime dividing the exponent, and the table's real
    classes are the classes that `classify` puts rep^-1 in."""
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    T = character_table(G, C, name=family)
    reps = [r.images for r in C.reps]
    assert sorted(T.power_maps) == sorted({2, *prime_factors(lcm(*C.orders))})
    for p, pm in T.power_maps.items():
        assert pm == tuple(C.classify(power_images(x, p)) for x in reps), (family, p)
    real = [k for k, x in enumerate(reps) if C.classify(inv_images(x)) == k]
    assert T.real_class_indices() == real


def _misfiling(C, call):
    """C with a classify that returns a wrong class on its `call`-th call."""
    classify = C.classify
    calls = [0]

    def wrong(images):
        calls[0] += 1
        j = classify(images)
        return (j + 1) % len(C.reps) if calls[0] == call else j

    C.classify = wrong
    return calls


@pytest.mark.parametrize("family,call", [
    ("s4", 1), ("s4", 9), ("a5", 1), ("a5", 40), ("sl23", 5), ("psl3_2", 60), ("m11", 500),
])
def test_a_misfiled_product_makes_the_table_fail(family, call):
    """Every `call` falls among the class-matrix products, so one entry of
    one requested row is off: the table must not come out. The power maps
    classify the o - 1 nontrivial powers of each rep before the first
    product."""
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    call += sum(o - 1 for o in C.orders)
    calls = _misfiling(C, call)
    with pytest.raises((AssertionError, ArithmeticError, ValueError)):
        character_table(G, C)
    assert calls[0] >= call


def _minor_rank(mat, p):
    """Rank of mat over F_p by brute force: the largest r with a nonzero
    r x r minor, each determinant a Leibniz sum over permutations."""
    def det(rows, cols):
        total = 0
        for perm in itertools.permutations(cols):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            total += sign * prod(mat[r][c] for r, c in zip(rows, perm))
        return total % p

    rank = 0
    n_cols = len(mat[0]) if mat else 0
    for r in range(1, min(len(mat), n_cols) + 1):
        if not any(det(rows, cols) for rows in itertools.combinations(range(len(mat)), r)
                   for cols in itertools.combinations(range(n_cols), r)):
            break
        rank = r
    return rank


def _random_matrix(rng, p):
    """A matrix of 1-4 rows and 1-5 columns, often rank-deficient: a
    product of random factors through a narrower middle, or random entries
    (some outside 0..p-1) with a column sometimes zeroed."""
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    if rng.random() < 0.5:
        inner = rng.randint(0, min(m, n))
        left = [[rng.randrange(p) for _ in range(inner)] for _ in range(m)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(inner)]
        return [[sum(a * right[t][c] for t, a in enumerate(row)) for c in range(n)] for row in left]
    mat = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        j = rng.randrange(n)
        for row in mat:
            row[j] = 0
    return mat


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_rref_matches_brute_force(p):
    """Row t is 1 at pivots[t] and 0 at the other pivots; the row space is
    unchanged (stacking both rows sets adds no rank); the pivots are the
    columns where the rank of the leading columns rises."""
    rng = random.Random(p)
    for _ in range(40):
        mat = _random_matrix(rng, p)
        pivots, rows = dixon._rref(mat, p)
        assert len(pivots) == len(rows)
        for t, row in enumerate(rows):
            assert all(0 <= x < p for x in row)
            assert [row[c] for c in pivots] == [int(s == t) for s in range(len(pivots))]
        rank = _minor_rank(mat, p)
        assert len(rows) == rank == _minor_rank(mat + rows, p), mat
        leading = [_minor_rank([row[:c] for row in mat], p) for c in range(len(mat[0]) + 1)]
        assert pivots == [c for c in range(len(mat[0])) if leading[c + 1] > leading[c]], mat


def test_resplit_rejects_an_image_that_escapes_the_subspace():
    p = 7
    space = ([0, 1], [[1, 0, 0], [0, 1, 0]])
    diagonal = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert dixon._resplit([space], [2], diagonal, p) == [([0], [[1, 0, 0]]), ([1], [[0, 1, 0]])]
    # A * e_0 leaves the span of e_0, e_1 only in the check coordinate
    escaping = [[1, 0, 0], [0, 2, 0], [1, 0, 3]]
    with pytest.raises(ArithmeticError):
        dixon._resplit([space], [2], escaping, p)


def test_resplit_keeps_a_space_on_which_a_is_scalar(monkeypatch):
    p = 7
    space = ([0, 1], [[1, 0, 0], [0, 1, 0]])

    def unused(*args):
        raise AssertionError("a scalar restriction needs no eigenvalues")

    for helper in ("_charpoly_mod", "_kernel_mod", "_rref"):
        monkeypatch.setattr(dixon, helper, unused)
    out = dixon._resplit([space], [2], [[5, 0, 0], [0, 5, 0], [0, 0, 3]], p)
    assert out == [space] and out[0] is space
    monkeypatch.undo()
    # equal diagonal entries, not scalar: [[2, 1], [1, 2]] has the
    # eigenvalues 1 and 3 (mod 7), with eigenvectors (6, 1) and (1, 1);
    # in RREF the first is (1, 6) = 6 * (6, 1)
    A = [[2, 1, 0], [1, 2, 0], [0, 0, 3]]
    assert dixon._resplit([space], [2], A, p) == [([0], [[1, 6, 0]]), ([0], [[1, 1, 0]])]
    assert dixon._rref([[6, 1, 0]], p) == ([0], [[1, 6, 0]])


@pytest.mark.parametrize("family", ["s4", "sl23", "psl2_11", "m11"])
def test_every_unsplit_space_reads_a_check_row(family, monkeypatch):
    """After the first class matrix (all rows), each space left to split
    reads its pivot rows and one row off its pivots."""
    resplit = dixon._resplit
    seen = []

    def checked(spaces, checks, A, p):
        for (pivots, rows), q in zip(spaces, checks):
            if 1 < len(rows) < len(A):
                assert q is not None and q not in pivots
                assert A[q] is not None
                assert all(A[r] is not None for r in pivots)
                seen.append(q)
        return resplit(spaces, checks, A, p)

    monkeypatch.setattr(dixon, "_resplit", checked)
    character_table(corpus.build(family).group, name=family)
    assert seen


# (acting class, sorted requested rows) of each class_matrix call
_CLASS_MATRIX_CALLS = {
    "s4": [(1, [0, 1, 2, 3, 4]), (2, [0, 1, 2, 3])],
    "sl23": [(1, [0, 1, 2, 3, 4, 5, 6]), (2, [0, 1, 2, 3, 4])],
    "psl2_11": [
        (1, [0, 1, 2, 3, 4, 5, 6, 7]), (6, [0, 2, 3, 6]), (7, [0, 1, 3]), (3, [0, 1, 3]),
    ],
    "m11": [
        (1, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]), (2, [0, 6, 8]), (8, [0, 6, 8]), (6, [0, 1, 6]),
    ],
    "psl2_23": [
        (1, list(range(14))), (12, [0, 2, 3, 5, 6, 7, 8, 10, 12]), (13, [0, 2, 3, 5, 6, 7, 8, 10]),
        (10, [0, 2, 3, 5, 6, 7, 8, 10]), (5, [0, 1, 5, 6, 7, 8]),
    ],
}


@pytest.mark.parametrize("family", sorted(_CLASS_MATRIX_CALLS))
def test_class_matrix_calls_are_pinned(family, monkeypatch):
    """The splitting consumes the same classes and reads the same rows of
    each: the rows are set by the pivots of the unsplit spaces and their
    check rows, so this pins those too."""
    calls = []
    matrix = dixon.class_matrix

    def recording(C, i, rows=None):
        calls.append((i, sorted(rows)))
        return matrix(C, i, rows)

    monkeypatch.setattr(dixon, "class_matrix", recording)
    character_table(corpus.build(family).group, name=family)
    assert calls == _CLASS_MATRIX_CALLS[family]


def _relabelled(G, seed):
    """G with its points renamed by a seeded permutation s: each generator
    g becomes s^-1 g s."""
    s = list(range(G.degree))
    random.Random(seed).shuffle(s)
    return PermGroup([conj_images(g.images, tuple(s)) for g in G.generators], G.degree)


@pytest.mark.parametrize("family, relabel, fewer", [
    ("psl2_23", None, True), ("m11", None, True), ("a7", None, True),
    ("agl1_13", None, False), ("c12", None, False), ("m11", 7, True),
])
def test_table_does_not_depend_on_the_consumption_order(family, relabel, fewer, monkeypatch):
    """Consuming classes by what they can split only reorders the class
    matrices: with the plain size order back in place the table serializes
    identically, and that order consumes at least as many classes (more
    where rational or power-conjugate classes come early)."""
    G = corpus.build(family).group
    if relabel is not None:
        G = _relabelled(G, relabel)
    C = conjugacy_classes(G)
    consumed = []
    matrix = dixon.class_matrix

    def recording(C, i, rows=None):
        consumed.append(i)
        return matrix(C, i, rows)

    monkeypatch.setattr(dixon, "class_matrix", recording)
    by_rule = serialize_table(character_table(G, C, name=family))
    n_rule = len(consumed)
    consumed.clear()
    monkeypatch.setattr(dixon, "_next_class", lambda pending, skip: pending[0])
    assert serialize_table(character_table(G, C, name=family)) == by_rule
    assert consumed == sorted(consumed, key=lambda c: (C.sizes[c], c))
    assert n_rule < len(consumed) if fewer else n_rule == len(consumed)


def test_s3_table_matches_hand_computation():
    T = character_table(corpus.build("s3").group, name="s3")
    assert T.degrees == [1, 1, 2]
    want = {
        (1, 1, 1),
        (1, -1, 1),
        (2, 0, -1),
    }
    got = {tuple(int(v.as_rational()) for v in row.values) for row in T.rows}
    assert got == want


def test_c3_abelian_linear_values():
    T = character_table(corpus.build("c3").group, name="c3")
    assert T.degrees == [1, 1, 1]
    values = {row.values[1] for row in T.rows}
    assert values == {Cyclotomic(3, [0] * k + [1]) for k in range(3)}


def test_a5_degrees():
    T = character_table(corpus.build("a5").group, name="a5")
    assert T.degrees == [1, 3, 3, 4, 5]
    assert sum(d * d for d in T.degrees) == 60


def test_central_character_integrality():
    """|K| chi(g) / chi(1) is an algebraic integer (integral power-basis
    coordinates at the minimal conductor)."""
    for family in ["s4", "a5", "q8", "sl23"]:
        G = corpus.build(family).group
        C = conjugacy_classes(G)
        T = character_table(G, C)
        for row in T.rows:
            d = row.degree.as_rational()
            for k in range(T.n_classes):
                v = row.values[k]
                omega = Cyclotomic(v.conductor, [c * T.sizes[k] / d for c in v.coords])
                assert all(c.denominator == 1 for c in omega.coords), (family, k)


@pytest.mark.parametrize("family", ["s3", "s4", "a5", "d10", "q8", "sl23", "psl3_2"])
def test_agreement_with_golden_tables(family):
    G = corpus.build(family).group
    T = character_table(G, name=family)
    golden = bundled_table(family)
    assert tables_match(T, golden)


def test_agreement_fails_for_different_groups():
    T1 = character_table(corpus.build("q8").group)
    T2 = character_table(corpus.build("d8").group)
    # same degrees, different tables (indicator of the 2-dim differs)
    assert not tables_match(T1, T2)


def test_validation_runs_on_output():
    # validate() is embedded in character_table; re-run to be explicit
    T = character_table(corpus.build("f7_3").group)
    T.validate()
    assert T.fs_indicators() == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("family", ["s4", "a5", "psl2_11", "m11", "agl1_13"])
def test_lift_builds_one_value_per_degree_and_power_values(family, monkeypatch):
    """The lift of chi at class t reads chi at the powers of its rep, the
    first of which is chi(1): it builds one Cyclotomic per distinct such
    tuple (the pinned serializations check the values)."""
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    built = []

    def counting(m, coeffs):
        built.append(m)
        return Cyclotomic(m, coeffs)

    counting.rational = Cyclotomic.rational
    monkeypatch.setattr(dixon, "Cyclotomic", counting)
    T = character_table(G, C, name=family)
    powers = [
        [C.classify(power_images(r.images, s)) for s in range(o)]
        for r, o in zip(C.reps, C.orders)
    ]
    keys = {tuple(row.values[c] for c in powers[t]) for row in T.rows for t in range(1, len(C))}
    assert len(built) == len(keys) < (len(C) - 1) * len(C)


def test_sampled_class_data_gives_the_enumerated_m11_table():
    """Sampled class data feeds `character_table` through the same
    `classify` interface as enumerated classes: on M11 the two tables
    serialize identically and match the bundled file."""
    G = corpus.build("m11").group
    T = character_table(G, ConjugacyClassSet(G, seed=0, threshold=0), name="m11")
    assert serialize_table(T) == serialize_table(character_table(G, name="m11"))
    assert tables_match(T, bundled_table("m11"))


@pytest.mark.slow
def test_m11_dixon_agrees_with_bundled():
    G = corpus.build("m11").group
    T = character_table(G, name="m11")
    golden = bundled_table("m11")
    assert tables_match(T, golden)
