import hashlib
import random
from functools import cache
from itertools import combinations
from math import gcd

import pytest

from permchar import classes, corpus, tableio, verify
from permchar.charfun import CharacterTable, CharacterTableError, ClassFunction, decompose
from permchar.classes import conjugacy_classes
from permchar.cyclo import divisors
from permchar.dixon import character_table
from permchar.perm import cycle_type, order_of_images, power_images
from permchar.tableio import (
    MatchingError,
    TableSyntaxError,
    bundled_table,
    find_representatives,
    parse_table,
    serialize_table,
    tables_match,
)

from helpers import alternate_reps

BUNDLED = ["s3", "s4", "a5", "d10", "q8", "sl23", "psl3_2", "m11", "m22", "m23"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_tables_validate(name):
    T = bundled_table(name)  # validation happens on load
    assert T.n_classes == len(T.rows)


@pytest.mark.parametrize("name", BUNDLED)
def test_serialize_parse_round_trip(name):
    from permchar.corpus import data_dir

    path = data_dir() / "tables" / f"{name}.ctbl"
    text = path.read_text()
    T = parse_table(text)
    # serialize-then-parse is the identity on the table
    again = parse_table(serialize_table(T))
    assert again.sizes == T.sizes and again.orders == T.orders
    assert again.power_maps == T.power_maps
    assert all(a == b for a, b in zip(again.rows, T.rows))
    # and serialization is a fixed point after one normalization
    assert serialize_table(again) == serialize_table(T)


# sha256 of serialize_table: the Dixon table of each sweep family, and each
# bundled table after parse_table. A change that alters one of these on
# purpose updates its pin and says so in CHANGES.md.
PINNED_DIXON_TABLES = [
    ("s3", "a946bfcf79a1fdff37d0221f8afd0282c29024081cf3e1f982c0f646145dc92e"),
    ("s4", "88e782e95a29bbb6cc6a356a70e07645f13f924f329d0cf6ea1a6b079405085d"),
    ("s5", "0ab6764887747b90a28570ee3b26096c57510d26a4072ed15a649f00a2a4eaa7"),
    ("s6", "79c2149533c8f9d05393f78a9b71fbfc38ed5f50acbfe153578552afd47c2500"),
    ("a4", "5d9ff2b0914eeae8ab14034e16a443fe9a5020a1812ffcf883318f793ad63777"),
    ("a5", "33c4972ec79d434cade674e760600ef02c3f7b9a5a1522554df24fb62b178410"),
    ("a6", "61443b07e6b62003cb600594e8136fb1aa628314d1a86fa72025d826c9bb9918"),
    ("d8", "d2a2ac6c77a88291e7f1777d0aa16763fff204fa7ca49cca646ba9177f511dd7"),
    ("d10", "19b58aa2c2edb4d91928311f83a9308fc624c4a284ff131965893ae22d8b53fb"),
    ("d12", "de15d2a33cc80e0fe05db1e662b9eb19eb37e2627cd2ad8492388a59de4d1e85"),
    ("d16", "d16882b8e500815c9b4ffe7ae2f4c4356629d82a2e9358742a47578c87fb58de"),
    ("d20", "6fdefc90645dce07341a0b13a344e6fe121d2bcfccba33e62df3aad0fbb71593"),
    ("d24", "7e9769ecb1bc4da2c9a8d9c10ce05825a280da31630076f1a003fcd66d6ba38e"),
    ("q8", "e83273f1b8f7598a625353f9303afd20baea3c673b83ed8e4a6204b52d681fcd"),
    ("q16", "0bb8fd2deb87ec42a6e0a5d122c5a252be5784e0905af32c57ede4959186c396"),
    ("q32", "bf7e868c70d63df86e152bc360f5830c7b2dc5c1851a651b3532fd2cb697a4ca"),
    ("c2", "bd782023a3e8629db68f7def4ce9c7a45b97eef28a186a08999d721212d0ce76"),
    ("c3", "accd088c6fc0d5fd18f500d560ae35bb6e001d70270b5a2209588cc1bb50ee30"),
    ("c6", "f06233bb710c68f512d1bc3d4787a53a2fe4e1a8a6424f30d9406432d7d14063"),
    ("c12", "5369e1fc97b64cb5e268b843c9f11f86541a037e70e6bd5fc4e4a5c4a0a595c7"),
    ("c15", "e2b5b3fe9baebea23ea5f7d7ad245b4d9afc6ac45d737c2b001105ba70bd486c"),
    ("c21", "0b78d66ab89641bc67f30026085a5e8d0af95349c037505a507c111519f0b4da"),
    ("c30", "397b91ac0df0014a7b2cb70cb927951765179a74c10609818671c5405313150e"),
    ("sl23", "0d8bf2d9481213a73ce838df4e11256ff187bfb95a93ad3e38ec98850124a633"),
    ("c3q16", "606bbea6e84c0f6f6b87e83f9d84de1abcbbe7ae95899978cd585a533cc3ddf4"),
    ("f7_3", "a92471b832a90f5c5739088c0c922059f7141d727bfdf374d0b6fb3125d43005"),
    ("f13_3", "15280069fc665a6f3aa5f62d3ea3dbae8bab35b4da8d491da26188628445c7e3"),
    ("f11_5", "1a976bd87ee3f6792040b3ae457683100c49a187ab11b31daa92c88fc6b8e1a0"),
    ("agl1_5", "41eee853595da3f9d301117cd6be530e3c8d9b56c51d35fcae6b5cfed0c7f71f"),
    ("agl1_7", "9c36948f29bfa8aa021248b9cd0eeb115779bee70c3bc978ede20bed2d5c2fa5"),
    ("agl1_8", "904c32af51bae944edc9e81170cfa2ef7f3955fb8bc026515dcf7057890935f8"),
    ("agl1_9", "c5028c06bac1ad0ab4124c47149df11e82c8454ff486eac35fade2c0db212f7f"),
    ("agl1_11", "ad9783e6b2006aa8e493d23d75624df4f72881cfa0e1124f5ea1988e6e4c33f0"),
    ("agl1_13", "1247e28f49365b55d293a4c48c89276990338cd7c854b69549ae29f236cc27ec"),
    ("agl1_25", "d3acbc1b61ab5fd62c2f4f81ee30a7abc43a822afd6c48d2bddacd10fe3901db"),
    ("agl1_27", "e18ac277eb2352c3d6932ade8908e9d5f1a0dd2ba797ddb7fdc864e43c49a31b"),
    ("agl1_32", "e9fcad2c6dca877706b7e270e685e894f758355e8414a7d560f47691a86bc195"),
    ("psl2_7", "3cf5873b335fbb189692ec58a36d7db9c1816234ef138552503e2fe6477b8a15"),
    ("psl2_11", "f67bdc6a25ca2463eb2892dd7688460319fc398c508e53b43a5705de5228ff86"),
    ("psl2_13", "1a95085ad85bc8e1095cd02729f771ed0221eed073c571c18d177a59f4e47c4a"),
    ("psl3_2", "cc2748e3f462ecd42e6a4b597dae883d466bde36741513eb7fd60de714ffdd3b"),
]
# Dixon tables with large primes beyond the sweep families: psl2_23 splits
# with p = 3037 on 14 classes, a7 with p = 421
PINNED_LARGER_DIXON_TABLES = [
    ("psl2_23", "28fdce0fd7796a75f718a5d8a2d3046308baac4b701d9bd076cafdf51356bd50"),
    ("a7", "f5aaa9f591f32f869b69fe7c9d5dea60d7efee7778f0e26de880691d61880ec6"),
]
PINNED_BUNDLED_TABLES = [
    ("s3", "a946bfcf79a1fdff37d0221f8afd0282c29024081cf3e1f982c0f646145dc92e"),
    ("s4", "1b4454d63ab78e99cf689d12bf29403c1a10014b630a337944e334caad403584"),
    ("a5", "33c4972ec79d434cade674e760600ef02c3f7b9a5a1522554df24fb62b178410"),
    ("d10", "19b58aa2c2edb4d91928311f83a9308fc624c4a284ff131965893ae22d8b53fb"),
    ("q8", "20f8b5cb59791c3997cf26e8d75bed8fe023f937e58c86ac3abaceeb487c8f71"),
    ("sl23", "96300103098a1e233e22acf8a562b869ac4e09f29e3f12f516c9f65211d301ad"),
    ("psl3_2", "bd19ae25caec703a843437c97dc7824544ce98a58aecf4963abd6bab269840f7"),
    ("m11", "4546b2fb165db5b676ca229dce9ff4d1ffb9d7c547f5c9212b07d26cd78378d6"),
    ("m22", "b72e153b87dfcab082366c938ce3bc2a888ce67cc60fb5043bb38114b6e240e9"),
    ("m23", "6da6781b7fa1cc7c73805dd44f37f74f9068f5b03282ab716ab6b136364a31d9"),
]


def _digest(T) -> str:
    return hashlib.sha256(serialize_table(T).encode()).hexdigest()


def test_table_pins_cover_the_sweep_families_and_bundled_tables():
    assert [name for name, _ in PINNED_DIXON_TABLES] == verify.SWEEP_FAMILIES
    assert [name for name, _ in PINNED_BUNDLED_TABLES] == BUNDLED


@pytest.mark.parametrize("family, digest", PINNED_DIXON_TABLES + PINNED_LARGER_DIXON_TABLES)
def test_dixon_table_serialization_is_pinned(family, digest):
    """The digest pins the row order, which `dixon` sorts on integer
    coordinates: every value's coordinates are integral."""
    T = character_table(corpus.build(family).group, name=family)
    assert all(c.denominator == 1 for row in T.rows for v in row.values for c in v.coords)
    assert _digest(T) == digest


@pytest.mark.parametrize("name, digest", PINNED_BUNDLED_TABLES)
def test_bundled_table_serialization_is_pinned(name, digest):
    from permchar.corpus import data_dir

    assert _digest(parse_table((data_dir() / "tables" / f"{name}.ctbl").read_text())) == digest


@pytest.mark.parametrize("name", BUNDLED + verify.SWEEP_FAMILIES)
def test_coprime_power_maps_follow_the_galois_action(name):
    """For a prime p not dividing o(c), the class of x^p (x in class c) is
    the column sigma_p of column c: chi(x^p) = sigma_p(chi(x))."""
    if name in BUNDLED:
        T = bundled_table(name)
    else:
        T = character_table(corpus.build(name).group, name=name)
    for p, pm in T.power_maps.items():
        for c, o in enumerate(T.orders):
            if o % p:
                assert all(
                    row.values[pm[c]] == row.values[c].galois(p) for row in T.rows
                ), (name, p, c)


def test_tables_match_checks_every_shared_power_map():
    """A 3-power map that swaps M11's 8a and 8b (columns 6 and 7) sends
    column 6 to a later column, which the search never checked while it
    assigned column 6; no column bijection both commutes with that map and
    makes the rows agree."""
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "m11.ctbl").read_text()
    assert "power 3 0 1 0 3 4 1 6 7 8 9\n" in text
    swapped = parse_table(text.replace("power 3 0 1 0 3 4 1 6 7 8 9\n",
                                       "power 3 0 1 0 3 4 1 7 6 8 9\n"))
    T = character_table(corpus.build("m11").group, name="m11")
    assert tables_match(T, bundled_table("m11"))
    assert not tables_match(T, swapped)
    assert not tables_match(swapped, T)


# the Dixon tables that the `tables_match` tests permute, and compare with
# the Dixon tables that the sampled class data give
MATCH_FAMILIES = verify.SWEEP_FAMILIES + ["psl2_23", "a7"]


@cache
def _dixon_table(family: str) -> CharacterTable:
    return character_table(corpus.build(family).group, name=family)


def _with(T, sizes=None, orders=None, power_maps=None, rows=None) -> CharacterTable:
    """T with some of its class data or rows replaced, not validated."""
    return CharacterTable(
        T.name, T.order, T.sizes if sizes is None else sizes,
        T.orders if orders is None else orders,
        T.power_maps if power_maps is None else power_maps,
        [row.values for row in T.rows] if rows is None else rows)


def _permuted(T, seed: int) -> CharacterTable:
    """T under seeded row and column permutations, the identity class kept
    first and the power maps relabelled."""
    rng = random.Random(seed)
    k = T.n_classes
    cols = [0] + rng.sample(range(1, k), k - 1)  # new column j is T's column cols[j]
    new = {c: j for j, c in enumerate(cols)}
    return _with(
        T, sizes=[T.sizes[c] for c in cols], orders=[T.orders[c] for c in cols],
        power_maps={p: [new[pm[c]] for c in cols] for p, pm in T.power_maps.items()},
        rows=[[row.values[c] for c in cols] for row in rng.sample(T.rows, k)])


def _changed_entry(T, seed: int) -> CharacterTable:
    """T with one seeded entry set to |G|, which no character value of a
    nontrivial group equals: the multiset of entries changes."""
    rng = random.Random(seed)
    rows = [list(row.values) for row in T.rows]
    rows[rng.randrange(T.n_classes)][rng.randrange(T.n_classes)] = T.order
    return _with(T, rows=rows)


def _swapped_power_image(T):
    """T with the images of two columns a, b swapped in one power map, or
    None. a and b differ in (size, order), and so do their images, so the
    multiset of (class, image class) kinds changes and no table matches."""
    kind = list(zip(T.sizes, T.orders))
    for p, pm in sorted(T.power_maps.items()):
        for a, b in combinations(range(T.n_classes), 2):
            if kind[a] != kind[b] and kind[pm[a]] != kind[pm[b]]:
                swapped = list(pm)
                swapped[a], swapped[b] = pm[b], pm[a]
                return _with(T, power_maps={**T.power_maps, p: swapped})
    return None


class _OutOfBudget(Exception):
    pass


def _backtracking_match(A, B, budget: int) -> bool:
    """The column-bijection backtracker that `tables_match` replaced, as an
    oracle: it compares rows only at a leaf, and raises _OutOfBudget after
    `budget` nodes."""
    k = A.n_classes
    if A.order != B.order or k != B.n_classes:
        return False
    if sorted(A.degrees) != sorted(B.degrees):
        return False
    candidates = [
        [c for c in range(k) if B.sizes[c] == A.sizes[a] and B.orders[c] == A.orders[a]]
        for a in range(k)
    ]
    shared_primes = sorted(set(A.power_maps) & set(B.power_maps))
    sigma: list = [None] * k
    used = [False] * k
    nodes = 0

    def power_consistent(a: int, c: int) -> bool:
        for p in shared_primes:
            ta, tb = A.power_maps[p][a], B.power_maps[p][c]
            if sigma[ta] is not None and sigma[ta] != tb:
                return False
        return True

    def commutes() -> bool:
        return all(sigma[A.power_maps[p][a]] == B.power_maps[p][sigma[a]]
                   for p in shared_primes for a in range(k))

    def rows_agree() -> bool:
        inv = [0] * k
        for a, c in enumerate(sigma):
            inv[c] = a

        def keyed(rows):
            return sorted((tuple(vals) for vals in rows),
                          key=lambda t: [v.sort_key() for v in t])

        return (keyed(tuple(r.values[inv[c]] for c in range(k)) for r in A.rows)
                == keyed(tuple(r.values) for r in B.rows))

    def backtrack(a: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        if a == k:
            return commutes() and rows_agree()
        for c in candidates[a]:
            if not used[c] and power_consistent(a, c):
                sigma[a] = c
                used[c] = True
                if backtrack(a + 1):
                    return True
                sigma[a] = None
                used[c] = False
        return False

    return backtrack(0)


def _match_cases(T) -> list:
    """(A, B) pairs built from T: permuted, with a changed entry, with a
    swapped power-map image, and T against those."""
    P = _permuted(T, seed=1)
    cases = [(T, T), (T, P), (P, T), (T, _changed_entry(P, seed=2)),
             (_changed_entry(T, seed=3), T)]
    swapped = _swapped_power_image(P)
    if swapped is not None:
        cases += [(T, swapped), (swapped, T)]
    return cases


@pytest.mark.parametrize("name", BUNDLED + MATCH_FAMILIES)
def test_tables_match_agrees_with_the_backtracker_it_replaced(name):
    T = bundled_table(name) if name in BUNDLED else _dixon_table(name)
    finished = 0
    for A, B in _match_cases(T):
        try:
            expected = _backtracking_match(A, B, budget=20_000)
        except _OutOfBudget:
            continue
        finished += 1
        assert tables_match(A, B) == expected
    assert finished


@pytest.mark.parametrize("name", BUNDLED + MATCH_FAMILIES + ["agl1_64"])
def test_permuted_tables_match_and_perturbed_ones_do_not(name):
    T = bundled_table(name) if name in BUNDLED else _dixon_table(name)
    for seed in (1, 2):
        P = _permuted(T, seed)
        assert tables_match(T, P) and tables_match(P, T)
        assert not tables_match(T, _changed_entry(P, seed))
        assert not tables_match(_changed_entry(T, seed), P)
    swapped = _swapped_power_image(P)
    # only an elementary abelian group's one power map sends every column to 1
    assert swapped is not None or name in ("c2", "c3")
    if swapped is not None:
        assert not tables_match(T, swapped) and not tables_match(swapped, T)


@pytest.mark.parametrize("family", MATCH_FAMILIES)
def test_enumerated_and_sampled_dixon_tables_match(family):
    """The two class data give tables in different class orders (agl1_32's
    order-31 classes are tied by the 2-power map into six 5-cycles)."""
    T = _dixon_table(family)
    G = corpus.build(family).group
    sampled = classes.ConjugacyClassSet(G, seed=0, threshold=0)
    assert tables_match(T, character_table(G, sampled, name=family))


def test_tables_match_refuses_equal_columns():
    """Only a table built without `validate` can have two equal columns;
    its rows would force no column bijection."""
    T = _dixon_table("c2")
    twin = _with(T, orders=[1, 1], power_maps={}, rows=[[1, 1], [1, 1]])
    for A, B in ((T, twin), (twin, T)):
        with pytest.raises(ValueError, match="two equal columns"):
            tables_match(A, B)


def test_perturbed_value_fails_validation():
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "s3.ctbl").read_text()
    bad = text.replace("chi 2 0 -1", "chi 2 0 1")
    with pytest.raises(CharacterTableError) as err:
        parse_table(bad)
    assert "orthogonality" in str(err.value)


def test_syntax_errors_carry_position():
    with pytest.raises(TableSyntaxError) as err:
        parse_table("name x\norder 6\nclasses 2\nsizes 1 5\norders 1 2\nfrobnicate 1\n")
    assert "line 6" in str(err.value)
    with pytest.raises(TableSyntaxError):
        parse_table("name x\n")


def test_matching_agrees_with_exact_classes_on_s4():
    G = corpus.build("s4").group
    C = conjugacy_classes(G)
    T = character_table(G, C, name="s4")
    matching = find_representatives(G, T, seed=0)
    assert not matching.ambiguity_groups
    for col, rep in enumerate(matching.reps):
        assert C.classify(rep.images) == col


def test_matching_trivial_group():
    from permchar.group import trivial_group

    G = trivial_group(3)
    T = character_table(G, name="t")
    m = find_representatives(G, T, seed=0)
    assert len(m.reps) == 1 and m.reps[0].is_identity()


def test_matching_wrong_table_errors():
    G = corpus.build("s4").group
    T = bundled_table("q8")
    with pytest.raises(MatchingError):
        find_representatives(G, T, seed=0, budget=500)


def test_matching_m11_bundled():
    G = corpus.build("m11").group
    T = bundled_table("m11")
    m = find_representatives(G, T, seed=0)
    # ambiguity exactly at the algebraically conjugate pairs
    assert m.ambiguity_groups == [(6, 7), (8, 9)]
    for col, rep in enumerate(m.reps):
        assert rep.order() == T.orders[col]
    # harmlessness: any rational class function decomposes identically
    # under the alternate resolution
    alt = alternate_reps(m)
    pi1 = ClassFunction([r.fixed_points() for r in m.reps])
    pi2 = ClassFunction([r.fixed_points() for r in alt])
    assert decompose(pi1, T) == decompose(pi2, T)


def test_m11_ambiguity_groups_have_reps_in_distinct_classes():
    G = corpus.build("m11").group
    C = conjugacy_classes(G)
    for seed in range(4):
        m = find_representatives(G, bundled_table("m11"), seed=seed)
        for grp in m.ambiguity_groups:
            assert len({C.classify(m.reps[c].images) for c in grp}) == len(grp), (seed, grp)


@pytest.mark.parametrize("family", ["c12", "d16", "sl23", "agl1_13"])
def test_matching_reaches_columns_no_power_map_reaches(family):
    """Columns that only Galois conjugation reaches get reps in pairwise
    distinct classes, each in its own column's ambiguity group."""
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    T = character_table(G, C, name=family)
    m = find_representatives(G, T, seed=0)
    found = [C.classify(r.images) for r in m.reps]
    assert sorted(found) == list(range(len(C)))
    group_of = {c: grp for grp in m.ambiguity_groups for c in grp}
    assert all(k == c or k in group_of.get(c, ()) for c, k in enumerate(found))


@pytest.mark.parametrize("family", ["f13_3", "psl2_13"])
def test_alternate_reps_rotate_ambiguity_groups_of_any_length(family):
    G = corpus.build(family).group
    T = character_table(G, name=family)
    m = find_representatives(G, T, seed=0)
    assert any(len(grp) > 2 for grp in m.ambiguity_groups)
    alt = alternate_reps(m)
    for grp in m.ambiguity_groups:
        assert sorted(alt[c].images for c in grp) == sorted(m.reps[c].images for c in grp)
        assert all(alt[c].images != m.reps[c].images for c in grp)
    pi1 = ClassFunction([r.fixed_points() for r in m.reps])
    pi2 = ClassFunction([r.fixed_points() for r in alt])
    assert decompose(pi1, T) == decompose(pi2, T)


def _fixed_points_of_powers(images):
    """The fingerprint that the cycle type replaced, kept as the oracle:
    fixed points of g^d for every divisor d of the order of g."""
    return tuple(
        sum(1 for i, j in enumerate(power_images(images, d)) if i == j)
        for d in divisors(order_of_images(images))
    )


def test_cycle_type_and_fixed_points_of_powers_split_m11_alike():
    # fix(g^d) is the sum of l*c_l over cycle lengths l dividing d, so by
    # Moebius inversion each determines the other
    old_to_new, new_to_old = {}, {}
    for g in corpus.build("m11").group.element_images_iter():
        old, new = _fixed_points_of_powers(g), cycle_type(g)
        assert old_to_new.setdefault(old, new) == new
        assert new_to_old.setdefault(new, old) == old


@pytest.mark.parametrize("name", ["m11", "m22", "m23"])
def test_matching_is_unchanged_under_the_fixed_point_fingerprint(name, monkeypatch):
    G = corpus.build(name).group
    T = bundled_table(name)
    new = [find_representatives(G, T, seed=seed) for seed in range(4)]
    monkeypatch.setattr(
        classes, "fingerprint", lambda g: (order_of_images(g), _fixed_points_of_powers(g))
    )
    for seed, m in enumerate(new):
        old = find_representatives(G, T, seed=seed)
        assert [r.images for r in m.reps] == [r.images for r in old.reps]
        assert m.ambiguity_groups == old.ambiguity_groups
        assert m.samples_used == old.samples_used


# find_representatives(G, bundled table, seed) for the paper's groups:
# (name, seed, sha256 of repr([rep images]), ambiguity_groups, samples_used)
PINNED_MATCHINGS = [
    ("m11", 0, "9987b9315fafa2c656c467dcfea67f92818ce1bc000c993e883860262e91d740", [(6, 7), (8, 9)], 200),
    ("m11", 1, "e9b9999a8a92d2449785a772278b5939f253165d581259cfdd4269a4e72df5e5", [(6, 7), (8, 9)], 200),
    ("m11", 2, "285bc616668ab863927b8b48470f34fd7daaf7023e709e6efe249fcade249893", [(6, 7), (8, 9)], 200),
    ("m11", 3, "ed7dc26b772f91224ace28ef6fc7266738aabe7909e427664763ccd6c69271a7", [(6, 7), (8, 9)], 200),
    ("m22", 0, "5938dd4e3217e52da2c9b0f8a070e2a3abce56ca4d35fd40edd21a7afdf33a87", [(7, 8), (10, 11)], 200),
    ("m22", 1, "aae8f83acb3b772697f4651b513da0821fda338eb0ee58d7445e57f64290891c", [(7, 8), (10, 11)], 200),
    ("m22", 2, "29d33bfe19688ce6e32876bc31995999c90d75b2119c7ad2e8735d28bd2df510", [(7, 8), (10, 11)], 200),
    ("m22", 3, "cdadf7e109ab536ecfc82e9d3c20ea7126c64546243cd8e13c3947a1db8a188c", [(7, 8), (10, 11)], 200),
    ("m23", 0, "2f503fd145c0a7e2595a5d3ffe1cc8b51845d9bc19fda7295b4f945edfe6a9a1",
     [(6, 7), (9, 10), (11, 12), (13, 14), (15, 16)], 200),
    ("m23", 1, "064a260648eff77f25f268b4da52c48a0161dc6f0ec3b65a60a1ba8670147fd1",
     [(6, 7), (9, 10), (11, 12), (13, 14), (15, 16)], 200),
    ("m23", 2, "d69e6ecdce51b2dd9aeb3ed59627158a71aa3a3d62209f199c0d991126672234",
     [(6, 7), (9, 10), (11, 12), (13, 14), (15, 16)], 200),
    ("m23", 3, "443f8a14e70afb94c5f234c204e85a221df0191416d6bace4e818d1288167516",
     [(6, 7), (9, 10), (11, 12), (13, 14), (15, 16)], 200),
]


@pytest.mark.parametrize("family, shared_key, own_keys, rotated", [
    ("d8", [], [(2, 3)], [1, 0, 1, 0, 1]),
    ("a6", [(5, 6)], [(2, 3)], [1, 1, 0, 0, 0, 0, 0]),
    ("s6", [], [(1, 2), (4, 5), (6, 7), (9, 10)], None),
])
def test_ambiguity_groups_come_in_two_kinds(family, shared_key, own_keys, rotated):
    """Columns that share a bucket key are Galois conjugate, so swapping
    their reps leaves a rational class function as it was. The other
    groups are where two power-consistent assignments differ. Their
    columns have keys of their own, each rep classifies to its own column,
    and rotating the reps changes the natural character's decomposition
    (on s6 it is no character at all)."""
    G = corpus.build(family).group
    T = character_table(G, name=family)
    m = find_representatives(G, T, seed=0)
    assert m.ambiguity_groups == sorted(shared_key + own_keys)
    pi = decompose(ClassFunction([r.fixed_points() for r in m.reps]), T)
    for a, b in shared_key:
        assert m.classify(m.reps[a].images) == m.classify(m.reps[b].images) == a
        o = T.orders[a]
        assert any(all(row.values[b] == row.values[a].galois(e) for row in T.rows)
                   for e in range(2, o) if gcd(e, o) == 1)
        swapped = list(m.reps)
        swapped[a], swapped[b] = m.reps[b], m.reps[a]
        assert decompose(ClassFunction([r.fixed_points() for r in swapped]), T) == pi
    for grp in own_keys:
        assert [m.classify(m.reps[c].images) for c in grp] == list(grp)
    alt = ClassFunction([r.fixed_points() for r in alternate_reps(m)])
    if rotated is None:
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            decompose(alt, T)
    else:
        assert pi != rotated == decompose(alt, T)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matching_tries_the_next_solution_the_natural_character_accepts(seed, monkeypatch):
    """S6's columns 6 and 7, cycle types (1,1,4) and (2,4), agree in order,
    class size and power maps, so with the two swapped the table is still
    valid. The first full solution of the swapped table gives the natural
    character a fractional multiplicity; the matcher goes on to the next
    one instead of sampling again."""
    G = corpus.build("s6").group
    T = _dixon_table("s6")
    assert [T.sizes[6], T.orders[6]] == [T.sizes[7], T.orders[7]] == [90, 4]
    cols = list(range(T.n_classes))
    cols[6], cols[7] = 7, 6  # its own inverse, so it relabels the power maps too
    swapped = _with(
        T, sizes=[T.sizes[c] for c in cols], orders=[T.orders[c] for c in cols],
        power_maps={p: [cols[pm[c]] for c in cols] for p, pm in T.power_maps.items()},
        rows=[[row.values[c] for c in cols] for row in T.rows])
    swapped.validate()
    outcomes = []
    validate = tableio._validate_matching

    def recording(G, matching):
        try:
            validate(G, matching)
        except MatchingError:
            outcomes.append(False)
            raise
        outcomes.append(True)

    monkeypatch.setattr(tableio, "_validate_matching", recording)
    m = find_representatives(G, swapped, seed=seed)
    assert outcomes[0] is False and outcomes[-1] is True
    assert [m.reps[6].cycle_type(), m.reps[7].cycle_type()] == [(2, 4), (1, 1, 4)]
    assert m.samples_used == find_representatives(G, T, seed=seed).samples_used


@pytest.mark.parametrize("name, seed, digest, ambiguity, used", PINNED_MATCHINGS)
def test_matching_of_the_paper_groups_is_pinned(name, seed, digest, ambiguity, used):
    m = find_representatives(corpus.build(name).group, bundled_table(name), seed=seed)
    assert hashlib.sha256(repr([r.images for r in m.reps]).encode()).hexdigest() == digest
    assert m.ambiguity_groups == ambiguity
    assert m.samples_used == used


def test_matching_m22_sizes_classes_through_a_point_set_stabilizer(monkeypatch):
    """M22's order-4 classes (13,860 and 27,720 elements, two fixed points)
    are sized as classes of the stabilizer of a 2-set, of order 1,920:
    the matcher never walks a conjugacy class of G itself."""
    G = corpus.build("m22").group
    walked = []
    walk = classes.conjugation_orbit

    def counting(group, images, key=tuple):
        orbit = walk(group, images, key)
        walked.append((group, len(orbit)))
        return orbit

    monkeypatch.setattr(classes, "conjugation_orbit", counting)
    m = find_representatives(G, bundled_table("m22"), seed=0)
    assert walked and all(group is not G for group, _ in walked)
    assert {group.order() for group, _ in walked} == {1920}
    assert sorted(n for _, n in walked) == [60, 120]
    assert {13860, 27720} <= {size for _, size in m.sampled.buckets}


@pytest.mark.slow
def test_matching_m22_against_full_enumeration(enumerated_classes):
    """Cross-check the sampling matcher against exact classes."""
    C = enumerated_classes("m22")
    G = C.group
    T = bundled_table("m22")
    m = find_representatives(G, T, seed=0)
    # M22's fingerprint-ambiguous pairs are the algebraically conjugate
    # {7A,7B} and {11A,11B}
    amb_orders = sorted(tuple(T.orders[c] for c in grp) for grp in m.ambiguity_groups)
    assert amb_orders == [(7, 7), (11, 11)]
    # every rep's exact class has matching size/order data
    for col, rep in enumerate(m.reps):
        k = C.classify(rep.images)
        assert C.sizes[k] == T.sizes[col]
        assert C.orders[k] == T.orders[col]
    # the assignment is exact away from ambiguity groups
    ambiguous = {c for grp in m.ambiguity_groups for c in grp}
    # map exact classes to columns by (size, order) where unique
    for col, rep in enumerate(m.reps):
        if col in ambiguous:
            continue
        k = C.classify(rep.images)
        same = [
            c
            for c in range(T.n_classes)
            if (T.sizes[c], T.orders[c]) == (C.sizes[k], C.orders[k])
        ]
        if len(same) == 1:
            assert same[0] == col


@pytest.mark.parametrize("family", [
    "m11", "psl2_23", "a7", pytest.param("m22", marks=pytest.mark.slow)])
def test_matched_classify_agrees_with_enumerated_classes(family, enumerated_classes):
    """`ClassMatching.classify` against `ConjugacyClassSet.classify` on
    every element. The matched column is a function of the class, with the
    class's size and order, and each ambiguity group (or single column
    outside them) receives as many classes as it has columns. A Dixon
    table has the enumeration's column order, so there the column of
    class k lies in the ambiguity group of k. The classify memo then holds
    only fingerprints whose bucket key carries no class size."""
    C = enumerated_classes(family)
    G = C.group
    dixon = family not in BUNDLED
    T = character_table(G, C, name=family) if dixon else bundled_table(family)
    m = find_representatives(G, T, seed=0)
    assert (m.group, m.sizes, m.orders) == (G, T.sizes, T.orders)
    group_of = {c: grp for grp in m.ambiguity_groups for c in grp}
    column_of: dict = {}
    for g in G.element_images_iter():
        k, c = C.classify(g), m.classify(g)
        assert column_of.setdefault(k, c) == c, (k, g)
    assert len(column_of) == len(C)
    received: dict = {}
    for k, c in column_of.items():
        assert (T.sizes[c], T.orders[c]) == (C.sizes[k], C.orders[k])
        received.setdefault(group_of.get(c, (c,)), []).append(k)
        if dixon:
            assert k in group_of.get(c, (c,))
    assert all(len(grp) == len(ks) for grp, ks in received.items())
    sized = {fp for fp, size in m.sampled.buckets if size is not None}
    # a7's order-3 and M22's order-4 columns come in two sizes
    assert bool(sized) == (family in ("a7", "m22"))
    assert m._memo and not sized & set(m._memo)
    # a transposition lies in none of these groups, so no column has its key
    with pytest.raises(MatchingError, match="no column"):
        m.classify((1, 0) + tuple(range(2, G.degree)))


@pytest.mark.slow
def test_m22_dixon_agrees_with_bundled(enumerated_classes):
    C = enumerated_classes("m22")
    T = character_table(C.group, C, name="m22")
    assert tables_match(T, bundled_table("m22"))


@pytest.mark.parametrize("old, new, error", [
    ("power 2 ", "power 0 ", TableSyntaxError),
    ("power 2 ", "power 1 ", TableSyntaxError),
    ("power 2 ", "power 4 ", TableSyntaxError),
    ("power 2 ", "power -2 ", TableSyntaxError),
    ("orders 1 2 3", "orders 1 0 3", CharacterTableError),
    ("orders 1 2 3", "orders 1 -2 3", CharacterTableError),
    ("orders 1 2 3", "orders 1 2 5", CharacterTableError),
    # int() also reads `+`, `_` separators and non-ASCII digits such as
    # U+0663 (ARABIC-INDIC DIGIT THREE); header integers are ASCII digits
    ("order 6", "order 0_6", TableSyntaxError),
    ("order 6", "order +6", TableSyntaxError),
    ("order 6", "order ٦", TableSyntaxError),
    ("classes 3", "classes ٣", TableSyntaxError),
    ("sizes 1 3 2", "sizes 1 3 0_2", TableSyntaxError),
    ("orders 1 2 3", "orders 1 2 ٣", TableSyntaxError),
    ("power 2 0 0 2", "power ٢ 0 0 2", TableSyntaxError),
    ("power 2 0 0 2", "power 2 0 0 ٢", TableSyntaxError),
])
def test_malformed_power_keys_and_orders_are_rejected(old, new, error):
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "s3.ctbl").read_text()
    assert old in text
    with pytest.raises(error):
        parse_table(text.replace(old, new))


@pytest.mark.parametrize("value", ["E(7)", "E(0)", "E(-3)", "E(5)^2", "1+E(9)", "1/0"])
def test_bad_table_values_are_syntax_errors(value):
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "s3.ctbl").read_text()
    with pytest.raises(TableSyntaxError, match="line 11"):
        parse_table(text.replace("chi 2 0 -1", f"chi 2 0 {value}"))


def test_repeated_entries_are_parsed_once(monkeypatch):
    """Every distinct entry of a table is parsed once, and each cell holds
    the value parsing that cell alone gives."""
    from permchar import tableio
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "m11.ctbl").read_text()
    parse = tableio.parse_cyclotomic
    parsed = []
    monkeypatch.setattr(tableio, "parse_cyclotomic", lambda tok: parsed.append(tok) or parse(tok))
    T = parse_table(text)
    chi = [line.split()[1:] for line in text.splitlines() if line.startswith("chi ")]
    cells = [tok for row in chi for tok in row]
    assert sorted(parsed) == sorted(set(cells)) and len(parsed) < len(cells)
    assert [list(row.values) for row in T.rows] == [[parse(tok) for tok in row] for row in chi]


def test_a_repeated_bad_entry_fails_at_its_first_line():
    """A bad E(n) is checked when first met: repeated on lines 10 and 11,
    it fails at line 10, and a row whose later entry is bad fails before
    any entry of that row is parsed."""
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "s3.ctbl").read_text()
    bad = text.replace("chi 1 -1 1", "chi 1 E(7) 1").replace("chi 2 0 -1", "chi 2 E(7) E(7)")
    with pytest.raises(TableSyntaxError, match=r"^line 10: E\(7\)"):
        parse_table(bad)
    # line 11's 1/0 would fail to parse, but its E(7) is checked first
    bad = text.replace("chi 2 0 -1", "chi 2 1/0 E(7)")
    with pytest.raises(TableSyntaxError, match=r"^line 11: E\(7\)"):
        parse_table(bad)


def _parse_in_capped_child(text):
    """parse_table(text) in a child whose address space is capped at 1 GiB,
    so a table that would exhaust memory cannot take the machine. Prints
    `rejected: <exception type>: <message>`."""
    import subprocess
    import sys
    from pathlib import Path

    import permchar

    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from permchar.tableio import parse_table\n"
        "try:\n"
        "    parse_table(sys.stdin.read())\n"
        "except ValueError as exc:\n"
        "    print(f'rejected: {type(exc).__name__}: {exc}')\n"
    )
    src = str(Path(permchar.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", child],
        input=text, capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    return proc.stdout


def test_huge_conductor_is_rejected_before_any_arithmetic():
    """E(100000) does not divide 2*lcm(orders) = 12, so the table's own
    bound rejects it, spelled any way int() reads, before it is parsed."""
    from permchar.corpus import data_dir

    text = (data_dir() / "tables" / "s3.ctbl").read_text()
    for value in ["E(100000)", "E(+100000)", "E(1_00000)"]:
        out = _parse_in_capped_child(text.replace("chi 2 0 -1", f"chi 2 0 {value}"))
        assert out.startswith("rejected: TableSyntaxError: line 11: E(100000)"), out


def test_impossible_header_is_rejected_before_any_value():
    """The class data are checked before the rows are parsed: a class of
    size 99999 in a group of order 100000 is impossible, so E(100000),
    which 2*lcm(orders) = 200000 allows, is never evaluated."""
    text = ("name bad\norder 100000\nclasses 2\nsizes 1 99999\norders 1 100000\n"
            "chi 1 1\nchi 1 E(100000)\n")
    out = _parse_in_capped_child(text)
    assert out == "rejected: CharacterTableError: class size does not divide the group order\n"


@pytest.mark.parametrize("sizes", ["1 0 5", "1 -1 6"])
def test_class_sizes_must_be_positive(sizes):
    text = ("name bad\norder 6\nclasses 3\nsizes " + sizes + "\norders 1 2 3\n"
            "chi 1 1 1\nchi 1 -1 1\nchi 2 0 -1\n")
    with pytest.raises(CharacterTableError, match="class size does not divide"):
        parse_table(text)
