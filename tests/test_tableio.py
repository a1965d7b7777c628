import pytest

from permchar import classes, corpus
from permchar.charfun import CharacterTableError, ClassFunction, decompose
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
    alt = m.alternate_reps()
    pi1 = ClassFunction([r.fixed_points() for r in m.reps])
    pi2 = ClassFunction([r.fixed_points() for r in alt])
    assert decompose(pi1, T) == decompose(pi2, T)


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
    alt = m.alternate_reps()
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
    monkeypatch.setattr(classes, "cycle_type", _fixed_points_of_powers)
    for seed, m in enumerate(new):
        old = find_representatives(G, T, seed=seed)
        assert [r.images for r in m.reps] == [r.images for r in old.reps]
        assert m.ambiguity_groups == old.ambiguity_groups
        assert m.samples_used == old.samples_used


# find_representatives(G, bundled table, seed) for the paper's groups:
# (name, seed, sha256 of repr([rep images]), ambiguity_groups, samples_used)
PINNED_MATCHINGS = [
    ("m11", 0, "7d29ee964f7639339a5d76d0a83256daba643de828818b67a4a524cae97d374e", [(6, 7), (8, 9)], 200),
    ("m11", 1, "74a6f645e9b851608b59d362864083291b0be3b1e037a9a98aea640daf0866dd", [(6, 7), (8, 9)], 200),
    ("m11", 2, "2bf34b238c2f6d7daa8f24bad3df59fe24dcef8471bc1d21de6d64f8cc2170f8", [(6, 7), (8, 9)], 200),
    ("m11", 3, "05e3a7d824b50618b637417260e51eb3703fa4ed43b0d8dfe14705e036ab9a07", [(6, 7), (8, 9)], 200),
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


@pytest.mark.parametrize("name, seed, digest, ambiguity, used", PINNED_MATCHINGS)
def test_matching_of_the_paper_groups_is_pinned(name, seed, digest, ambiguity, used):
    import hashlib

    m = find_representatives(corpus.build(name).group, bundled_table(name), seed=seed)
    assert hashlib.sha256(repr([r.images for r in m.reps]).encode()).hexdigest() == digest
    assert m.ambiguity_groups == ambiguity
    assert m.samples_used == used


@pytest.mark.slow
def test_matching_m22_against_full_enumeration():
    """Cross-check the sampling matcher against exact classes."""
    G = corpus.build("m22").group
    C = conjugacy_classes(G)
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
    canonical = {tuple(sorted((C.sizes[i], C.orders[i], i) for i in range(len(C)))): None}
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


@pytest.mark.slow
def test_m22_dixon_agrees_with_bundled():
    G = corpus.build("m22").group
    T = character_table(G, name="m22")
    assert tables_match(T, bundled_table("m22"))


@pytest.mark.parametrize("old, new, error", [
    ("power 2 ", "power 0 ", TableSyntaxError),
    ("power 2 ", "power 1 ", TableSyntaxError),
    ("power 2 ", "power 4 ", TableSyntaxError),
    ("power 2 ", "power -2 ", TableSyntaxError),
    ("orders 1 2 3", "orders 1 0 3", CharacterTableError),
    ("orders 1 2 3", "orders 1 -2 3", CharacterTableError),
    ("orders 1 2 3", "orders 1 2 5", CharacterTableError),
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
        env={"PYTHONPATH": src, "PATH": ""},
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
