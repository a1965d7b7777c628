import hashlib
import re

import pytest

from permchar import corpus
from permchar.cyclo import prime_factors
from permchar.group import is_subgroup

from helpers import save_group_file


@pytest.mark.parametrize("family,order,degree", [
    ("c1", 1, 1), ("c6", 6, 6), ("d10", 10, 5), ("d24", 24, 12),
    ("q8", 8, 8), ("q16", 16, 16), ("q48", 48, 48),
    ("s4", 24, 4), ("s6", 720, 6), ("a5", 60, 5), ("a6", 360, 6),
    ("f7_3", 21, 7), ("f13_3", 39, 13), ("f11_5", 55, 11),
    ("agl1_8", 56, 8), ("agl1_27", 702, 27), ("agl1_32", 992, 32),
    ("psl2_7", 168, 8), ("psl2_11", 660, 12), ("psl2_13", 1092, 14),
    ("psl3_2", 168, 7), ("psl3_3", 5616, 13),
    ("sl23", 24, 8), ("c3q16", 48, 19), ("a4c4", 48, 8),
    ("m11", 7920, 11), ("m22", 443520, 22), ("m23", 10200960, 23),
])
def test_family_orders_match_formulas(family, order, degree):
    cg = corpus.build(family)
    assert cg.group.order() == order
    assert cg.group.degree == degree


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        corpus.build("agl1_6")  # not a prime power
    with pytest.raises(ValueError):
        corpus.build("q10")  # not a multiple of 4
    with pytest.raises(ValueError):
        corpus.build("d9")  # odd order
    with pytest.raises(ValueError):
        corpus.build("frobnitz")
    with pytest.raises(ValueError):
        corpus.build("f7_4")  # 4 does not divide 6
    for family in ["f4_3", "f9_4"]:  # C_p : C_m needs p prime, not a prime power
        with pytest.raises(ValueError, match="not a prime"):
            corpus.build(family)
    # a family's degree is bounded like a group file's, before it is built
    bound = f"exceeds the supported maximum {corpus.MAX_GROUP_FILE_DEGREE}"
    for family in ["c2000000000", "d131074", "q65540", "s65537", "f65537_2", "psl3_256"]:
        with pytest.raises(ValueError, match=bound):
            corpus.build(family)


def test_unknown_selector_message():
    cg = corpus.build("s4")
    with pytest.raises(ValueError) as err:
        cg.subgroup("nonsense")
    assert "sylow2" in str(err.value)


PRIME_POWERS = [q for q in range(2, corpus.MAX_FIELD_SIZE + 1) if len(prime_factors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_arithmetic(q):
    F = corpus.GF(q)
    els = range(q)
    # multiplicative order of the generator
    o, y = 1, F.generator
    while y != F.one:
        y = F.mul(y, F.generator)
        o += 1
    assert o == q - 1
    if F.a == 1:  # the least primitive root, 1 in GF(2)
        roots = [g for g in range(1, q) if len({pow(g, k, q) for k in range(o)}) == o]
        assert F.generator == roots[0]
    else:  # the residue of x
        assert F.tuples[F.generator] == (0, 1) + (0,) * (F.a - 2)
    # sampled associativity and distributivity
    import random

    rng = random.Random(0)
    for _ in range(60):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    # inverses exist for nonzero elements
    for a in range(q):
        if a == F.zero:
            continue
        assert any(F.mul(a, b) == F.one for b in els)


def test_field_size_bound():
    with pytest.raises(ValueError):
        corpus.GF(256)


def test_agl_subgroup_selectors():
    agl = corpus.build("agl1_27")
    G = agl.group
    h = agl.subgroup("h2p")
    assert h.order() == 6
    assert G.order() // h.order() == 117  # odd index
    f = agl.subgroup("f")
    assert f.order() == 27
    assert is_subgroup(h, G) and is_subgroup(f, G)
    # H meets the translation subgroup in order 3
    both = sum(1 for x in h.element_images_iter() if f.contains_images(x))
    assert both == 3
    assert agl.subgroup("fc13").order() == 351
    assert agl.subgroup("c13").order() == 13


def test_mathieu_selectors():
    m22 = corpus.build("m22")
    assert m22.subgroup("hexad").order() == 5760
    assert m22.subgroup("pair").order() == 1920
    m23 = corpus.build("m23")
    assert m23.subgroup("m22").order() == 443520
    assert m23.subgroup("pair").order() == 40320
    assert m23.subgroup("heptad").order() == 40320
    assert m23.subgroup("triad").order() == 5760
    assert corpus.build("m11").subgroup("s5").order() == 120


def test_named_subgroup_is_built_once(monkeypatch):
    calls = []
    real = corpus.setwise_stabilizer

    def counting(G, points):
        calls.append(frozenset(points))
        return real(G, points)

    monkeypatch.setattr(corpus, "setwise_stabilizer", counting)
    m22 = corpus.build("m22")
    first = m22.subgroup("pair")
    assert m22.subgroup("pair") is first
    assert calls == [frozenset({0, 1})]


def test_group_file_round_trip(tmp_path):
    cg = corpus.build("s4")
    path = tmp_path / "s4.grp"
    save_group_file(path, cg.group, "s4")
    G = corpus.load_group_file(path)
    assert G.order() == 24 and G.degree == 4


def test_group_file_errors(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 4\n(1,2\n")
    with pytest.raises(ValueError) as err:
        corpus.load_group_file(bad)
    assert ":2:" in str(err.value)
    worse = tmp_path / "worse.grp"
    worse.write_text("# order: 999\ndegree 4\n(1,2)\n")
    with pytest.raises(ValueError) as err:
        corpus.load_group_file(worse)
    assert "999" in str(err.value)
    nodeg = tmp_path / "nodeg.grp"
    nodeg.write_text("(1,2)\n")
    with pytest.raises(ValueError):
        corpus.load_group_file(nodeg)


def test_declared_order_must_be_a_number(tmp_path, capsys):
    """A `# order:` header whose value is not ASCII digits is an error
    naming its line, not skipped or read by its leading digits; other
    comments are ignored and whitespace around the value is allowed."""
    from permchar.cli import main

    for i, value in enumerate(["twelve", "2x", "", "-2", "1 2", "\u0662"]):
        path = tmp_path / f"g{i}.grp"
        path.write_text(f"# name: c2\n# order: {value}\ndegree 2\n(1,2)\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"g{i}.grp:2: declared order"):
            corpus.load_group_file(path)
        assert main(["fsind", "--group-file", str(path)]) == 2
    capsys.readouterr()
    ok = tmp_path / "ok.grp"
    ok.write_text("# ordering: anything\n#order:  2 \ndegree 2\n(1,2)\n")
    assert corpus.load_group_file(ok).order() == 2


def test_digits_are_ascii(tmp_path):
    """Regex `\\d` also matches non-ASCII digits such as U+0663
    (ARABIC-INDIC DIGIT THREE), and int() reads them."""
    for i, text in enumerate(["degree ٤\n(1,2)\n", "degree 4\n(1,٢)\n"]):
        path = tmp_path / f"g{i}.grp"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            corpus.load_group_file(path)
    with pytest.raises(ValueError, match="unknown family"):
        corpus.build("c٣")
    with pytest.raises(ValueError):
        corpus.build("s4").subgroup("point٠")


def test_generic_selectors():
    cg = corpus.build("a5")
    assert cg.subgroup("trivial").order() == 1
    assert cg.subgroup("whole").order() == 60
    assert cg.subgroup("point0").order() == 12
    with pytest.raises(ValueError, match="points 0..4"):
        cg.subgroup("point5")
    assert cg.subgroup("sylow2").order() == 4
    assert "sylow2" in cg.subgroup_names()


GENERATOR_FAMILIES = ["a4c4", "a7", "psl2_23", "m11", "m22", "m23", "c1", "f5_2", "f7_6", "f7_1"]


def _generator_images(family: str, selectors=()) -> list:
    """The generator images of a family's group, then of each agl1 field
    selector (translations, C_m and F : C_m), in order, then of each of
    `selectors`."""
    cg = corpus.build(family)
    out = [family, [g.images for g in cg.group.generators]]
    if family.startswith("agl1_"):
        for name in cg.subgroup_names():
            if name == "f" or re.fullmatch(r"f?c[0-9]+", name):
                out.append((name, [g.images for g in cg.subgroup(name).generators]))
    for name in selectors:
        out.append((name, [g.images for g in cg.subgroup(name).generators]))
    return out


# A change that moves a generator on purpose updates the pin: seeded streams
# (samples, Sylow subgroups, class matchings) read the generators.
GENERATORS_DIGEST = "e128667686fe10f6692eefa3678a6e6a3c6399fb0b0e3634d7a8b67a63906637"


def test_generators_match_their_pinned_digest():
    """Every family is built one way; its generators are pinned by sha256."""
    from permchar.verify import SWEEP_FAMILIES

    images = [_generator_images(f) for f in SWEEP_FAMILIES + GENERATOR_FAMILIES]
    assert hashlib.sha256(repr(images).encode()).hexdigest() == GENERATORS_DIGEST


def _field_data(q: int) -> list:
    F = corpus.GF(q)
    return [
        q, F.zero, F.one, F.generator, F.neg, F.tuples,
        [[F.add(i, j) for j in range(q)] for i in range(q)],
        [[F.mul(i, j) for j in range(q)] for i in range(q)],
        [[F.power(i, k) for k in (0, 1, q - 2)] for i in range(q)],
    ]


FIELDS_AND_LINEAR_DIGEST = "67c01dde88f9b41bc420895add13e00b76ab912febaa00b1e2bac48346eddd65"


def test_fields_and_linear_families_match_their_pinned_digest():
    """GF(q) for every prime power q <= 128 (elements, addition,
    multiplication and powers), and the generators of agl1_q and psl2_q
    for every such q, of psl3_q for q <= 5 and of sl23, with their named
    subgroups, are pinned by sha256."""
    digest = hashlib.sha256()
    for q in PRIME_POWERS:
        digest.update(repr(_field_data(q)).encode())
        h2p = ["h2p"] if q % 2 else []
        digest.update(repr(_generator_images(f"agl1_{q}", h2p)).encode())
        digest.update(repr(_generator_images(f"psl2_{q}", ["borel"])).encode())
    for q in (2, 3, 4, 5):
        digest.update(repr(_generator_images(f"psl3_{q}", ["point", "line"])).encode())
    digest.update(repr(_generator_images("sl23", [])).encode())
    assert digest.hexdigest() == FIELDS_AND_LINEAR_DIGEST
