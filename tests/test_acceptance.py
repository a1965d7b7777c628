"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line. Exact arithmetic everywhere; "exact" means
string or integer equality, never approximation."""

import pytest

from permchar import corpus, verify
from permchar.charfun import atlas_string, fs_indicator, fs_indicator_brute
from permchar.classes import conjugacy_classes
from permchar.dixon import character_table
from permchar.tableio import bundled_table, tables_match


def _line(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# 1 ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_paper_tables_byte_exact():
    reports = verify.reproduce_paper_tables(seed=0)
    expected = {
        ("m22", "hexad"): (77, "1a+21a+55a"),
        ("m22", "pair"): (231, "1a+21a+55a+154a"),
        ("m23", "m22"): (23, "1a+22a"),
        ("m23", "pair"): (253, "1a+22a+230a"),
        ("m23", "heptad"): (253, "1a+22a+230a"),
        ("m23", "triad"): (1771, "1a+22a+230aa+253a+1035a"),
        ("m11", "s5"): (66, "1a+10a+11a+44a"),
    }
    ok = True
    for r in reports:
        want_index, want_string = expected[(r.group, r.subgroup)]
        got_index = r.conclusion["index"]
        got_string = r.conclusion["decomposition"]
        item_ok = r.passed and got_index == want_index and got_string == want_string
        print(
            f"  {r.group}/{r.subgroup}: index {got_index} (want {want_index}), "
            f"{got_string!r} (want {want_string!r})"
        )
        ok = ok and item_ok
    _line(1, "tabulated decompositions byte-exact", ok and len(reports) == 7)


# 2 ---------------------------------------------------------------------------


def test_criterion_2_dixon_matches_golden_tables():
    ok = True
    for family in ["s3", "s4", "a5", "d10", "q8", "sl23", "psl3_2"]:
        G = corpus.build(family).group
        computed = character_table(G, name=family)
        golden = bundled_table(family)
        match = tables_match(computed, golden)
        print(f"  {family}: {'match' if match else 'MISMATCH'}")
        ok = ok and match
    _line(2, "Dixon tables equal golden tables up to permutation", ok)


# 3 ---------------------------------------------------------------------------

FS_ORACLE_FAMILIES = [
    "s3", "s4", "s5", "s6", "a4", "a5", "a6",
    "d8", "d10", "d12", "d16", "d20", "d24",
    "q8", "q16", "q32", "c2", "c3", "c6", "c12", "c15", "c21", "c30",
    "sl23", "c3q16", "a4c4", "q48",
    "f7_3", "f13_3", "f11_5",
    "agl1_5", "agl1_7", "agl1_8", "agl1_9", "agl1_11", "agl1_13",
    "agl1_25", "agl1_27", "agl1_32",
    "psl2_7", "psl2_11", "psl2_13", "psl3_2",
]


def test_criterion_3_fs_indicator_oracle():
    checked = 0
    ok = True
    for family in FS_ORACLE_FAMILIES:
        G = corpus.build(family).group
        if G.order() > 5000:
            continue
        C = conjugacy_classes(G)
        T = character_table(G, C, name=family)
        emap = C.element_class_map()
        for row in T.rows:
            if fs_indicator(row, T) != fs_indicator_brute(row, G, emap.__getitem__):
                print(f"  {family}: indicator mismatch")
                ok = False
        checked += 1
    print(f"  {checked} groups checked against the brute-force sum")
    _line(3, "indicator power-map formula equals brute force (|G| <= 5000)", ok and checked >= 30)


# 4 ---------------------------------------------------------------------------


def test_criterion_4_burnside_odd_order():
    agl = corpus.build("agl1_27")
    odd_groups = [
        ("c3", corpus.build("c3").group),
        ("c15", corpus.build("c15").group),
        ("c21", corpus.build("c21").group),
        ("c27", corpus.build("c27").group),
        ("f7_3 (C7:C3)", corpus.build("f7_3").group),
        ("f13_3 (C13:C3)", corpus.build("f13_3").group),
        ("agl1_27 translations", agl.subgroup("f")),
        ("agl1_27 F:C13", agl.subgroup("fc13")),
        ("agl1_27 C13", agl.subgroup("c13")),
    ]
    ok = True
    for name, G in odd_groups:
        assert G.order() % 2 == 1
        T = character_table(G, name=name)
        bad = [
            i
            for i, row in enumerate(T.rows[1:], start=1)
            if row.is_real_valued() or T.fs_indicators()[i] != 0
        ]
        # row 0 is trivial by construction
        assert T.rows[0].is_real_valued()
        if bad:
            print(f"  {name}: nontrivial real rows {bad}")
            ok = False
    print(f"  {len(odd_groups)} odd-order groups, only the trivial row is real")
    _line(4, "Burnside: odd order means no nontrivial real irreducibles", ok)


# 5 + 8 -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_result():
    return verify.theorem_a_sweep(seed=0, min_pairs=500)


@pytest.mark.slow
def test_criterion_5_theorem_A_sweep(sweep_result):
    pairs = sweep_result["pairs"]
    a_reports = [r for r in sweep_result["reports"] if r.statement == "theorem-A"]
    violations = [r for r in a_reports if not r.passed]
    print(f"  {pairs} sampled (G,H) pairs, {len(a_reports)} theorem-A checks, "
          f"{len(violations)} violations")
    _line(5, "theorem-A biconditional sweep (>= 500 pairs)", pairs >= 500 and not violations)


@pytest.mark.slow
def test_criterion_8_lemma_plus_type_sweep(sweep_result):
    bob = [r for r in sweep_result["reports"] if r.statement == "lemma-plus-type"]
    violations = [r for r in bob if not r.passed]
    print(f"  {len(bob)} decompositions checked, {len(violations)} violations")
    # also across the tabulated Mathieu decompositions
    paper = verify.reproduce_paper_tables(seed=0)
    for r in paper:
        for w in r.witnesses:
            if w["multiplicity"] % 2 == 1:
                row_real = w["indicator"] != 0
                if row_real and w["indicator"] != 1:
                    violations.append(r)
    _line(8, "no real odd-multiplicity constituent of minus or zero type",
          not violations and len(bob) >= 500)


# 6 ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_theorem_B_instances():
    ok = True
    instances = [
        ("psl3_2", "point"),
        ("s4", "sylow2"),
        ("m22", "hexad"),
        ("m22", "pair"),
        ("m23", "m22"),
        ("m23", "pair"),
        ("m23", "heptad"),
        ("m23", "triad"),
    ]
    for family, sel in instances:
        ctx = verify.context(family)
        r = verify.check_theorem_B(ctx, ctx.subgroup(sel), subgroup_name=sel)
        hyp = all(r.hypotheses.values())
        print(f"  {family}/{sel}: hypotheses {hyp}, "
              f"conclusion {r.conclusion['nontrivial_real_odd_multiplicity_exists']}")
        ok = ok and r.passed and hyp and r.conclusion["nontrivial_real_odd_multiplicity_exists"]
    # hypothesis-failure counterexample: AGL(1,27) with its order-6 subgroup
    ctx = verify.context("agl1_27")
    H = ctx.subgroup("h2p")
    r = verify.check_theorem_B(ctx, H, subgroup_name="h2p")
    ok = ok and r.passed and not r.hypotheses["o2prime_times_H_covers_G"]
    ok = ok and not r.conclusion["nontrivial_real_odd_multiplicity_exists"]
    pi, mults = ctx.decompose_perm_character(H)
    theta = next(i for i, d in enumerate(ctx.table.degrees) if d == 26)
    theta_ok = mults[theta] == 4 and ctx.table.rows[theta].is_rational_valued()
    print(f"  agl1_27/h2p: theta multiplicity {mults[theta]} (want 4, even; the "
          f"q-based closed form would give 364), rational "
          f"{ctx.table.rows[theta].is_rational_valued()}")
    ok = ok and theta_ok
    _line(6, "theorem-B instances and the AGL(1,27) counterexample", ok)


# 7 ---------------------------------------------------------------------------

THEOREM_D_FAMILIES = [
    "s4", "a5", "psl3_2", "agl1_27", "c6", "q8", "sl23",
    "d10", "q16", "a4", "c3q16", "a4c4", "f7_3", "f13_3", "c15",
    "s5", "a6", "psl2_11", "agl1_9", "m11",
]


@pytest.mark.slow
def test_criterion_7_theorem_D_equivalence():
    ok = True
    for family in THEOREM_D_FAMILIES:
        r = verify.check_theorem_D(verify.context(family))
        print(f"  {family}: {'pass' if r.passed else 'FAIL'}")
        ok = ok and r.passed
    _line(7, "theorem-D (i)<=>(ii)<=>(iv) on the enumerable corpus", ok)


@pytest.mark.slow
def test_criterion_7b_theorem_D_m22():
    # the largest within-threshold corpus group
    r = verify.check_theorem_D(verify.context("m22"))
    print(f"  m22: {'pass' if r.passed else 'FAIL'} "
          f"({len(r.witnesses)} real odd-order classes)")
    _line(7, "theorem-D at M22 scale", r.passed)


# 9 ---------------------------------------------------------------------------


def test_criterion_9_d10_remark():
    ctx = verify.context("d10")
    H = ctx.subgroup("sylow2")
    pi, mults = ctx.decompose_perm_character(H)
    T = ctx.table
    odd = [i for i, m in enumerate(mults) if m % 2 == 1]
    rational_odd = [i for i in odd if T.rows[i].is_rational_valued()]
    real_odd = [i for i in odd if T.rows[i].is_real_valued()]
    triv = ctx.trivial_row_index()
    ok = rational_odd == [triv] and len(real_odd) == 3
    print(f"  (1_Syl2)^D10 = {atlas_string(mults, T)}: rational odd-multiplicity "
          f"{[T.row_name(i) for i in rational_odd]}, real odd-multiplicity "
          f"{[T.row_name(i) for i in real_odd]}")
    _line(9, "D10: unique rational odd constituent, three real ones", ok)
