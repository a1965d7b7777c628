"""Mechanical checkers for the statements about real constituents of
permutation characters, each returning a structured VerificationReport.

Every check is exact: multiplicities come from integer-valued inner
products, indicators from the squaring power map, parities from integers.
"""

from __future__ import annotations

import random
from math import lcm
from operator import itemgetter

from . import corpus
from .charfun import (
    ClassFunction,
    atlas_string,
    decompose,
    inner_product,
    perm_character,
    restriction_values,
)
from .classes import (
    DEFAULT_ENUMERATION_THRESHOLD,
    EnumerationThresholdError,
    conjugacy_classes,
    fingerprint,
)
from .dixon import character_table
from .group import (
    PermGroup,
    _point_orbits,
    conjugators,
    normalizer,
    on_sets,
    orbit_closure,
    orbit_stabilizer,
    proper_subgroup,
    sylow_2,
)
from .perm import inv_images, packer
from .tableio import bundled_table, find_representatives


class VerificationReport:
    """Outcome of one mechanical check.

    `passed` records whether the hypotheses-imply-conclusion contract
    held; witnesses carry the re-checkable data (constituent names,
    multiplicities, indicators, class names)."""

    def __init__(self, statement: str, group: str, subgroup: str | None, hypotheses: dict,
                 conclusion: dict, witnesses: list | None = None, passed: bool = False,
                 notes: list | None = None):
        self.statement = statement
        self.group = group
        self.subgroup = subgroup
        self.hypotheses = hypotheses
        self.conclusion = conclusion
        self.witnesses = [] if witnesses is None else witnesses
        self.passed = passed
        self.notes = [] if notes is None else notes

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "group": self.group,
            "subgroup": self.subgroup,
            "hypotheses": self.hypotheses,
            "conclusion": self.conclusion,
            "witnesses": self.witnesses,
            "pass": self.passed,
            "notes": self.notes,
        }

    def render(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        head = f"[{verdict}] {self.statement}: {self.group}"
        if self.subgroup:
            head += f" / {self.subgroup}"
        lines = [head]
        for k, v in self.hypotheses.items():
            lines.append(f"    hypothesis {k}: {v}")
        for k, v in self.conclusion.items():
            lines.append(f"    conclusion {k}: {v}")
        for w in self.witnesses:
            lines.append(f"    witness: {w}")
        for n in self.notes:
            lines.append(f"    note: {n}")
        return "\n".join(lines)


# -- group contexts -----------------------------------------------------------------

_BUNDLED_TABLES = {"m11", "m22", "m23"}


class GroupContext:
    """A group together with its character table and its class data
    `classes`: a whole-walked `ConjugacyClassSet`, or a `ClassMatching` of
    the table to sampled classes. Both have group, reps, sizes, orders,
    classify and ambiguity_groups: a classify is exact only up to its
    ambiguity groups, which a class set does not have.
    Built by `for_group` (or `for_family`)."""

    def __init__(self, name, group, table, classes, threshold, corpus_group):
        self.name = name
        self.group = group
        self.table = table
        self.classes = classes
        self.threshold = threshold
        self.corpus_group = corpus_group
        self._sylow2_normalizer: dict = {}  # seed -> N_G(P)
        self._trivial_row = None
        self._decompositions: dict = {}

    @classmethod
    def for_family(
        cls,
        family: str,
        seed: int = 0,
        threshold: int = DEFAULT_ENUMERATION_THRESHOLD,
    ) -> "GroupContext":
        cg = corpus.build(family)
        return cls.for_group(cg.name, cg.group, seed=seed, threshold=threshold, corpus_group=cg)

    @classmethod
    def for_group(
        cls,
        name: str,
        group: PermGroup,
        seed: int = 0,
        threshold: int = DEFAULT_ENUMERATION_THRESHOLD,
        corpus_group=None,
        table=None,
    ) -> "GroupContext":
        """Match `table`, or the bundled table of the corpus family
        `corpus_group` (a bare `name` selects none), to the classes of `group`
        by seeded sampling; with neither, enumerate the classes and build the
        table. Without `corpus_group` only generic selectors work."""
        if table is None and corpus_group is not None and corpus_group.name in _BUNDLED_TABLES:
            table = bundled_table(corpus_group.name)
        if corpus_group is None:
            corpus_group = corpus.CorpusGroup(name, group)
        if table is not None:
            classes = find_representatives(group, table, seed=seed)
        else:
            classes = conjugacy_classes(group, threshold=threshold)
            table = character_table(group, classes, name=name)
        return cls(name, group, table, classes, threshold, corpus_group)

    def subgroup(self, selector: str) -> PermGroup:
        return self.corpus_group.subgroup(selector)

    def decompose_perm_character(self, H: PermGroup):
        """(pi, multiplicities) of pi = 1_H^G over the table rows, kept per
        generating set of H, so every checker on the same subgroup shares
        one computation. `perm_character` picks class fusion or the coset
        action from the sizes alone. Callers must not mutate the returned
        list."""
        key = tuple(g.images for g in H.generators)
        hit = self._decompositions.get(key)
        if hit is None:
            pi = perm_character(self.group, H, self.classes)
            hit = self._decompositions[key] = (pi, decompose(pi, self.table))
        return hit

    def core_order(self, pi: ClassFunction) -> int:
        """|core_G(H)| for pi = 1_H^G: the core is the kernel of G on G/H,
        the union of the classes where pi takes its degree."""
        return sum(s for s, v in zip(self.table.sizes, pi.values) if v == pi.values[0])

    def o2prime_hypotheses(self, pi: ClassFunction) -> tuple:
        """(K H = G, K <= H) for K = O^{2'}(G) and pi = 1_H^G, read off the
        classes of K. Burnside's count of K-orbits on G/H gives sum over the
        classes k inside K of |k| pi(k) = |K| [G : KH], so KH = G iff that
        sum is |K|. A normal subgroup lies in H iff it lies in the core,
        the classes where pi takes its degree."""
        K = self.table.o2prime_classes()
        sizes, values = self.table.sizes, pi.values
        covers = sum(sizes[k] * values[k].as_rational() for k in K) == sum(sizes[k] for k in K)
        inside = all(values[k] == values[0] for k in K)
        return covers, inside

    def sylow2(self, seed: int = 0) -> PermGroup:
        """`group.sylow_2`, which keeps P on the group."""
        return sylow_2(self.group, seed=seed)

    def sylow2_normalizer(self, seed: int = 0) -> PermGroup:
        """N_G(P) for P = sylow2(seed). N_G(P) permutes the P-orbits, so it
        lies in the stabilizer S of the partition of the points into
        P-orbits, and N_G(P) = N_S(P): the conjugation orbit of P's element
        set is walked in S, not in G. S is found on label vectors
        (`_partition_maps`). Past the context's threshold this raises."""
        N = self._sylow2_normalizer.get(seed)
        if N is None:
            if self.group.order() > self.threshold:
                raise EnumerationThresholdError(f"group order {self.group.order()} exceeds"
                                                f" enumeration threshold {self.threshold}")
            P = self.sylow2(seed=seed)
            S = orbit_stabilizer(self.group, _block_labels(P), _partition_maps(self.group))[2]
            N = self._sylow2_normalizer[seed] = normalizer(S, P)
        return N

    def trivial_row_index(self) -> int:
        """Index of the trivial row; computed once."""
        if self._trivial_row is None:
            one = ClassFunction([1] * self.table.n_classes)
            for i, row in enumerate(self.table.rows):
                if row == one:
                    self._trivial_row = i
                    break
            else:
                raise AssertionError("table has no trivial row")
        return self._trivial_row


def _block_labels(P: PermGroup):
    """The P-orbits as a label vector (see `_partition_maps`)."""
    block = {p: i for i, orbit in enumerate(_point_orbits(P)) for p in orbit}
    return packer(P.degree)(block[p] for p in range(P.degree))


def _partition_maps(G: PermGroup) -> list:
    """The action of each generator g of G on partitions of the points as
    label vectors: label[p] is the index of p's block, blocks numbered in
    order of least point, packed (`perm.packer`). An image reads the block
    of g^-1(q) at each point q and renumbers the blocks by first occurrence."""
    pack = packer(G.degree)

    def action(take):
        def image(labels):
            moved = take(labels)
            rank = {b: i for i, b in enumerate(dict.fromkeys(moved))}
            return pack(map(rank.__getitem__, moved))
        return image

    return [action(itemgetter(*inv_images(g.images))) for g in G.generators]


_context_cache: dict = {}


def context(family: str, seed: int = 0) -> GroupContext:
    key = (family, seed, corpus.data_dir())
    if key not in _context_cache:
        _context_cache[key] = GroupContext.for_family(family, seed=seed)
    return _context_cache[key]


def clear_context_cache() -> None:
    _context_cache.clear()


# -- individual theorem checkers -------------------------------------------------------
#
# Each statement about a pair (G, H) is a core (ctx, pi, mults, name) that reads H
# only through pi = 1_H^G and its multiplicities: the index [G:H] is pi(1), and H is
# proper iff pi(1) > 1. The public check_X(ctx, H, subgroup_name=...) decomposes pi
# and calls its core.


def _odd_real(table, mults) -> list:
    """The real rows of odd multiplicity; the trivial row is always one."""
    real = table.real_row_flags()
    return [i for i, m in enumerate(mults) if m % 2 == 1 and real[i]]


def _witnesses(table, mults, rows) -> list:
    indicators = table.fs_indicators()
    return [{"constituent": table.row_name(i), "multiplicity": mults[i],
             "indicator": indicators[i]} for i in rows]


def theorem_A(ctx: GroupContext, pi: ClassFunction, mults, name: str = "") -> VerificationReport:
    """Unique real-valued orthogonal constituent of (1_H)^G iff the index
    of the core of H is odd. An indicator of +1 implies a real row."""
    indicators = ctx.table.fs_indicators()
    plus_real = [i for i, m in enumerate(mults) if m > 0 and indicators[i] == 1]
    core_index = ctx.group.order() // ctx.core_order(pi)
    odd_core_index = core_index % 2 == 1
    unique = len(plus_real) == 1
    report = VerificationReport(
        statement="theorem-A",
        group=ctx.name,
        subgroup=name or None,
        hypotheses={"index_of_core_odd": odd_core_index},
        conclusion={
            "plus_type_real_constituents": [ctx.table.row_name(i) for i in plus_real],
            "unique": unique,
            "core_index": core_index,
        },
        witnesses=_witnesses(ctx.table, mults, plus_real),
    )
    report.passed = unique == odd_core_index
    return report


def check_theorem_A(ctx: GroupContext, H: PermGroup, subgroup_name: str = "") -> VerificationReport:
    return theorem_A(ctx, *ctx.decompose_perm_character(H), subgroup_name)


def theorem_B(ctx: GroupContext, pi: ClassFunction, mults, name: str = "") -> VerificationReport:
    """Under O^{2'}(G)H = G with H proper and not above O^{2'}(G), the
    permutation character has a nontrivial real constituent of odd
    multiplicity."""
    h1, inside = ctx.o2prime_hypotheses(pi)
    h2 = not inside
    proper = pi.degree.as_rational() > 1
    triv = ctx.trivial_row_index()
    odd_real = [i for i in _odd_real(ctx.table, mults) if i != triv]
    conclusion = bool(odd_real)
    report = VerificationReport(
        statement="theorem-B",
        group=ctx.name,
        subgroup=name or None,
        hypotheses={
            "H_proper": proper,
            "o2prime_times_H_covers_G": h1,
            "H_does_not_contain_o2prime": h2,
        },
        conclusion={
            "nontrivial_real_odd_multiplicity_exists": conclusion,
            "decomposition": atlas_string(mults, ctx.table),
        },
        witnesses=_witnesses(ctx.table, mults, odd_real),
    )
    report.passed = (not (proper and h1 and h2)) or conclusion
    return report


def check_theorem_B(
    ctx: GroupContext, H: PermGroup, subgroup_name: str = "", seed: int = 0
) -> VerificationReport:
    """`seed` is unused: O^{2'}(G) comes from the table."""
    return theorem_B(ctx, *ctx.decompose_perm_character(H), subgroup_name)


def sylow2_conjugates(G: PermGroup, P: PermGroup) -> list:
    """All G-conjugates of P, each as a frozenset of element image tuples."""
    base = frozenset(P.element_images_iter())
    return list(orbit_closure(base, on_sets(conjugators(G))))


def check_theorem_D(ctx: GroupContext, seed: int = 0) -> VerificationReport:
    """Equivalence of: Sylow 2-subgroup normal; no nontrivial real elements
    of odd order; every real element of odd order normalizes a Sylow
    2-subgroup. The 2-Brauer part (iii) is out of scope and reported so.

    The Sylow 2-subgroups form the G-set G/N_G(P), so the number of them
    that x normalizes is pi(x) for pi = 1_{N_G(P)}^G, and pi(1) is their
    number; the real odd-order classes come from the table."""
    table = ctx.table
    N = ctx.sylow2_normalizer(seed=seed)
    pi, _ = ctx.decompose_perm_character(N)
    counts = [int(v.as_rational()) for v in pi.values]
    real_odd = [k for k in table.real_class_indices()
                if table.orders[k] % 2 == 1 and table.orders[k] > 1]
    part_i = counts[0] == 1
    part_ii = not real_odd
    part_iv = all(counts[k] > 0 for k in real_odd)
    # the Brauer-character argument makes the normalized-Sylow count even
    # for nontrivial real elements of odd order
    parity_ok = all(counts[k] % 2 == 0 for k in real_odd)
    report = VerificationReport(
        statement="theorem-D",
        group=ctx.name,
        subgroup=None,
        hypotheses={},
        conclusion={
            "i_sylow2_normal": part_i,
            "ii_no_nontrivial_real_odd_order": part_ii,
            "iv_every_real_odd_normalizes_some_sylow2": part_iv,
            "iii_2brauer": "out of scope",
        },
        witnesses=[
            {
                "real_odd_class_order": table.orders[k],
                "class_size": table.sizes[k],
                "normalized_sylow_count": counts[k],
            }
            for k in real_odd
        ],
        notes=[f"sylow2_order={ctx.sylow2(seed=seed).order()}", f"sylow2_conjugates={counts[0]}"],
    )
    if not parity_ok:
        report.notes.append("PARITY VIOLATION: odd count of normalized Sylow 2-subgroups")
    report.passed = (part_i == part_ii == part_iv) and parity_ok
    return report


def check_simple_sylow_avoidance(ctx: GroupContext, seed: int = 0) -> VerificationReport:
    """For a nonabelian simple group: some real element of odd order
    normalizes no Sylow 2-subgroup. G is nonabelian simple exactly when
    |G| > 1, the trivial row is the only linear one (G = G') and every
    other row is faithful (its kernel, where it takes the value chi(1), is
    the identity class): every normal subgroup is an intersection of
    kernels."""
    table = ctx.table
    triv = ctx.trivial_row_index()
    simple = table.order > 1 and all(
        table.degrees[i] > 1 and all(v != row.values[0] for v in row.values[1:])
        for i, row in enumerate(table.rows)
        if i != triv
    )
    base = check_theorem_D(ctx, seed=seed)
    avoiders = [w for w in base.witnesses if w["normalized_sylow_count"] == 0]
    report = VerificationReport(
        statement="simple-sylow-avoidance",
        group=ctx.name,
        subgroup=None,
        hypotheses={"nonabelian_simple": simple},
        conclusion={"real_odd_avoider_exists": bool(avoiders)},
        witnesses=avoiders,
    )
    report.passed = not simple or bool(avoiders)
    return report


def real_coverage(ctx: GroupContext, pi: ClassFunction, mults, name: str = "") -> VerificationReport:
    """If the trivial character is the unique real constituent of odd
    multiplicity, the index is odd and H meets every real class."""
    hypothesis = len(_odd_real(ctx.table, mults)) == 1
    index = int(pi.degree.as_rational())
    real_classes = ctx.table.real_class_indices()
    missed = [k for k in real_classes if pi.values[k].is_zero()]
    parities = {
        str(k): int(pi.values[k].as_rational()) % 2 for k in real_classes
    }
    report = VerificationReport(
        statement="lemma-real-coverage",
        group=ctx.name,
        subgroup=name or None,
        hypotheses={"unique_odd_multiplicity_real_constituent": hypothesis},
        conclusion={
            "index_odd": index % 2 == 1,
            "real_classes_missed_by_H": missed,
        },
        witnesses=[{"fixed_point_parity_per_real_class": parities}],
        notes=["parities are informational; see the odd-degree primitive case"],
    )
    report.passed = (not hypothesis) or (index % 2 == 1 and not missed)
    return report


def check_real_coverage(ctx: GroupContext, H: PermGroup, subgroup_name: str = "") -> VerificationReport:
    return real_coverage(ctx, *ctx.decompose_perm_character(H), subgroup_name)


def lemma_bob(ctx: GroupContext, pi: ClassFunction, mults, name: str = "") -> VerificationReport:
    """Real constituents of odd multiplicity in a permutation character
    must have indicator +1."""
    triples = _witnesses(ctx.table, mults, _odd_real(ctx.table, mults))
    bad = [t for t in triples if t["indicator"] != 1]
    report = VerificationReport(
        statement="lemma-plus-type",
        group=ctx.name,
        subgroup=name or None,
        hypotheses={},
        conclusion={"violations": bad},
        witnesses=triples,
    )
    report.passed = not bad
    return report


def check_lemma_bob(ctx: GroupContext, H: PermGroup, subgroup_name: str = "") -> VerificationReport:
    return lemma_bob(ctx, *ctx.decompose_perm_character(H), subgroup_name)


def theorem_4_6(
    ctx: GroupContext, pi: ClassFunction, mults, name: str = "", maximal: bool | None = None
) -> VerificationReport:
    """The five sufficient conditions for a nontrivial real odd-multiplicity
    constituent; every condition that holds must be matched by the
    conclusion. Maximality is only asserted when the caller knows it."""
    table = ctx.table
    triv = ctx.trivial_row_index()
    odd_real = [i for i in _odd_real(table, mults) if i != triv]
    conclusion = bool(odd_real)
    index = int(pi.degree.as_rational())
    real_classes = table.real_class_indices()
    h_i = index % 2 == 0
    h_ii = any(pi.values[k].is_zero() for k in real_classes)
    h_iii = any(int(pi.values[k].as_rational()) % 2 == 0 for k in real_classes)
    hyps = {
        "i_even_index": h_i,
        "ii_real_class_missing_H": h_ii,
        "iii_even_fixed_count_on_real_class": h_iii,
    }
    if maximal is not None:
        hyps["iv_maximal_with_even_core_quotient"] = (
            maximal and (ctx.group.order() // ctx.core_order(pi)) % 2 == 0
        )
    covers, inside = ctx.o2prime_hypotheses(pi)
    hyps["v_o2prime_complement"] = index > 1 and covers and not inside
    triggered = [k for k, v in hyps.items() if v]
    report = VerificationReport(
        statement="theorem-odd-multiplicity-hypotheses",
        group=ctx.name,
        subgroup=name or None,
        hypotheses=hyps,
        conclusion={
            "nontrivial_real_odd_multiplicity_exists": conclusion,
            "witnesses": [table.row_name(i) for i in odd_real],
        },
    )
    report.passed = (not triggered) or conclusion
    return report


def check_theorem_4_6(
    ctx: GroupContext,
    H: PermGroup,
    subgroup_name: str = "",
    maximal: bool | None = None,
    seed: int = 0,
) -> VerificationReport:
    """`seed` is unused: O^{2'}(G) comes from the table."""
    return theorem_4_6(ctx, *ctx.decompose_perm_character(H), subgroup_name, maximal)


def check_burnside(ctx: GroupContext) -> VerificationReport:
    """Odd-order groups have no nontrivial real irreducible character."""
    table = ctx.table
    odd_order = ctx.group.order() % 2 == 1
    triv = ctx.trivial_row_index()
    real_rows = [i for i, real in enumerate(table.real_row_flags()) if real]
    nontrivial_real = [i for i in real_rows if i != triv]
    indicators = table.fs_indicators()
    nonzero_ind = [i for i in range(len(table.rows)) if i != triv and indicators[i] != 0]
    report = VerificationReport(
        statement="burnside-odd-order",
        group=ctx.name,
        subgroup=None,
        hypotheses={"odd_order": odd_order},
        conclusion={
            "nontrivial_real_rows": [table.row_name(i) for i in nontrivial_real],
            "nontrivial_nonzero_indicator_rows": [table.row_name(i) for i in nonzero_ind],
        },
    )
    report.passed = (not odd_order) or (not nontrivial_real and not nonzero_ind)
    return report


def induction_real_constituents(ctx: GroupContext, H: PermGroup):
    """For each real theta in Irr(H): its indicator and the real
    constituents of theta^G, via Frobenius reciprocity over the fusion
    map (no induction operator needed). The fusion map restricts
    non-rational characters too, so it needs exact class data: a matching
    with ambiguity groups raises ValueError."""
    if ctx.classes.ambiguity_groups:
        raise ValueError(f"{ctx.name}: class fusion needs exact class data, and the"
                         f" matching has ambiguity groups {ctx.classes.ambiguity_groups}")
    h_classes = conjugacy_classes(H)
    h_table = character_table(H, h_classes)
    fusion = [ctx.classes.classify(r.images) for r in h_classes.reps]
    h_indicators = h_table.fs_indicators()
    out = []
    for j, theta in enumerate(h_table.rows):
        if not h_table.real_row_flags()[j]:
            continue
        mults = []
        for chi in ctx.table.rows:
            m = inner_product(
                restriction_values(chi, fusion), theta, h_table.sizes, h_table.order
            )
            if m.denominator != 1 or m < 0:
                raise AssertionError("Frobenius reciprocity produced a non-integer")
            mults.append(int(m))
        real_constituents = [
            ctx.table.row_name(i)
            for i, m in enumerate(mults)
            if m > 0 and ctx.table.real_row_flags()[i]
        ]
        out.append(
            {
                "theta": h_table.row_name(j),
                "theta_indicator": h_indicators[j],
                "real_constituents_of_induction": real_constituents,
            }
        )
    return out


def check_c3q16_phenomenon(seed: int = 0) -> VerificationReport:
    """A real orthogonal theta in Irr(H), [G:H] odd, with theta^G lacking
    any real-valued constituent.

    The claim being checked names an order-48 group by an order-24
    structure label, so two candidates are examined: C3:Q16 (the
    presumed reading, which turns out NOT to exhibit the phenomenon) and
    A4:C4 (which does). The check passes when some candidate exhibits it;
    the per-candidate outcomes are all reported.
    """
    per_candidate = {}
    witnesses = []
    for family in ("c3q16", "a4c4"):
        ctx = context(family, seed=seed)
        H = ctx.sylow2(seed=seed)
        index = ctx.group.order() // H.order()
        rows = induction_real_constituents(ctx, H)
        exhibited = any(
            w["theta_indicator"] == 1 and not w["real_constituents_of_induction"]
            for w in rows
        )
        per_candidate[family] = {"index": index, "exhibits": exhibited}
        for w in rows:
            witnesses.append({"group": family, **w})
    report = VerificationReport(
        statement="odd-index-real-induction-counterexample",
        group="order-48 candidates",
        subgroup="sylow2",
        hypotheses={"index_odd": all(v["index"] % 2 == 1 for v in per_candidate.values())},
        conclusion={"per_candidate": per_candidate,
                    "phenomenon_exhibited": any(v["exhibits"] for v in per_candidate.values())},
        witnesses=witnesses,
        notes=[
            "the checked claim names an order-48 group by an order-24 structure label;"
            " the C3:Q16 reading does not exhibit the phenomenon, A4:C4 does"
        ],
    )
    report.passed = any(v["exhibits"] for v in per_candidate.values())
    return report


# -- the tabulated decompositions --------------------------------------------------------


PAPER_TABLE_ITEMS = [
    ("m22", "hexad", 77, "1a+21a+55a"),
    ("m22", "pair", 231, "1a+21a+55a+154a"),
    ("m23", "m22", 23, "1a+22a"),
    ("m23", "pair", 253, "1a+22a+230a"),
    ("m23", "heptad", 253, "1a+22a+230a"),
    ("m23", "triad", 1771, "1a+22a+230aa+253a+1035a"),
    ("m11", "s5", 66, "1a+10a+11a+44a"),
]


def reproduce_paper_tables(seed: int = 0, items=None) -> list:
    """Recompute every tabulated decomposition and compare byte-for-byte."""
    reports = []
    for family, selector, expect_index, expect_string in items or PAPER_TABLE_ITEMS:
        ctx = context(family, seed=seed)
        H = ctx.subgroup(selector)
        index = ctx.group.order() // H.order()
        pi, mults = ctx.decompose_perm_character(H)
        got = atlas_string(mults, ctx.table)
        ok = got == expect_string and index == expect_index
        report = VerificationReport(
            statement="tabulated-decomposition",
            group=family,
            subgroup=selector,
            hypotheses={},
            conclusion={
                "index": index,
                "expected_index": expect_index,
                "decomposition": got,
                "expected": expect_string,
            },
            witnesses=_witnesses(ctx.table, mults, [i for i, m in enumerate(mults) if m]),
            passed=ok,
        )
        if ctx.classes.ambiguity_groups:
            report.notes.append(
                f"class-matching ambiguity groups: {ctx.classes.ambiguity_groups}"
            )
        reports.append(report)
    return reports


# -- corpus sweeps ------------------------------------------------------------------------

SWEEP_FAMILIES = [
    "s3", "s4", "s5", "s6",
    "a4", "a5", "a6",
    "d8", "d10", "d12", "d16", "d20", "d24",
    "q8", "q16", "q32",
    "c2", "c3", "c6", "c12", "c15", "c21", "c30",
    "sl23", "c3q16",
    "f7_3", "f13_3", "f11_5",
    "agl1_5", "agl1_7", "agl1_8", "agl1_9", "agl1_11", "agl1_13",
    "agl1_25", "agl1_27", "agl1_32",
    "psl2_7", "psl2_11", "psl2_13",
    "psl3_2",
]


def sample_subgroups(G: PermGroup, seed: int = 0, budget: int = 12) -> list:
    """A deterministic sample of subgroups: cyclic and 2-generated random
    subgroups, a point stabilizer, a Sylow 2-subgroup, and G itself, at most
    one per key (order, sorted orbit lengths).

    A 2-generated sample <g,h> is proved redundant before its chain is
    built where it can be: its order is a multiple of L = lcm(o(g), o(h),
    its orbit lengths), so L = |G| proves <g,h> = G, and a kept subgroup K
    with key (L, the same orbit lengths) that holds g and h is <g,h>."""
    rng = random.Random(seed)
    out = []
    kept = {}  # key -> the subgroup kept under it

    def push(name, H):
        key = (H.order(), tuple(sorted(len(o) for o in _point_orbits(H))))
        if key not in kept:
            kept[key] = H
            out.append((name, H))

    push("whole", G)
    push("sylow2", sylow_2(G, seed=seed))
    if G.degree > 1:
        push("point0", G.pointwise_stabilizer([0]))
    tries = 0
    while len(out) < budget and tries < 6 * budget:
        tries += 1
        g = G.random_element(rng)
        if tries % 2:
            # <g> has the order of g and the cycles of g as its orbits, so
            # g's fingerprint is <g>'s key and a cyclic sample is skipped
            # before its group is built
            if fingerprint(g.images) not in kept:
                H = PermGroup([g], G.degree)
                push(f"cyclic{H.order()}", H)
            continue
        h = G.random_element(rng)
        lengths = tuple(sorted(
            len(o) for o in _point_orbits(G, [g.images.__getitem__, h.images.__getitem__])
        ))
        L = lcm(g.order(), h.order(), *lengths)
        if L == G.order():
            continue
        K = kept.get((L, lengths))
        if K is not None and K.contains_images(g.images) and K.contains_images(h.images):
            continue
        # G itself holds the "whole" key already, so its chain is not finished
        H = proper_subgroup(G, [g, h])
        if H is not None:
            push(f"gen2_{H.order()}", H)
    return out


def theorem_a_sweep(
    families=None, seed: int = 0, min_pairs: int = 500, per_group: int = 14
) -> dict:
    """Run the theorem-A biconditional, the plus-type lemma and the
    odd-multiplicity hypothesis list over sampled (G, H) pairs."""
    families = families or SWEEP_FAMILIES
    reports = []
    pairs = 0
    fam_i = 0
    # cycle family list (fresh subgroup seeds per round) until both the
    # pair quota and one full pass are done
    while fam_i < len(families) or pairs < min_pairs:
        family = families[fam_i % len(families)]
        round_seed = seed + fam_i // len(families)
        fam_i += 1
        ctx = context(family, seed=seed)
        for name, H in sample_subgroups(ctx.group, seed=round_seed, budget=per_group):
            pi, mults = ctx.decompose_perm_character(H)
            reports += [core(ctx, pi, mults, name)
                        for core in (theorem_A, lemma_bob, theorem_4_6, real_coverage)]
            pairs += 1
    failures = [r for r in reports if not r.passed]
    return {
        "pairs": pairs,
        "reports": reports,
        "failures": failures,
    }
