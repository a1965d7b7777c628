"""The three benchmark workloads: seeded inputs, one timed pass, and the
oracle checks that judge the pass's outputs outside the timed region.

Every workload drives only public permchar functions. Inputs are made from
the seed without building any group; groups, contexts and tables are built
inside the pass, so a cold pass pays for them and a warm pass (the same
pass again in the same process) finds them in the caches.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

# Entry points are looked up on their modules at call time, so that the
# traced run's wrappers see the benchmark's own calls too.
from permchar import classes, corpus, dixon, tableio, verify
from permchar.group import PermGroup
from permchar.perm import Permutation

ORACLES = json.loads((Path(__file__).with_name("oracles.json")).read_text())


@dataclass
class Op:
    key: str
    latency: float
    value: object = None
    error: str | None = None
    probe_at: int = 0  # number of speed samples taken before the op ran


def run_ops(ops, tracer, probe, label: str) -> list:
    """Run (key, thunk) pairs one after another, each timed and, in a
    traced run, inside its own "op" span, with speed probes between them.
    An exception fails that operation only."""
    out = []
    for i, (key, thunk) in enumerate(ops):
        probe.maybe()
        span = tracer.begin("op", op=f"{label}:{i}") if tracer.label is not None else None
        start = time.perf_counter()
        try:
            value, error = thunk(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        out.append(Op(key, latency, value, error, len(probe.samples)))
    return out


def _build(families, seed: int, probe) -> None:
    """Fill the context cache; a failing build shows up again, as a failed
    operation, when an operation asks for that context."""
    for family in families:
        probe.maybe()
        try:
            verify.context(family, seed=seed)
        except Exception:
            pass


# -- sweep --------------------------------------------------------------------------

# verify.SWEEP_FAMILIES without nine groups. In c15, c21, c30, agl1_25,
# agl1_27 and agl1_32, 15 to 32 classes make a cold table cost 0.8 to 15 s:
# their validation is the `tables` workload's subject, and with them a cold
# pass could not repeat within one run. In s6, psl2_11 and psl2_13 a random
# cyclic subgroup has index up to 546 and one pair costs up to 0.7 s, so the
# few such pairs a seed happens to draw dominated the pass and its tail;
# large coset actions are the `mathieu` workload's subject.
SWEEP_FAMILIES = [
    "s3", "s4", "s5",
    "a4", "a5", "a6",
    "d8", "d10", "d12", "d16", "d20", "d24",
    "q8", "q16", "q32",
    "c2", "c3", "c6", "c12",
    "sl23", "c3q16",
    "f7_3", "f13_3", "f11_5",
    "agl1_5", "agl1_7", "agl1_8", "agl1_9", "agl1_11", "agl1_13",
    "psl2_7", "psl3_2",
]
SWEEP_PER_GROUP = 8
# The odd-order groups of `permchar sweep`'s Burnside checks that are in
# SWEEP_FAMILIES, with f11_5 for the two dropped there (c15, c21).
BURNSIDE_FAMILIES = ["c3", "f7_3", "f13_3", "f11_5"]


class Sweep:
    """The work of `permchar sweep`: the four pair checkers over subgroups
    sampled by `verify.sample_subgroups`, then the Burnside checks."""

    name = "sweep"

    def inputs(self, seed: int) -> list:
        return [("pair", family) for family in SWEEP_FAMILIES] + [
            ("burnside", family) for family in BURNSIDE_FAMILIES
        ]

    def run_pass(self, inputs, seed: int, tracer, probe, label: str) -> list:
        _build(SWEEP_FAMILIES, seed, probe)
        return run_ops(self._ops(inputs, seed), tracer, probe, label)

    def _ops(self, inputs, seed):
        for kind, family in inputs:
            if kind == "burnside":
                yield f"burnside/{family}", lambda f=family: self._burnside(f, seed)
                continue
            try:
                ctx = verify.context(family, seed=seed)
                pairs = verify.sample_subgroups(ctx.group, seed=seed, budget=SWEEP_PER_GROUP)
            except Exception as exc:
                yield f"pair/{family}", lambda exc=exc: _reraise(exc)
                continue
            for name, H in pairs:
                yield f"pair/{family}/{name}", lambda c=ctx, H=H, n=name: self._pair(c, H, n, seed)

    @staticmethod
    def _pair(ctx, H, name, seed):
        reports = [
            verify.check_theorem_A(ctx, H, subgroup_name=name),
            verify.check_lemma_bob(ctx, H, subgroup_name=name),
            verify.check_theorem_4_6(ctx, H, subgroup_name=name, seed=seed),
            verify.check_real_coverage(ctx, H, subgroup_name=name),
        ]
        return ctx, H, reports

    @staticmethod
    def _burnside(family, seed):
        ctx = verify.context(family, seed=seed)
        return ctx, None, [verify.check_burnside(ctx)]

    def check(self, op: Op) -> str | None:
        ctx, H, reports = op.value
        bad = [r.statement for r in reports if not r.passed]
        if bad:
            return f"report failed: {bad}"
        if H is None:
            return None
        _, mults = ctx.decompose_perm_character(H)
        if mults[ctx.trivial_row_index()] != 1:
            return "<pi, 1a> != 1"
        index = ctx.group.order() // H.order()
        if sum(m * d for m, d in zip(mults, ctx.table.degrees)) != index:
            return "sum of multiplicity * degree != [G:H]"
        return None

    @staticmethod
    def summary(op: Op):
        return [r.to_json() for r in op.value[2]]


def _reraise(exc):
    raise exc


# -- mathieu ------------------------------------------------------------------------

MATHIEU_FAMILIES = ["m11", "m22", "m23"]
MATHIEU_CHECKERS = ["theorem-A", "theorem-B", "theorem-4.6", "lemma-bob", "real-coverage"]
# The triad pair is reproduced but not checked: each checker recomputes its
# degree-1771 permutation character (1-2 s) and theorem-A's core() takes
# about 24 s, more than one whole run.
MATHIEU_UNCHECKED = {("m23", "triad")}


class Mathieu:
    """The paper's groups from bundled tables and seeded class matching: the
    seven tabulated decompositions, the pair checkers on those pairs, and
    theorem-D on M11."""

    name = "mathieu"

    def inputs(self, seed: int) -> list:
        items = [tuple(item) for item in ORACLES["mathieu"]["paper_table_items"]]
        out = [("reproduce", item) for item in items]
        for family, selector, _, _ in items:
            if (family, selector) not in MATHIEU_UNCHECKED:
                out += [(checker, (family, selector)) for checker in MATHIEU_CHECKERS]
        out.append(("theorem-D", ("m11",)))
        return out

    def run_pass(self, inputs, seed: int, tracer, probe, label: str) -> list:
        _build(MATHIEU_FAMILIES, seed, probe)
        ops = [(f"{kind}/{'/'.join(map(str, arg[:2]))}", self._thunk(kind, arg, seed))
               for kind, arg in inputs]
        return run_ops(ops, tracer, probe, label)

    @staticmethod
    def _thunk(kind, arg, seed):
        if kind == "reproduce":
            return lambda: verify.reproduce_paper_tables(seed=seed, items=[arg])[0]
        if kind == "theorem-D":
            return lambda: verify.check_theorem_D(verify.context(arg[0], seed=seed), seed=seed)
        family, selector = arg

        def pair():
            ctx = verify.context(family, seed=seed)
            H = ctx.subgroup(selector)
            if kind == "theorem-A":
                return verify.check_theorem_A(ctx, H, subgroup_name=selector)
            if kind == "theorem-B":
                return verify.check_theorem_B(ctx, H, subgroup_name=selector, seed=seed)
            if kind == "theorem-4.6":
                return verify.check_theorem_4_6(ctx, H, subgroup_name=selector, seed=seed)
            if kind == "lemma-bob":
                return verify.check_lemma_bob(ctx, H, subgroup_name=selector)
            return verify.check_real_coverage(ctx, H, subgroup_name=selector)

        return pair

    def check(self, op: Op) -> str | None:
        report = op.value
        if not report.passed:
            return "report failed"
        kind = op.key.split("/")[0]
        if kind == "reproduce":
            pinned = {(f, s): (i, a) for f, s, i, a in ORACLES["mathieu"]["paper_table_items"]}
            expect = pinned[(report.group, report.subgroup)]
            got = (report.conclusion["index"], report.conclusion["decomposition"])
            if got != tuple(expect):
                return f"reproduction {got} != {expect}"
        if kind == "theorem-D":
            expect = ORACLES["mathieu"]["theorem_D"][report.group]
            if report.conclusion != expect:
                return f"theorem-D conclusion {report.conclusion} != {expect}"
        return None

    @staticmethod
    def summary(op: Op):
        return op.value.to_json()


# -- tables -------------------------------------------------------------------------

# One group of each cost kind, sized so that a cold pass repeats several
# times within a run: c12 and agl1_13 (validation is most of their time),
# psl2_23 (exponent 3036: a large Dixon prime and a long eigenvalue lift),
# m11 (class matrices dominate). The small groups give the pass enough
# operations for a tail latency.
TABLE_GROUPS = [
    "c12", "agl1_13", "psl2_23", "m11",
    "s3", "s4", "s5", "s6", "a4", "a5", "a6", "a7",
    "d8", "d10", "d12", "q8", "q16", "q32",
    "sl23", "c3q16", "f7_3", "f13_3", "f11_5",
    "agl1_8", "agl1_9", "psl2_7", "psl2_11", "psl3_2",
]
BUNDLED_TABLES = {"s3", "s4", "a5", "d10", "q8", "sl23", "psl3_2", "m11"}


def relabel(G: PermGroup, seed: int) -> PermGroup:
    """G with its points renamed by a seeded permutation s: each generator g
    becomes s^-1 g s."""
    n = G.degree
    s = list(range(n))
    random.Random(seed).shuffle(s)
    gens = []
    for g in G.generators:
        images = [0] * n
        for i in range(n):
            images[s[i]] = s[g.images[i]]
        gens.append(Permutation(images))
    return PermGroup(gens, n)


class Tables:
    """Character tables from scratch: Dixon-Schneider on a seeded relabelling
    of each group, then a serialize/parse round trip."""

    name = "tables"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [(family, rng.getrandbits(32)) for family in TABLE_GROUPS]

    def run_pass(self, inputs, seed: int, tracer, probe, label: str) -> list:
        ops = [(family, lambda f=family, s=s: self._table(f, s)) for family, s in inputs]
        return run_ops(ops, tracer, probe, label)

    @staticmethod
    def _table(family, seed):
        G = relabel(corpus.build(family).group, seed)
        table = dixon.character_table(G, classes.conjugacy_classes(G), name=family)
        text = tableio.serialize_table(table)
        return table, tableio.parse_table(text), text

    def check(self, op: Op) -> str | None:
        table, parsed, _ = op.value
        expect = ORACLES["tables"][op.key]
        got = sorted([int(d), ind] for d, ind in zip(table.degrees, table.fs_indicators()))
        if table.n_classes != expect["classes"] or got != expect["degree_indicator"]:
            return "class count or (degree, indicator) multiset differs from the pinned one"
        if op.key in BUNDLED_TABLES and not tableio.tables_match(table, tableio.bundled_table(op.key)):
            return "table does not match the bundled table"
        if not tableio.tables_match(table, parsed):
            return "round-trip table does not match the built one"
        return None

    @staticmethod
    def summary(op: Op):
        return op.value[2]


WORKLOADS = {w.name: w for w in (Sweep(), Mathieu(), Tables())}
