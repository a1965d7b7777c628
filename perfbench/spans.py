"""In-memory spans around permchar's public entry points, installed from
the benchmark's own files and only in a traced run.

A span is (name, start, end, parent, op, label), where label names the
pass ("cold" or "warm") it ran in. Spans nest strictly because the
benchmark is single-threaded, so a span's self time is its duration minus
the union of its direct children's intervals.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time
from collections import Counter

# (module, attribute path) of every wrapped entry point. The metric prefix
# is "<module>.<attribute path>"; classes are wrapped at __init__.
ENTRY_POINTS = [
    ("group", "PermGroup"),
    ("group", "core"),
    ("group", "coset_action"),
    ("group", "CosetAction.fixed_cosets"),
    ("group", "sylow_2"),
    ("group", "o_2prime"),
    ("classes", "conjugacy_classes"),
    ("classes", "ConjugacyClassSet.element_class_map"),
    ("cyclo", "parse_cyclotomic"),
    ("cyclo", "render_cyclotomic"),
    ("dixon", "character_table"),
    ("dixon", "class_matrix"),
    ("dixon", "poly_roots_mod"),
    ("dixon", "dixon_prime"),
    ("charfun", "CharacterTable.validate"),
    ("charfun", "inner_product"),
    ("charfun", "decompose"),
    ("charfun", "fs_indicator"),
    ("charfun", "perm_character_values"),
    ("tableio", "parse_table"),
    ("tableio", "serialize_table"),
    ("tableio", "find_representatives"),
    ("corpus", "build"),
    ("corpus", "CorpusGroup.subgroup"),
    ("verify", "context"),
    ("verify", "GroupContext.for_family"),
    ("verify", "sample_subgroups"),
    ("verify", "sylow2_conjugates"),
    ("verify", "check_theorem_A"),
    ("verify", "check_theorem_B"),
    ("verify", "check_theorem_D"),
    ("verify", "check_theorem_4_6"),
    ("verify", "check_lemma_bob"),
    ("verify", "check_real_coverage"),
    ("verify", "check_burnside"),
    ("verify", "reproduce_paper_tables"),
]

# Work counters: name -> (entry point whose return value is read, the
# reading, how readings combine).
COUNTERS = {
    "group.coset_action.degree_sum": ("group.coset_action", lambda r: r.degree, operator.add),
    "classes.elements_enumerated": ("classes.conjugacy_classes", lambda r: sum(r.sizes), operator.add),
    "tableio.samples_used": ("tableio.find_representatives", lambda r: r.samples_used, operator.add),
    "tableio.ambiguity_groups": (
        "tableio.find_representatives", lambda r: len(r.ambiguity_groups), operator.add),
    "dixon.prime_max": ("dixon.dixon_prime", lambda r: r, max),
}


def metric_names() -> list:
    """Every per-layer metric a traced child can record."""
    names = [f"{m}.{p}.{kind}" for m, p in ENTRY_POINTS for kind in ("calls", "self_s")]
    return names + list(COUNTERS)


class Tracer:
    """Collects spans and counters under the label of the pass being run;
    while `label` is None nothing is recorded, so oracle checks outside the
    timed passes leave no spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent, op, label]
        self.counters: dict = {}  # label -> Counter
        self.missing: list = []
        self.primes: list = []  # [label, Dixon prime], one per table built
        self.label = None
        self._stack: list = []
        self._op = None

    def begin(self, name: str, op=None) -> int:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self._op, self.label])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()
        if not self._stack:
            self._op = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.label is None:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        """Work counters read off an entry point's return value."""
        counters = self.counters.setdefault(self.label, Counter())
        for counter, (entry, read, combine) in COUNTERS.items():
            if entry == name:
                counters[counter] = combine(counters[counter], read(result))
        if name == "dixon.dixon_prime":
            self.primes.append([self.label, result])

    def self_times(self) -> list:
        children: dict = {}
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(i)
        out = []
        for i, (_, start, end, *_) in enumerate(self.spans):
            kids = [(self.spans[c][1], self.spans[c][2]) for c in children.get(i, ())]
            out.append((end - start) - covered(start, end, kids))
        return out

    def op_balance(self, op_name: str = "op") -> float:
        """Largest |sum of self times of an op's spans - op duration|."""
        selfs = self.self_times()
        per_op: dict = {}
        for s, (name, start, end, _, op, _) in zip(selfs, self.spans):
            entry = per_op.setdefault(op, [0.0, None])
            entry[0] += s
            if name == op_name:
                entry[1] = end - start
        return max(
            (abs(total - dur) for total, dur in per_op.values() if dur is not None),
            default=0.0,
        )

    def layer_metrics(self, label: str) -> dict:
        """Every metric of metric_names() over pass `label`, except those of
        missing entry points, which are left out rather than read as 0."""
        missing = set(self.missing)
        counters = self.counters.get(label, Counter())
        out = {}
        for mod, path in ENTRY_POINTS:
            if f"{mod}.{path}" not in missing:
                out[f"{mod}.{path}.calls"] = 0
                out[f"{mod}.{path}.self_s"] = 0.0
        for counter, (entry, _, _) in COUNTERS.items():
            if entry not in missing:
                out[counter] = counters[counter]
        for s, span in zip(self.self_times(), self.spans):
            if span[5] == label and f"{span[0]}.calls" in out:
                out[f"{span[0]}.calls"] += 1
                out[f"{span[0]}.self_s"] += s
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "self_s": self.self_times(),
                    "counters": self.counters,
                    "dixon_primes": self.primes,
                    "missing": self.missing,
                },
                fh,
            )


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def install(tracer: Tracer) -> None:
    """Replace every entry point by a recording wrapper, in every permchar
    module namespace that binds it. Entry points that no longer exist are
    noted in `tracer.missing`."""
    modules = [m for n, m in sys.modules.items() if n == "permchar" or n.startswith("permchar.")]
    for mod_name, path in ENTRY_POINTS:
        name = f"{mod_name}.{path}"
        obj = sys.modules.get(f"permchar.{mod_name}")
        *owners, attr = path.split(".")
        for part in owners:
            obj = getattr(obj, part, None)
        if obj is None or not hasattr(obj, attr):
            tracer.missing.append(name)
            continue
        if owners:
            _wrap_method(tracer, name, obj, attr)
            continue
        original = getattr(obj, attr)
        if isinstance(original, type):
            _wrap_method(tracer, name, original, "__init__")
            continue
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _wrap_method(tracer: Tracer, name: str, cls: type, attr: str) -> None:
    raw = cls.__dict__.get(attr, getattr(cls, attr))
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw))
