#!/usr/bin/env python3
"""Regenerate the bundled M22 and M23 character-table files.

M22 (order 443520) is within the enumeration threshold, so its table comes
straight from the exact Dixon-Schneider driver over fully enumerated
classes. M23 (order 10200960) is too large to enumerate, so its class data
is assembled by seeded sampling: cycle types separate all classes except
the algebraically-conjugate pairs, which are told apart by retained
element sets; completeness is proven by the class sizes summing to the
group order, and the resulting table must pass the full orthogonality
validation before it is written.

Run from the repository root:  python3 tools/build_mathieu_tables.py
"""

import sys
import time
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random

from permchar import corpus
from permchar.classes import conjugacy_classes
from permchar.dixon import character_table
from permchar.perm import Permutation, conjugator, cycle_type, order_of_images, power_images
from permchar.tableio import save_table


class _PackedSet:
    """Membership for a sorted buffer of fixed-width byte records."""

    def __init__(self, records, width):
        self.width = width
        self.buf = b"".join(sorted(records))
        self.n = len(self.buf) // width

    def __contains__(self, rec):
        lo, hi = 0, self.n
        w = self.width
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self.buf[mid * w : (mid + 1) * w]
            if probe < rec:
                lo = mid + 1
            elif probe > rec:
                hi = mid
            else:
                return True
        return False


def _orbit_count_and_records(group, start, keep):
    """BFS the conjugation orbit of `start`; return (size, packed records
    or None). Elements are kept as bytes only when `keep` is set."""
    conjugates = [conjugator(g.images) for g in group.generators]
    seen = {bytes(start)}
    queue = [start]
    while queue:
        y = queue.pop()
        for conj in conjugates:
            z = conj(y)
            zb = bytes(z)
            if zb not in seen:
                seen.add(zb)
                queue.append(z)
    if keep:
        return len(seen), _PackedSet(seen, group.degree)
    return len(seen), None


class SampledClassData:
    """Class data for a group too large to enumerate.

    Classes are discovered from seeded random elements and their power
    closures; cycle type is the primary classifier and retained element
    sets split same-type (algebraically conjugate) classes. Construction
    fails unless the discovered sizes sum to the group order. Like
    `ConjugacyClassSet`, it is the class data `dixon.character_table`
    reads: group, reps, sizes, orders and classify.
    """

    def __init__(self, group, seed=0, max_samples=100_000):
        self.group = group
        order = group.order()
        rng = random.Random(seed)
        found = {}  # cycle type -> list of (rep images, size, packed)
        total = 0
        samples = 0

        def try_element(x):
            nonlocal total
            ct = cycle_type(x)
            bucket = found.setdefault(ct, [])
            xb = bytes(x)
            for rep, size, packed in bucket:
                if xb in packed:
                    return
            size, packed = _orbit_count_and_records(group, x, keep=True)
            bucket.append((x, size, packed))
            total += size
            print(f"    class found: type {ct}, size {size}, total {total}/{order}")
            # probe Galois partners right away: they share the cycle type
            # and are reached by coprime powers
            o = order_of_images(x)
            for k in range(2, o):
                if gcd(k, o) == 1:
                    try_element(power_images(x, k))

        while total < order and samples < max_samples:
            g = group.random_element(rng).images
            samples += 1
            o = order_of_images(g)
            for d in sorted(d for d in range(1, o + 1) if o % d == 0):
                try_element(power_images(g, d))
        if total != order:
            raise RuntimeError("class discovery did not converge; raise max_samples")

        flat = []
        for ct, bucket in sorted(found.items()):
            keep_sets = len(bucket) > 1
            for pos, (rep, size, packed) in enumerate(bucket):
                # the last same-type class classifies by elimination, and
                # singleton types by the type alone
                if not keep_sets or pos == len(bucket) - 1:
                    packed = None
                flat.append((order_of_images(rep), size, rep, packed))
        flat.sort(key=lambda t: (t[0], t[1], t[2]))
        self.reps = [Permutation(rep) for (_, _, rep, _) in flat]
        self.sizes = [size for (_, size, _, _) in flat]
        self.orders = [o for (o, _, _, _) in flat]
        self._by_type = {}
        for idx, (_, _, rep, packed) in enumerate(flat):
            self._by_type.setdefault(cycle_type(rep), []).append((idx, packed))
        for lst in self._by_type.values():
            lst.sort(key=lambda t: t[1] is None)  # the set-less class goes last
            if sum(1 for _, packed in lst if packed is None) != 1 and len(lst) > 1:
                raise AssertionError("exactly one class per type may classify by elimination")

    def classify(self, images):
        candidates = self._by_type[cycle_type(images)]
        if len(candidates) == 1:
            return candidates[0][0]
        xb = bytes(images)
        for idx, packed in candidates[:-1]:
            if xb in packed:
                return idx
        # completeness was proven by the size sum, so same-type elements
        # outside every stored set lie in the remaining class
        return candidates[-1][0]


def build_m22(tables_dir):
    print("M22: enumerating classes ...")
    t0 = time.time()
    cg = corpus.build("m22")
    C = conjugacy_classes(cg.group)
    print(f"  {len(C.reps)} classes in {time.time()-t0:.0f}s; sizes {C.sizes}")
    t0 = time.time()
    T = character_table(cg.group, C, name="m22")
    print(f"  table computed and validated in {time.time()-t0:.0f}s; degrees {T.degrees}")
    save_table(
        tables_dir / "m22.ctbl",
        T,
        header=(
            "generated by tools/build_mathieu_tables.py: exact Dixon-Schneider\n"
            "over fully enumerated classes; validated (orthogonality both ways)"
        ),
    )


def build_m23(tables_dir):
    print("M23: discovering classes by seeded sampling ...")
    t0 = time.time()
    cg = corpus.build("m23")
    C = SampledClassData(cg.group, seed=0)
    print(f"  {len(C.reps)} classes in {time.time()-t0:.0f}s")
    print(f"  orders {C.orders}")
    print(f"  sizes  {C.sizes}")
    t0 = time.time()
    T = character_table(cg.group, C, name="m23")
    print(f"  table computed and validated in {time.time()-t0:.0f}s; degrees {T.degrees}")
    save_table(
        tables_dir / "m23.ctbl",
        T,
        header=(
            "generated by tools/build_mathieu_tables.py: exact Dixon-Schneider;\n"
            "classes discovered by seeded sampling (completeness proven by the\n"
            "size sum), conjugate pairs split by retained element sets;\n"
            "validated (orthogonality both ways)"
        ),
    )


def main():
    tables_dir = Path(__file__).resolve().parent.parent / "src/permchar/data/tables"
    build_m22(tables_dir)
    build_m23(tables_dir)


if __name__ == "__main__":
    main()
