#!/usr/bin/env python3
"""Regenerate the bundled M22 and M23 character-table files.

Both tables come from the exact Dixon-Schneider driver over a
`classes.ConjugacyClassSet`. M22 (order 443520) is within the enumeration
threshold, so each of its classes is walked whole. M23 (order 10200960)
is above it, so its classes are discovered by seeded sampling (seed 0),
sized and told apart (the algebraically-conjugate pairs that share a
cycle type included) through the stabilizer of an invariant point set,
and completeness is proven by the class sizes summing to the group
order. Each table must pass the full orthogonality validation before it
is written.

For each file it prints the sha256 it wrote and whether that file is
byte-identical to the one it replaced. When it is not, it also prints
whether the new table `tables_match`es the old one, so a rebuild that only
reorders classes or rows says so.

Run from the repository root:  python3 tools/build_mathieu_tables.py
"""

import hashlib
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from permchar import corpus
from permchar.classes import ConjugacyClassSet, conjugacy_classes
from permchar.dixon import character_table
from permchar.tableio import parse_table, save_table, tables_match

HEADERS = {
    "m22": (
        "generated by tools/build_mathieu_tables.py: exact Dixon-Schneider\n"
        "over fully enumerated classes; validated (orthogonality both ways)"
    ),
    "m23": (
        "generated by tools/build_mathieu_tables.py: exact Dixon-Schneider;\n"
        "classes discovered by seeded sampling (completeness proven by the\n"
        "size sum), conjugate pairs split by retained element sets;\n"
        "validated (orthogonality both ways)"
    ),
}


def peak_rss() -> str:
    """This process's peak resident set size so far (ru_maxrss is in KiB on Linux)."""
    return f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB"


def build(tables_dir, name, class_data):
    print(f"{name.upper()}: classes ...")
    t0 = time.time()
    G = corpus.build(name).group
    C = class_data(G)
    print(f"  {len(C.reps)} classes in {time.time()-t0:.0f}s; {peak_rss()}")
    print(f"  orders {C.orders}")
    print(f"  sizes  {C.sizes}")
    t0 = time.time()
    T = character_table(G, C, name=name)
    print(f"  table computed and validated in {time.time()-t0:.0f}s; {peak_rss()};"
          f" degrees {T.degrees}")
    path = tables_dir / f"{name}.ctbl"
    before = path.read_bytes() if path.exists() else None
    save_table(path, T, header=HEADERS[name])
    after = path.read_bytes()
    verdict = "byte-identical to" if after == before else "DIFFERENT from"
    print(f"  wrote {path.name}: sha256 {hashlib.sha256(after).hexdigest()},"
          f" {verdict} the file it replaced")
    if before is not None and after != before:
        same = tables_match(T, parse_table(before.decode()))
        print(f"  the new table {'matches' if same else 'does NOT match'} the replaced one"
              " up to row and column order")


def main():
    tables_dir = Path(__file__).resolve().parent.parent / "src/permchar/data/tables"
    build(tables_dir, "m22", conjugacy_classes)
    build(tables_dir, "m23", lambda G: ConjugacyClassSet(G, seed=0))


if __name__ == "__main__":
    main()
