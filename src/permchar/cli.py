"""Command-line front end.

Verbs: table, decompose, fsind, real-classes, verify, reproduce, sweep.
Exit status is the machine contract: 0 when every requested check passes,
1 when a check fails, 2 on a usage or input error (unknown family or
selector, an unreadable or malformed group or table file, a table that
fails validation or matches no classes of the group, a group too large to
enumerate, an option the verb does not read, a `--min-pairs` outside
0..MAX_MIN_PAIRS), and 3 on an internal error
(an AssertionError or any other unexpected exception). All runs are
reproducible for fixed flags (seed defaults to 0).

Each verb's handler returns (JSON payload, text, whether every check
passed); `main` prints one of the two and sets the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import corpus, verify
from .charfun import atlas_string
from .classes import DEFAULT_ENUMERATION_THRESHOLD, EnumerationThresholdError
from .cyclo import render_cyclotomic
from .group import PermGroup
from .tableio import MatchingError, load_table, serialize_table


class SystemExit2(Exception):
    pass


def _context_from_args(args) -> verify.GroupContext:
    if args.group_file and args.family:
        raise SystemExit2("--family and --group-file both select the group: give one")
    cg = None
    if args.group_file:
        name, group = Path(args.group_file).stem, corpus.load_group_file(args.group_file)
    elif args.family:
        cg = corpus.build(args.family)
        name, group = cg.name, cg.group
    else:
        raise SystemExit2("one of --family or --group-file is required")
    table = load_table(args.table_file) if args.table_file else None
    threshold = DEFAULT_ENUMERATION_THRESHOLD if args.threshold is None else args.threshold
    return verify.GroupContext.for_group(
        name, group, seed=args.seed, threshold=threshold, corpus_group=cg, table=table
    )


def _subgroup_from_args(ctx, args) -> PermGroup:
    if not args.subgroup:
        raise SystemExit2("--subgroup is required for this verb")
    return ctx.subgroup(args.subgroup)


def _reports(reports) -> tuple:
    return ([r.to_json() for r in reports], "\n".join(r.render() for r in reports),
            all(r.passed for r in reports))


def _table(args) -> tuple:
    table = _context_from_args(args).table
    payload = {
        "name": table.name,
        "order": table.order,
        "classes": table.n_classes,
        "sizes": list(table.sizes),
        "orders": list(table.orders),
        "power_maps": {str(p): list(m) for p, m in table.power_maps.items()},
        "rows": [
            {"name": table.row_name(i), "indicator": table.fs_indicators()[i],
             "values": [render_cyclotomic(v) for v in row.values]}
            for i, row in enumerate(table.rows)
        ],
    }
    return payload, serialize_table(table).removesuffix("\n"), True


def _decompose(args) -> tuple:
    ctx = _context_from_args(args)
    H = _subgroup_from_args(ctx, args)
    pi, mults = ctx.decompose_perm_character(H)
    rendered = atlas_string(mults, ctx.table)
    return {
        "group": ctx.name,
        "subgroup": args.subgroup,
        "index": ctx.group.order() // H.order(),
        "decomposition": rendered,
        "multiplicities": {ctx.table.row_name(i): m for i, m in enumerate(mults) if m},
    }, rendered, True


def _fsind(args) -> tuple:
    table = _context_from_args(args).table
    rows = [
        {"row": table.row_name(i), "degree": table.degrees[i],
         "indicator": table.fs_indicators()[i]}
        for i in range(len(table.rows))
    ]
    return rows, "\n".join(
        f"{r['row']}: degree {r['degree']} indicator {r['indicator']:+d}" for r in rows
    ), True


def _real_classes(args) -> tuple:
    table = _context_from_args(args).table
    rows = [
        {"class": k, "order": table.orders[k], "size": table.sizes[k]}
        for k in table.real_class_indices()
    ]
    lines = [f"class {r['class']}: element order {r['order']}, size {r['size']}" for r in rows]
    return rows, "\n".join(lines + [f"{len(rows)} real classes of {table.n_classes}"]), True


# The `verify` statements about the whole group, which take no --subgroup.
_WHOLE_GROUP_CHECKS = {
    "theorem-d": lambda ctx, seed: verify.check_theorem_D(ctx, seed=seed),
    "burnside": lambda ctx, seed: verify.check_burnside(ctx),
    "simple-avoidance": lambda ctx, seed: verify.check_simple_sylow_avoidance(ctx, seed=seed),
}

# The `verify` statements about one subgroup H, called as
# check(ctx, H, subgroup_name=...).
_PAIR_CHECKS = {
    "theorem-a": verify.check_theorem_A,
    "theorem-b": verify.check_theorem_B,
    "real-coverage": verify.check_real_coverage,
    "lemma-bob": verify.check_lemma_bob,
    "theorem-46": verify.check_theorem_4_6,
}


def _verify(args) -> tuple:
    statement = args.statement
    if statement == "c3q16":
        # the check builds its own order-48 candidates; it needs no context
        if (args.group_file or args.table_file or args.subgroup is not None
                or args.threshold is not None
                or (args.family is not None and args.family.lower() != "c3q16")):
            raise SystemExit2("verify c3q16 checks its own groups: it takes no --group-file,"
                              " --table-file, --subgroup or --threshold, and no --family but c3q16")
        return _reports([verify.check_c3q16_phenomenon(seed=args.seed)])
    if statement in _WHOLE_GROUP_CHECKS:
        if args.subgroup is not None:
            raise SystemExit2(f"verify {statement} is about the whole group: no --subgroup")
        return _reports([_WHOLE_GROUP_CHECKS[statement](_context_from_args(args), args.seed)])
    ctx = _context_from_args(args)
    H = _subgroup_from_args(ctx, args)
    return _reports([_PAIR_CHECKS[statement](ctx, H, subgroup_name=args.subgroup)])


def _reproduce(args) -> tuple:
    return _reports(verify.reproduce_paper_tables(seed=args.seed))


# The most pairs `sweep --min-pairs` may ask for. 10,000 pairs took 5.9 s at 88 MB
# peak RSS in text mode and 6.9 s at 252 MB with --json (in-process, 2 cores, Python 3.11).
MAX_MIN_PAIRS = 10_000


def _sweep(args) -> tuple:
    if not 0 <= args.min_pairs <= MAX_MIN_PAIRS:
        raise SystemExit2(f"--min-pairs must lie in 0..{MAX_MIN_PAIRS}, not {args.min_pairs}")
    result = verify.theorem_a_sweep(seed=args.seed, min_pairs=args.min_pairs)
    reports = result["reports"] + [
        verify.check_burnside(verify.context(fam, seed=args.seed))
        for fam in ["c3", "c15", "c21", "f7_3", "f13_3"]
    ]
    failed = [r for r in reports if not r.passed]
    summary = {"pairs": result["pairs"], "checks": len(reports), "failures": len(failed)}
    text = "\n".join([r.render() for r in failed] + [
        f"sweep: {summary['pairs']} pairs, {summary['checks']} checks, {len(failed)} failures"
    ])
    if not args.as_json:  # the text needs only the failures and the counts
        return None, text, not failed
    return {"summary": summary, "reports": [r.to_json() for r in reports]}, text, not failed


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The options every verb takes."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-dir", help="override the bundled data directory")
    p.add_argument("--json", action="store_true", dest="as_json")


def _add_common(p: argparse.ArgumentParser, subgroup: bool = False) -> None:
    """The options of the verbs that read one group (and its table)."""
    p.add_argument("--family", help="corpus family name, e.g. s4, d10, agl1_27, m22")
    p.add_argument("--group-file", help="group definition file (degree + cycle lines)")
    if subgroup:
        p.add_argument("--subgroup", help="subgroup selector (family-specific, or sylow2/trivial/whole/pointN)")
    p.add_argument("--table-file", help="use this character-table file instead of computing/bundled")
    p.add_argument("--threshold", type=int,
                   help=f"class-enumeration threshold (default {DEFAULT_ENUMERATION_THRESHOLD})")
    _add_run_options(p)


# The verbs that read one group: (verb, handler, help).
_GROUP_VERBS = [
    ("table", _table, "print the character table"),
    ("decompose", _decompose, "decompose the permutation character on cosets of a subgroup"),
    ("fsind", _fsind, "print degrees and Frobenius-Schur indicators"),
    ("real-classes", _real_classes, "list the real conjugacy classes"),
]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permchar",
        description="exact character theory for finite permutation groups",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    for verb, handler, summary in _GROUP_VERBS:
        p = sub.add_parser(verb, help=summary)
        _add_common(p, subgroup=verb == "decompose")
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", help="run one mechanical theorem check")
    p.add_argument("statement", choices=[*_PAIR_CHECKS, *_WHOLE_GROUP_CHECKS, "c3q16"])
    _add_common(p, subgroup=True)
    p.set_defaults(handler=_verify)

    p = sub.add_parser("reproduce", help="recompute every tabulated decomposition byte-exactly")
    _add_run_options(p)
    p.set_defaults(handler=_reproduce)

    p = sub.add_parser("sweep", help="run the corpus property sweeps")
    _add_run_options(p)
    p.add_argument("--min-pairs", type=int, default=500)
    p.set_defaults(handler=_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.data_dir:
        previous_data_dir = corpus.set_data_dir(args.data_dir)
    try:
        payload, text, passed = args.handler(args)
        print(json.dumps(payload, indent=2) if args.as_json else text)
        return 0 if passed else 1
    except (SystemExit2, OSError, ValueError, MatchingError, EnumerationThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 3
    finally:
        if args.data_dir:
            corpus.set_data_dir(previous_data_dir)


if __name__ == "__main__":
    sys.exit(main())
