"""Command-line front end.

Verbs: table, decompose, fsind, real-classes, verify, reproduce, sweep.
Exit status is the machine contract: 0 when every requested check passes,
1 when a check fails, 2 on a usage or input error (unknown family or
selector, an unreadable or malformed group or table file, a table that
fails validation or matches no classes of the group, a group too large to
enumerate, an option the verb does not read), and 3 on an internal error
(an AssertionError or any other unexpected exception). All runs are
reproducible for fixed flags (seed defaults to 0).
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permchar",
        description="exact character theory for finite permutation groups",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("table", help="print the character table")
    _add_common(p)

    p = sub.add_parser("decompose", help="decompose the permutation character on cosets of a subgroup")
    _add_common(p, subgroup=True)

    p = sub.add_parser("fsind", help="print degrees and Frobenius-Schur indicators")
    _add_common(p)

    p = sub.add_parser("real-classes", help="list the real conjugacy classes")
    _add_common(p)

    p = sub.add_parser("verify", help="run one mechanical theorem check")
    p.add_argument("statement", choices=[
        "theorem-a", "theorem-b", "theorem-d", "real-coverage",
        "lemma-bob", "theorem-46", "burnside", "c3q16", "simple-avoidance",
    ])
    _add_common(p, subgroup=True)

    p = sub.add_parser("reproduce", help="recompute every tabulated decomposition byte-exactly")
    _add_run_options(p)

    p = sub.add_parser("sweep", help="run the corpus property sweeps")
    _add_run_options(p)
    p.add_argument("--min-pairs", type=int, default=500)

    return ap


def _context_from_args(args) -> verify.GroupContext:
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


class SystemExit2(Exception):
    pass


# The `verify` statements about the whole group, which take no --subgroup;
# c3q16, which also takes no group, is handled in `_dispatch`.
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


def _subgroup_from_args(ctx, args) -> PermGroup:
    if not getattr(args, "subgroup", None):
        raise SystemExit2("--subgroup is required for this verb")
    return ctx.subgroup(args.subgroup)


def _emit_reports(reports, as_json: bool) -> int:
    if as_json:
        print(verify.reports_to_json(reports))
    else:
        for r in reports:
            print(r.render())
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.data_dir:
        previous_data_dir = corpus.set_data_dir(args.data_dir)
    try:
        return _dispatch(args)
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


def _dispatch(args) -> int:
    verb = args.verb

    if verb == "reproduce":
        return _emit_reports(verify.reproduce_paper_tables(seed=args.seed), args.as_json)

    if verb == "sweep":
        result = verify.theorem_a_sweep(seed=args.seed, min_pairs=args.min_pairs)
        burnside_reports = []
        for fam in ["c3", "c15", "c21", "f7_3", "f13_3"]:
            burnside_reports.append(verify.check_burnside(verify.context(fam, seed=args.seed)))
        reports = result["reports"] + burnside_reports
        summary = {
            "pairs": result["pairs"],
            "checks": len(reports),
            "failures": len([r for r in reports if not r.passed]),
        }
        if args.as_json:
            print(json.dumps({"summary": summary, "reports": [r.to_json() for r in reports]}, indent=2))
        else:
            for r in reports:
                if not r.passed:
                    print(r.render())
            print(f"sweep: {summary['pairs']} pairs, {summary['checks']} checks, "
                  f"{summary['failures']} failures")
        return 0 if summary["failures"] == 0 else 1

    if verb == "verify":
        if args.statement == "c3q16":
            # the check builds its own order-48 candidates; it needs no context
            if (args.group_file or args.table_file or args.subgroup is not None
                    or args.threshold is not None or args.family not in (None, "c3q16")):
                raise SystemExit2("verify c3q16 checks its own groups: it takes no --group-file,"
                                  " --table-file, --subgroup or --threshold, and no --family but c3q16")
            return _emit_reports([verify.check_c3q16_phenomenon(seed=args.seed)], args.as_json)
        if args.subgroup is not None and args.statement in _WHOLE_GROUP_CHECKS:
            raise SystemExit2(f"verify {args.statement} is about the whole group: no --subgroup")

    ctx = _context_from_args(args)

    if verb == "table":
        if args.as_json:
            print(json.dumps(_table_json(ctx.table), indent=2))
        else:
            print(serialize_table(ctx.table), end="")
        return 0

    if verb == "fsind":
        table = ctx.table
        rows = [
            {"row": table.row_name(i), "degree": table.degrees[i],
             "indicator": table.fs_indicators()[i]}
            for i in range(len(table.rows))
        ]
        if args.as_json:
            print(json.dumps(rows, indent=2))
        else:
            for r in rows:
                print(f"{r['row']}: degree {r['degree']} indicator {r['indicator']:+d}")
        return 0

    if verb == "real-classes":
        table = ctx.table
        real = table.real_class_indices()
        payload = [
            {"class": k, "order": table.orders[k], "size": table.sizes[k]}
            for k in real
        ]
        if args.as_json:
            print(json.dumps(payload, indent=2))
        else:
            for row in payload:
                print(f"class {row['class']}: element order {row['order']}, size {row['size']}")
            print(f"{len(real)} real classes of {table.n_classes}")
        return 0

    if verb == "decompose":
        H = _subgroup_from_args(ctx, args)
        pi, mults = ctx.decompose_perm_character(H)
        rendered = atlas_string(mults, ctx.table)
        if args.as_json:
            print(json.dumps({
                "group": ctx.name,
                "subgroup": args.subgroup,
                "index": ctx.group.order() // H.order(),
                "decomposition": rendered,
                "multiplicities": {
                    ctx.table.row_name(i): m for i, m in enumerate(mults) if m
                },
            }, indent=2))
        else:
            print(rendered)
        return 0

    if verb == "verify":
        return _emit_reports([_run_verify(ctx, args)], args.as_json)

    raise SystemExit2(f"unknown verb {verb!r}")


def _run_verify(ctx, args) -> verify.VerificationReport:
    if args.statement in _WHOLE_GROUP_CHECKS:
        return _WHOLE_GROUP_CHECKS[args.statement](ctx, args.seed)
    H = _subgroup_from_args(ctx, args)
    return _PAIR_CHECKS[args.statement](ctx, H, subgroup_name=args.subgroup)


def _table_json(table) -> dict:
    return {
        "name": table.name,
        "order": table.order,
        "classes": table.n_classes,
        "sizes": list(table.sizes),
        "orders": list(table.orders),
        "power_maps": {str(p): list(m) for p, m in table.power_maps.items()},
        "rows": [
            {
                "name": table.row_name(i),
                "indicator": table.fs_indicators()[i],
                "values": [render_cyclotomic(v) for v in row.values],
            }
            for i, row in enumerate(table.rows)
        ],
    }


if __name__ == "__main__":
    sys.exit(main())
