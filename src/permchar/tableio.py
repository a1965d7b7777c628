"""Character-table files, and matching table columns to group classes.

The file grammar is line-oriented ASCII: `name`, `order`, `classes k`,
then `sizes`, `orders`, one `power p ...` line per stored prime (class
indices are 0-based), then k `chi ...` rows whose entries use the
cyclotomic rendering grammar. Every table is validated on load, with no
way to skip it: the class data before any value is parsed, then every
table invariant (`CharacterTable.validate`).

For groups too large to enumerate classes, `find_representatives` matches
table columns to sampled group elements by invariant fingerprints (element
order and cycle type in the group's own action), drawing `SAMPLE_ROUND`
elements into a `classes.ConjugacyClassSet` bucket store between attempts
and propagating reps through the table's power maps and Galois conjugation.
Ambiguity groups are of two kinds. Columns that share a bucket key were
Galois conjugate on every matching checked (about 50 groups), so no
rational class function sees which is which. Columns where two
power-consistent assignments differ have keys of their own; swapping
their reps can change a rational class function (the natural character
of d8 or s6). The matching keeps its bucket store and classifies
elements by their bucket key, which is exact up to the shared keys.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from math import gcd, lcm
from pathlib import Path

from .charfun import CharacterTable, ClassFunction, check_class_data, decompose
from . import classes
from .cyclo import parse_cyclotomic, render_cyclotomic
from .dixon import is_prime
from .group import PermGroup
from .perm import Permutation, power_images


class TableSyntaxError(ValueError):
    """Malformed table file; message carries the line number."""


def parse_table(text: str) -> CharacterTable:
    name = None
    order = None
    k = None
    sizes = None
    orders = None
    power_maps = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        try:
            if key == "name":
                name = fields[1] if len(fields) > 1 else ""
            elif key == "order":
                order = _integer(fields[1])
            elif key == "classes":
                k = _integer(fields[1])
            elif key == "sizes":
                sizes = [_integer(x) for x in fields[1:]]
            elif key == "orders":
                orders = [_integer(x) for x in fields[1:]]
            elif key == "power":
                p = _integer(fields[1])
                if not is_prime(p):
                    raise TableSyntaxError(f"line {lineno}: power map key {p} is not a prime")
                power_maps[p] = tuple(_integer(x) for x in fields[2:])
            elif key == "chi":
                rows.append((lineno, fields[1:]))
            else:
                raise TableSyntaxError(f"line {lineno}: unknown directive {key!r}")
        except TableSyntaxError:
            raise
        except (ValueError, IndexError) as exc:
            raise TableSyntaxError(f"line {lineno}: {exc}") from None
    for what, val in [("name", name), ("order", order), ("classes", k),
                      ("sizes", sizes), ("orders", orders)]:
        if val is None:
            raise TableSyntaxError(f"missing {what} line")
    if len(sizes) != k or len(orders) != k:
        raise TableSyntaxError("sizes/orders length differs from declared class count")
    if len(rows) != k:
        raise TableSyntaxError(f"expected {k} chi rows, found {len(rows)}")
    for p, pm in power_maps.items():
        if len(pm) != k or any(not 0 <= x < k for x in pm):
            raise TableSyntaxError(f"power map {p} is not a map on 0..{k-1}")
    # before any value is parsed: the conductor bound on the rows trusts the orders
    check_class_data(order, sizes, orders, power_maps)
    table = CharacterTable(name, order, sizes, orders, power_maps, _parse_rows(rows, orders))
    table.validate()
    return table


def _integer(field: str) -> int:
    """An integer field of the header: ASCII digits with an optional
    leading `-`. int() alone would also read `+`, `_` separators and
    non-ASCII digits."""
    digits = field[1:] if field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {field!r}")
    return int(field)


# what parse_cyclotomic reads as n in E(n): everything up to the first ")"
_ROOT_OF_UNITY = re.compile(r"E\(([^)]*)\)")


def _parse_rows(rows, orders) -> list:
    """Parse the `chi` entries. Every value of a character lies in
    Q(zeta_e) for the exponent e = lcm(orders), so a row with an E(n), n
    not dividing 2e, is rejected before it is parsed. `parse_cyclotomic`
    also bounds every conductor by `cyclo.MAX_CONDUCTOR`. Each distinct
    entry is checked and parsed once, and its `Cyclotomic` (immutable) is
    shared by every place it occurs."""
    bound = 2 * lcm(*(o for o in orders if o > 0))
    values: dict = {}  # entry text -> Cyclotomic
    out = []
    for lineno, tokens in rows:
        try:
            new = [tok for tok in dict.fromkeys(tokens) if tok not in values]
            for n in (int(n) for tok in new for n in _ROOT_OF_UNITY.findall(tok)):
                if n < 1 or bound % n:
                    raise ValueError(f"E({n}): {n} does not divide 2*lcm(orders) = {bound}")
            for tok in new:
                values[tok] = parse_cyclotomic(tok)
            out.append([values[tok] for tok in tokens])
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise TableSyntaxError(f"line {lineno}: {exc}") from None
    return out


def serialize_table(table: CharacterTable) -> str:
    out = [
        f"name {table.name}",
        f"order {table.order}",
        f"classes {table.n_classes}",
        "sizes " + " ".join(str(s) for s in table.sizes),
        "orders " + " ".join(str(o) for o in table.orders),
    ]
    for p in sorted(table.power_maps):
        out.append(f"power {p} " + " ".join(str(x) for x in table.power_maps[p]))
    for row in table.rows:
        out.append("chi " + " ".join(render_cyclotomic(v) for v in row.values))
    return "\n".join(out) + "\n"


def load_table(path) -> CharacterTable:
    return parse_table(Path(path).read_text())


def save_table(path, table: CharacterTable, header: str = "") -> None:
    text = serialize_table(table)
    if header:
        text = "".join(f"# {line}\n" for line in header.splitlines()) + text
    Path(path).write_text(text)


def bundled_table(name: str) -> CharacterTable:
    from .corpus import data_dir

    return load_table(data_dir() / "tables" / f"{name}.ctbl")


def tables_match(A: CharacterTable, B: CharacterTable) -> bool:
    """Exact equality up to a row and column permutation that keeps the
    sizes, the orders and every shared power map.

    A row only matches a row with the same multiset of (size, order,
    value), so the tables must have equal multisets of these row kinds.
    A's rows are matched in order to unused rows of B. Each column's cell
    (its size, order and values on the rows matched so far, interned as a
    small int) refines with every match, and then by the cells of its
    p-th power columns for every shared prime p until that splits no cell.
    A branch is cut as soon as A's cells differ from B's as multisets.
    Both sides are interned in one table, so the refinement is the same
    function of the cells on both sides. Columns of a character table
    are distinct, so once the cells are all distinct they force the column
    bijection: the match holds when it commutes with the shared power maps
    and carries A's rows onto B's as a multiset. A table with two equal
    columns (built without `validate`) raises ValueError.
    """
    k = A.n_classes
    if A.order != B.order or k != B.n_classes:
        return False
    value_ids: dict = {}
    cell_ids: dict = {}  # (cell, value id) -> cell

    def matrix(T) -> list:
        M = [[value_ids.setdefault(v, len(value_ids)) for v in row.values] for row in T.rows]
        if len(set(zip(T.sizes, T.orders, *M))) < k:
            raise ValueError(f"table {T.name!r} has two equal columns, so its rows"
                             " force no column bijection: validate it first")
        return M

    def refine(cells, row) -> list:
        return [cell_ids.setdefault(pair, len(cell_ids)) for pair in zip(cells, row)]

    primes = sorted(set(A.power_maps) & set(B.power_maps))
    maps_a = [A.power_maps[p] for p in primes]
    maps_b = [B.power_maps[p] for p in primes]

    def split(cells, maps) -> list:
        # a tuple of power cells never equals a value id, so these keys
        # stay apart from the row refinement's (cell, value id) pairs
        while maps:
            finer = refine(cells, zip(*([cells[x] for x in m] for m in maps)))
            if len(set(finer)) == len(set(cells)):
                break
            cells = finer
        return cells

    MA, MB = matrix(A), matrix(B)
    start_a, start_b = refine(A.sizes, A.orders), refine(B.sizes, B.orders)
    # each row's kind, its multiset of (size, order, value)
    kind_a = [Counter(zip(start_a, row)) for row in MA]
    kind_b = [Counter(zip(start_b, row)) for row in MB]
    if Counter(frozenset(c.items()) for c in kind_a) != Counter(
            frozenset(c.items()) for c in kind_b):
        return False
    rows_a = Counter(map(tuple, MA))
    used = [False] * k

    def search(i: int, cells_a: list, cells_b: list) -> bool:
        if Counter(cells_a) != Counter(cells_b):
            return False
        if len(set(cells_b)) == k:
            where = {cell: c for c, cell in enumerate(cells_b)}
            sigma = [where[cell] for cell in cells_a]
            return all(
                sigma[ma[a]] == mb[sigma[a]] for ma, mb in zip(maps_a, maps_b) for a in range(k)
            ) and rows_a == Counter(tuple(row[c] for c in sigma) for row in MB)
        cells_a = split(refine(cells_a, MA[i]), maps_a)
        for j, row in enumerate(MB):
            if not used[j] and kind_b[j] == kind_a[i]:
                used[j] = True
                if search(i + 1, cells_a, split(refine(cells_b, row), maps_b)):
                    return True
                used[j] = False
        return False

    return search(0, split(start_a, maps_a), split(start_b, maps_b))


# -- matching table columns to group classes --------------------------------------


# elements sampled between two attempts at a consistent matching
SAMPLE_ROUND = 200


class MatchingError(RuntimeError):
    pass


class ClassMatching:
    """Class data of a live group matched to its table: group, reps,
    sizes and orders (the table's), and classify.

    `ambiguity_groups` are tuples of column indices of two kinds (see
    the module docstring): columns that share a bucket key, Galois
    conjugate on every matching checked, and columns where two
    power-consistent assignments differ, which have keys of their own and
    on which a rational class function need not be constant. `reps[c]`
    lies in the class of column c for the assignment the matching chose.
    `classify` maps an element to the first column assigned its bucket
    key (`classes.ConjugacyClassSet.add`), so it is exact only up to the
    columns that share a key. Where the key holds a class size, the element
    is moved onto a base invariant point set and looked up in a class of that
    set's stabilizer, not in a walked class of G. Every other key is fixed
    by the element's fingerprint alone, so its column is memoized by
    fingerprint: such an element costs one walk of its cycles and one dict
    probe. A matching has no element map, so class fusion
    (`charfun.perm_character_by_fusion`) calls `classify` once per
    conjugacy class of H, not once per element.
    """

    def __init__(self, table: CharacterTable, group: PermGroup, reps: list,
                 ambiguity_groups: list, samples_used: int,
                 sampled: classes.ConjugacyClassSet, columns: dict):
        self.table = table
        self.group = group
        self.reps = reps
        self.ambiguity_groups = ambiguity_groups
        self.samples_used = samples_used
        self.sampled = sampled
        self.columns = columns  # bucket key -> first column assigned it
        # fingerprint -> column, for the fingerprints whose key holds no size
        self._memo: dict = {}

    sizes = property(lambda self: self.table.sizes)
    orders = property(lambda self: self.table.orders)

    def element_class_map(self) -> None:
        """None: a matching has no element map (see
        `classes.ConjugacyClassSet.element_class_map`)."""
        return None

    def classify(self, images: tuple) -> int:
        """The column of an element (image tuple) of the group, up to the
        columns that share a bucket key."""
        fp = classes.fingerprint(images)
        column = self._memo.get(fp)
        if column is None:
            key = self.sampled.add(images, fp)
            column = self.columns.get(key)
            if column is None:
                raise MatchingError(f"no column was assigned the class key {key}")
            if key[1] is None:
                self._memo[fp] = column
        return column


def find_representatives(
    G: PermGroup,
    table: CharacterTable,
    seed: int = 0,
    budget: int | None = None,
) -> ClassMatching:
    """Sample seeded-uniform elements of G until every table column has a
    consistent representative.

    Fingerprints are (element order, cycle type) in G's own permutation
    action, refined by the exact class size where the table demands it
    (`ConjugacyClassSet` sizes a class through a point-set stabilizer).
    Power harvesting (all powers of each sample) reaches small classes
    quickly. The assignment search is deterministic. The ambiguity groups
    are the columns that share a bucket key, and the columns where two
    power-consistent assignments differ.
    """
    if G.order() != table.order:
        raise MatchingError(
            f"group order {G.order()} differs from table order {table.order}"
        )
    k = table.n_classes
    if budget is None:
        budget = 10_000 * k
    rng = random.Random(seed)
    sampled = classes.ConjugacyClassSet(G, table)
    used = 0
    last_error = "no sampling performed"
    while True:
        round_size = min(SAMPLE_ROUND, budget - used)
        sampled.sample(rng, round_size)
        used += round_size
        try:
            return _assign(G, table, sampled, used)
        except MatchingError as exc:
            last_error = str(exc)
            if used >= budget:
                raise MatchingError(
                    f"no consistent matching within the sampling budget ({used} samples): "
                    f"{last_error}"
                ) from None


def _assign(
    G: PermGroup, table: CharacterTable, sampled: classes.ConjugacyClassSet, used: int
) -> ClassMatching:
    k = table.n_classes
    primes = sorted(table.power_maps)
    buckets = sampled.buckets

    # the key of each bucket's p-th power. `sample` adds g^d for every d
    # dividing o(g), and (g^d)^p is a coprime power of g^gcd(dp, o(g)), with
    # its cycle type and class size: its key is a bucket already
    power_bucket: dict = {}
    for key, images in list(buckets.items()):
        for p in primes:
            h = power_images(images, p)
            power_bucket[(key, p)] = sampled.add(h, classes.fingerprint(h))

    by_order: dict = {}
    for key in buckets:
        by_order.setdefault(key[0][0], []).append(key)
    for keys in by_order.values():
        keys.sort()
    for c in range(k):
        if table.orders[c] not in by_order:
            raise MatchingError(f"no element of order {table.orders[c]} sampled yet")

    # deterministic backtracking: columns in index order, domains sorted;
    # the table's power maps must commute with bucket powers and probed
    # sizes must agree
    assignment: dict = {}
    solutions: list = []

    def consistent(c: int, key: tuple) -> bool:
        fp, size = key
        if table.orders[c] != fp[0]:
            return False
        if size is not None and size != table.sizes[c]:
            return False
        for p in primes:
            tgt = table.power_maps[p][c]
            key2 = power_bucket[(key, p)]
            if key2[0][0] != table.orders[tgt]:
                return False
            if tgt in assignment and assignment[tgt] != key2:
                return False
        return True

    def extend(c: int):
        if len(solutions) > 64:
            return
        if c == k:
            solutions.append(dict(assignment))
            return
        for key in by_order[table.orders[c]]:
            if consistent(c, key):
                assignment[c] = key
                extend(c + 1)
                del assignment[c]

    extend(0)
    # every sampled bucket is a genuine class, so a correct assignment uses
    # them all; drop solutions that leave buckets unexplained
    full = [s for s in solutions if set(s.values()) == set(buckets)]
    if not full:
        if solutions:
            raise MatchingError(
                "assignments exist but leave sampled fingerprints unused "
                "(some class is not yet distinguishable)"
            )
        raise MatchingError("no fingerprint assignment satisfies the power maps")

    # the first full solution whose reps the natural character accepts;
    # if none does, the first solution's error
    first_error = None
    for chosen in full:
        try:
            reps = _derive_reps(G, table, buckets, chosen)
            ambiguity = _ambiguity_groups(table, chosen, full)
            columns = {chosen[c]: c for c in reversed(range(k))}  # the first column per key
            matching = ClassMatching(table, G, reps, ambiguity, used, sampled, columns)
            _validate_matching(G, matching)
            return matching
        except MatchingError as exc:
            first_error = first_error or exc
    raise first_error


def _derive_reps(G, table, buckets, assignment) -> list:
    """One element per column; columns sharing a bucket take successive
    power-map images so conjugate partners get distinct, consistent reps.
    Where the power maps stall, a column takes a Galois conjugate of a
    reached rep (`_galois_conjugate_rep`) and propagation goes on."""
    k = table.n_classes
    primes = sorted(table.power_maps)
    reps: list = [None] * k
    shared: dict = {}
    for c in range(k):
        shared.setdefault(assignment[c], []).append(c)
    for fp, cols in shared.items():
        reps[cols[0]] = buckets[fp]
    while True:
        progress = False
        for c in range(k):
            if reps[c] is None:
                continue
            for p in primes:
                tgt = table.power_maps[p][c]
                if reps[tgt] is None:
                    reps[tgt] = power_images(reps[c], p)
                    progress = True
        if progress:
            continue
        missing = [c for c in range(k) if reps[c] is None]
        if not missing:
            return [Permutation(r) for r in reps]
        conjugate = _galois_conjugate_rep(table, reps, missing)
        if conjugate is None:
            raise MatchingError(
                f"columns {missing} unreachable through power maps or Galois "
                "conjugation from sampled reps"
            )
        c, x = conjugate
        reps[c] = x


def _galois_conjugate_rep(table, reps, missing):
    """(c, x^e) for a missing column c and the rep x of a column c0 of the
    same order o, gcd(e, o) = 1, where sigma_e maps c0's values onto c's:
    chi(x^e) = sigma_e(chi(x)), and a column names its class. None if none."""
    for c in missing:
        o = table.orders[c]
        for c0, x in enumerate(reps):
            if x is None or table.orders[c0] != o:
                continue
            for e in range(2, o):
                if gcd(e, o) == 1 and all(
                    row.values[c] == row.values[c0].galois(e) for row in table.rows
                ):
                    return c, power_images(x, e)
    return None


def _ambiguity_groups(table, chosen, solutions) -> list:
    k = table.n_classes
    shared: dict = {}
    for c in range(k):
        shared.setdefault(chosen[c], []).append(c)
    groups = [tuple(cols) for cols in shared.values() if len(cols) > 1]
    # columns whose bucket differs between surviving solutions are ambiguous
    # at the bucket level too
    for c in range(k):
        fps = {tuple(sol[c]) for sol in solutions}
        if len(fps) > 1 and not any(c in g for g in groups):
            partners = tuple(
                sorted(
                    c2
                    for c2 in range(k)
                    if {tuple(sol[c2]) for sol in solutions} == fps
                )
            )
            if partners not in groups:
                groups.append(partners)
    return sorted(groups)


def _validate_matching(G: PermGroup, matching: ClassMatching) -> None:
    table = matching.table
    for c, r in enumerate(matching.reps):
        if r.order() != table.orders[c]:
            raise MatchingError(f"rep for column {c} has wrong order")
    # the natural permutation character must decompose integrally
    pi = ClassFunction([r.fixed_points() for r in matching.reps])
    try:
        decompose(pi, table)
    except ValueError as exc:
        raise MatchingError(f"natural permutation character rejects matching: {exc}") from None
