"""Helpers that only the tests use: the theorem-D families, class
functions, a group-file writer, conjugation of Permutations and a second
resolution of a matching's ambiguity groups."""

from fractions import Fraction
from pathlib import Path

from permchar.charfun import CharacterTable, ClassFunction
from permchar.group import PermGroup
from permchar.perm import Permutation, conj_images, cycle_string


# the groups on which the tests check theorem D and its Sylow 2-subgroup counts
THEOREM_D_FAMILIES = ["c6", "s4", "a5", "psl3_2", "agl1_27", "q8", "sl23",
                      "d10", "q16", "a4", "c3q16", "f7_3", "f13_3", "a4c4"]


def regular_character(table: CharacterTable) -> ClassFunction:
    """|G| at the identity, zero elsewhere."""
    vals = [Fraction(0)] * table.n_classes
    vals[0] = Fraction(table.order)
    return ClassFunction(vals)


def trivial_character(table: CharacterTable) -> ClassFunction:
    return ClassFunction([Fraction(1)] * table.n_classes)


def save_group_file(path, G: PermGroup, name: str, comment: str = "") -> None:
    """Write G in the format `corpus.load_group_file` reads."""
    lines = [f"# name: {name}", f"# order: {G.order()}"]
    if comment:
        lines += [f"# {c}" for c in comment.splitlines()]
    lines.append(f"degree {G.degree}")
    lines += [cycle_string(g) for g in G.generators]
    Path(path).write_text("\n".join(lines) + "\n")


def conjugate_by(p: Permutation, q: Permutation) -> Permutation:
    """q^-1 * p * q."""
    return Permutation(conj_images(p.images, q.images))


def alternate_reps(matching) -> list:
    """A second full representative set of a `ClassMatching`, with every
    ambiguity group's reps rotated one place (a swap for a pair), for
    harmlessness checks."""
    out = list(matching.reps)
    for grp in matching.ambiguity_groups:
        for a, b in zip(grp, grp[1:] + grp[:1]):
            out[b] = matching.reps[a]
    return out
