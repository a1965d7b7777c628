"""Exact character theory for finite permutation groups.

Core pieces: BSGS permutation groups, exact cyclotomic values,
Dixon-Schneider character tables, permutation-character decomposition,
Frobenius-Schur indicators, a character-table file format with class
matching for groups too large to enumerate, and mechanical checkers for
statements about real constituents of permutation characters.
"""

from .perm import Permutation, parse_permutation, cycle_string
from .group import (
    PermGroup,
    CosetAction,
    centralizer,
    core,
    coset_action,
    is_normal_in,
    is_subgroup,
    normal_closure,
    normalizer,
    o_2prime,
    setwise_stabilizer,
    sylow_2,
    trivial_group,
)
from .classes import ConjugacyClassSet, EnumerationThresholdError, conjugacy_classes
from .cyclo import Cyclotomic, parse_cyclotomic, render_cyclotomic
from .charfun import (
    CharacterTable,
    CharacterTableError,
    ClassFunction,
    atlas_string,
    decompose,
    fs_indicator,
    inner_product,
    perm_character,
)
from .dixon import character_table
from .tableio import (
    ClassMatching,
    MatchingError,
    bundled_table,
    find_representatives,
    load_table,
    parse_table,
    save_table,
    serialize_table,
    tables_match,
)

__all__ = [
    "Permutation", "parse_permutation", "cycle_string",
    "PermGroup", "CosetAction", "centralizer", "core", "coset_action",
    "is_normal_in", "is_subgroup", "normal_closure", "normalizer",
    "o_2prime", "setwise_stabilizer", "sylow_2", "trivial_group",
    "ConjugacyClassSet", "EnumerationThresholdError", "conjugacy_classes",
    "Cyclotomic", "parse_cyclotomic", "render_cyclotomic",
    "CharacterTable", "CharacterTableError", "ClassFunction", "atlas_string",
    "decompose", "fs_indicator", "inner_product", "perm_character",
    "character_table",
    "ClassMatching", "MatchingError", "bundled_table", "find_representatives",
    "load_table", "parse_table", "save_table", "serialize_table", "tables_match",
]
