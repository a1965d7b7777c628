"""Helpers that only the tests use: the theorem-D families, class
functions, a group-file writer, conjugation of Permutations, an unguarded
fixed-coset count, a second resolution of a matching's ambiguity groups,
a reference class enumeration, a per-element class fusion, a reference
Schreier-Sims, a reference subgroup sampler and the frozenset orbit walks
of the normalizer, centralizer and setwise stabilizer."""

import random
from fractions import Fraction
from pathlib import Path

from permchar.charfun import CharacterTable, ClassFunction
from permchar.classes import conjugation_orbit, fingerprint
from permchar.group import (
    _FULL_TRANSVERSAL_MAX_DEGREE,
    PermGroup,
    _point_orbits,
    _sylow_2_in,
    conjugators,
    on_sets,
    orbit_stabilizer,
    point_maps,
    proper_subgroup,
)
from permchar.perm import (
    Permutation,
    cycle_string,
    identity_images,
    inv_images,
    mul_images,
    order_of_images,
)


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


def conj_images(p: tuple, q: tuple) -> tuple:
    """q^-1 * p * q on image tuples."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[q[i]] = q[j]
    return tuple(out)


def conjugate_by(p: Permutation, q: Permutation) -> Permutation:
    """q^-1 * p * q."""
    return Permutation(conj_images(p.images, q.images))


def unguarded_fixed_cosets(action, p: Permutation) -> int:
    """`CosetAction.fixed_cosets` without its orbit guard: every coset's
    reps[i] * p * reps[i]^-1 is formed and sifted through H."""
    g = p.images
    return sum(
        1
        for x in action.reps
        if action.H.contains_images(mul_images(mul_images(x, g), inv_images(x)))
    )


def alternate_reps(matching) -> list:
    """A second full representative set of a `ClassMatching`, with every
    ambiguity group's reps rotated one place (a swap for a pair), for
    harmlessness checks."""
    out = list(matching.reps)
    for grp in matching.ambiguity_groups:
        for a, b in zip(grp, grp[1:] + grp[:1]):
            out[b] = matching.reps[a]
    return out


def fusion_by_elements(G: PermGroup, H: PermGroup, classes) -> ClassFunction:
    """pi = 1_H^G by the induced-character formula with one `classify` per
    element of H, on image tuples, counts and class sizes pooled per
    classify(rep): the count `charfun.perm_character_by_fusion` made before
    it walked H class by class."""
    counts = [0] * len(classes.sizes)
    for h in H.element_images_iter():
        counts[classes.classify(h)] += 1
    buckets = [classes.classify(r.images) for r in classes.reps]
    pooled = [0] * len(classes.sizes)
    for b, s in zip(buckets, classes.sizes):
        pooled[b] += s
    return ClassFunction([Fraction(G.order() * counts[b], H.order() * pooled[b])
                          for b in buckets])


class ClassEnumeration:
    """The reference class data of an enumerable group, on image tuples:
    every element is visited, each one not yet classified opens a class
    walked whole as its conjugation orbit, the lexicographically least
    member is the class's rep, and the classes are sorted by (element
    order, class size, rep images). `classify` takes an image tuple, and
    `elements(i)` is the set of members of class i."""

    def __init__(self, group: PermGroup):
        self.group = group
        element_class: dict = {}
        orbits = []
        for x in group.element_images_iter():
            if x not in element_class:
                orbit = conjugation_orbit(group, x)
                element_class.update(dict.fromkeys(orbit, len(orbits)))
                orbits.append(orbit)
        keys = [(order_of_images(min(o)), len(o), min(o)) for o in orbits]
        ranked = sorted(range(len(orbits)), key=keys.__getitem__)
        self.reps = [Permutation(keys[i][2]) for i in ranked]
        self.sizes = [keys[i][1] for i in ranked]
        self.orders = [keys[i][0] for i in ranked]
        self._members = [orbits[i] for i in ranked]
        index = {old: new for new, old in enumerate(ranked)}
        self.classify = {x: index[i] for x, i in element_class.items()}.__getitem__

    def __len__(self) -> int:
        return len(self.reps)

    def elements(self, i: int) -> set:
        return self._members[i]


class _ReferenceLevel:
    """A chain level as `ReferenceChain` keeps it: `group._Level` before the
    inverse generators were limited to vector mode."""

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens = []
        self.orbit_gens = []
        self.orbit_inv_gens = []
        self.full = degree <= _FULL_TRANSVERSAL_MAX_DEGREE
        self.orbit = {point: identity_images(degree) if self.full else None}

    def recompute_orbit(self, stab_gens: list, degree: int) -> None:
        self.orbit_gens = list(stab_gens)
        self.orbit_inv_gens = [inv_images(g) for g in stab_gens]
        self.orbit = {self.point: identity_images(degree) if self.full else None}
        queue = [self.point]
        for a in queue:
            for gi, g in enumerate(self.orbit_gens):
                b = g[a]
                if b not in self.orbit:
                    self.orbit[b] = mul_images(self.orbit[a], g) if self.full else (a, gi)
                    queue.append(b)

    def transversal(self, pt: int, degree: int) -> tuple:
        if self.full:
            return self.orbit[pt]
        path = []
        while self.orbit[pt] is not None:
            pt, gi = self.orbit[pt]
            path.append(gi)
        u = identity_images(degree)
        for gi in reversed(path):
            u = mul_images(u, self.orbit_gens[gi])
        return u

    def transversal_inv(self, pt: int, degree: int) -> tuple:
        if self.full:
            return inv_images(self.orbit[pt])
        u = identity_images(degree)
        while self.orbit[pt] is not None:
            pt, gi = self.orbit[pt]
            u = mul_images(u, self.orbit_inv_gens[gi])
        return u


class ReferenceChain:
    """The deterministic Schreier-Sims that `PermGroup` ran before its
    Schreier-generator shortcuts and the whole-group stop: every Schreier
    generator u * g * t^-1 is formed and sifted unless it is the identity,
    and `random_element` and `element_images_iter` sort each orbit anew.
    `PermGroup` must build the same chain and the same streams."""

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.levels = []
        gens = [g.images if isinstance(g, Permutation) else tuple(g) for g in generators]
        one = identity_images(degree)
        self._one = one
        gens = [g for g in gens if g != one]
        for g in gens:
            residue, i = self._sift(g)
            if residue != one:
                self._add_generator_at(i, residue)
        i = len(self.levels) - 1
        while i >= 0:
            lv = self.levels[i]
            clean = True
            for pt in sorted(lv.orbit):
                u = lv.transversal(pt, degree)
                for g in lv.orbit_gens:
                    s = mul_images(mul_images(u, g), lv.transversal_inv(g[pt], degree))
                    if s == one:
                        continue
                    residue, j = self._sift(s, i + 1)
                    if residue != one:
                        self._add_generator_at(j, residue)
                        i = j
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                i -= 1
        self.order = 1
        for lv in self.levels:
            self.order *= len(lv.orbit)

    def _sift(self, g: tuple, start: int = 0):
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            x = g[lv.point]
            if x == lv.point:
                continue
            if x not in lv.orbit:
                return g, i
            g = mul_images(g, lv.transversal_inv(x, self.degree))
        return g, len(self.levels)

    def _add_generator_at(self, i: int, g: tuple) -> None:
        if i == len(self.levels):
            point = next(x for x in range(self.degree) if g[x] != x)
            self.levels.append(_ReferenceLevel(point, self.degree))
        self.levels[i].gens.append(g)
        for j in range(i, -1, -1):
            stab_gens = [h for lv in self.levels[j:] for h in lv.gens]
            self.levels[j].recompute_orbit(stab_gens, self.degree)

    def random_element(self, rng) -> tuple:
        g = identity_images(self.degree)
        for lv in self.levels:
            if len(lv.orbit) == 1:
                continue
            pts = sorted(lv.orbit)
            pt = pts[rng.randrange(len(pts))]
            g = mul_images(lv.transversal(pt, self.degree), g)
        return g

    def element_images(self) -> list:
        out = [identity_images(self.degree)]
        for lv in self.levels:
            if len(lv.orbit) > 1:
                us = [lv.transversal(pt, self.degree) for pt in sorted(lv.orbit)]
                # deeper levels vary slowest, their transversals on the left
                out = [mul_images(u, x) for u in us for x in out]
        return out


def chain_levels(levels) -> list:
    """Each level of a `PermGroup` or `ReferenceChain` chain as (point,
    strong generators, orbit entries in insertion order, orbit generators):
    full-mode entries are the transversal images, vector-mode entries the
    Schreier vector, which with the orbit generators fixes them."""
    return [(lv.point, lv.gens, list(lv.orbit.items()), lv.orbit_gens) for lv in levels]


def reference_sample_subgroups(G: PermGroup, seed: int = 0, budget: int = 12, pairs=None) -> list:
    """`verify.sample_subgroups` as it was before it proved 2-generated
    samples redundant: it builds every 2-generated sample with
    `proper_subgroup`. Each 2-generated draw (g, h) is appended to `pairs`
    when a list is given."""
    rng = random.Random(seed)
    out = []
    seen_orders = set()

    def push(name, H):
        key = (H.order(), tuple(sorted(len(o) for o in _point_orbits(H))))
        if key in seen_orders:
            return
        seen_orders.add(key)
        out.append((name, H))

    push("whole", G)
    push("sylow2", _sylow_2_in(G, G, random.Random(seed)))  # not the P kept on G
    if G.degree > 1:
        push("point0", G.pointwise_stabilizer([0]))
    tries = 0
    while len(out) < budget and tries < 6 * budget:
        tries += 1
        g = G.random_element(rng)
        if tries % 2:
            if fingerprint(g.images) not in seen_orders:
                H = PermGroup([g], G.degree)
                push(f"cyclic{H.order()}", H)
        else:
            h = G.random_element(rng)
            if pairs is not None:
                pairs.append((g, h))
            H = proper_subgroup(G, [g, h])
            if H is not None:
                push(f"gen2_{H.order()}", H)
    return out


# The orbit walks that `group.normalizer`, `centralizer` and
# `setwise_stabilizer` made before they walked packed keys: element sets
# and point sets as frozensets, elements as image tuples.


def frozenset_normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    return orbit_stabilizer(G, frozenset(H.element_images_iter()), on_sets(conjugators(G)))[2]


def frozenset_centralizer(G: PermGroup, x: Permutation) -> PermGroup:
    return orbit_stabilizer(G, x.images, conjugators(G))[2]


def frozenset_setwise_stabilizer(G: PermGroup, points) -> PermGroup:
    return orbit_stabilizer(G, frozenset(points), on_sets(point_maps(G)))[2]
