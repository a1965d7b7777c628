"""Permutation groups with a base and strong generating set.

The chain is built by a deterministic Schreier-Sims; all results are
reproducible for a fixed generator order. Groups are immutable once
constructed and safe for concurrent reads.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain, product
from operator import itemgetter

from .perm import (
    Permutation,
    conjugator,
    identity_images,
    inv_images,
    mul_images,
    packed_conjugator,
    packed_set,
    packed_set_conjugator,
    packer,
)

# Above this degree, transversals hold Schreier-vector entries instead of
# full image tuples (coset actions can have thousands of points).
_FULL_TRANSVERSAL_MAX_DEGREE = 512


class _Level:
    """One stabilizer-chain level.

    `gens` holds the strong generators first attached here; the basic orbit
    of `point` is always computed over the generators of the whole
    stabilizer, i.e. the union of `gens` over this and all deeper levels
    (`orbit_gens`, snapshot at recompute time).
    """

    __slots__ = (
        "point", "gens", "orbit", "inv_transversals", "orbit_gens", "orbit_inv_gens", "full"
    )

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[tuple] = []
        self.orbit_gens: list[tuple] = []
        self.orbit_inv_gens: list[tuple] = []
        self.full = degree <= _FULL_TRANSVERSAL_MAX_DEGREE
        # full mode: orbit point -> transversal image tuple u with u[point] = pt
        # vector mode: orbit point -> None (root) or (parent point, gen index)
        self.orbit: dict = {point: identity_images(degree) if self.full else None}
        # full mode: inverses of transversal elements, stored at first use
        self.inv_transversals: dict = {}

    def recompute_orbit(self, stab_gens: list, degree: int) -> None:
        self.orbit_gens = list(stab_gens)
        self.inv_transversals = {}
        if self.full:
            self.orbit = {self.point: identity_images(degree)}
            # breadth-first: the loop walks the list by index, so points
            # appended during it are visited in the order they were reached
            queue = [self.point]
            for a in queue:
                u = self.orbit[a]
                for g in self.orbit_gens:
                    b = g[a]
                    if b not in self.orbit:
                        self.orbit[b] = mul_images(u, g)
                        queue.append(b)
        else:
            # only `transversal_inv` reads these, and only in vector mode
            self.orbit_inv_gens = [inv_images(g) for g in stab_gens]
            self.orbit = {self.point: None}
            queue = [self.point]
            for a in queue:
                for gi, g in enumerate(self.orbit_gens):
                    b = g[a]
                    if b not in self.orbit:
                        self.orbit[b] = (a, gi)
                        queue.append(b)

    def transversal(self, pt: int, degree: int) -> tuple:
        """Element u with u[point] = pt."""
        if self.full:
            return self.orbit[pt]
        path = []
        while True:
            entry = self.orbit[pt]
            if entry is None:
                break
            parent, gi = entry
            path.append(gi)
            pt = parent
        u = identity_images(degree)
        for gi in reversed(path):
            u = mul_images(u, self.orbit_gens[gi])
        return u

    def transversal_inv(self, pt: int, degree: int) -> tuple:
        """Inverse of the transversal element, without building it first."""
        if self.full:
            u = self.inv_transversals.get(pt)
            if u is None:
                u = self.inv_transversals[pt] = inv_images(self.orbit[pt])
            return u
        u = identity_images(degree)
        while True:
            entry = self.orbit[pt]
            if entry is None:
                return u
            parent, gi = entry
            u = mul_images(u, self.orbit_inv_gens[gi])
            pt = parent


class PermGroup:
    """Group generated by permutations of {0..degree-1}, with BSGS."""

    def __init__(self, generators, degree: int, base_hint=None):
        self._build(generators, degree, base_hint)

    # -- construction ------------------------------------------------------

    def _build(self, generators, degree: int, base_hint=None, stop_order: int = 0) -> bool:
        """Set the group up and run Schreier-Sims on `generators`. Returns
        False, leaving the chain unfinished, once the product of the basic
        orbit lengths reaches `stop_order` (0: never)."""
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self._identity = identity_images(degree)
        self._sylow_2: dict = {}  # seed -> the Sylow 2-subgroup `sylow_2` found
        self.generators = [g for g in gens if not g.is_identity()]
        self._levels: list[_Level] = [_Level(pt, degree) for pt in base_hint or ()]
        if not self._schreier_sims([g.images for g in self.generators], stop_order):
            return False
        self._order = self._orbit_product()
        return True

    def _orbit_product(self) -> int:
        out = 1
        for lv in self._levels:
            out *= len(lv.orbit)
        return out

    def _sift(self, g: tuple, start: int = 0):
        """Reduce g through the chain; returns (residue, stop level)."""
        levels = self._levels
        for i in range(start, len(levels)):
            lv = levels[i]
            x = g[lv.point]
            if x == lv.point:
                continue
            if x not in lv.orbit:
                return g, i
            g = mul_images(g, lv.transversal_inv(x, self.degree))
        return g, len(levels)

    def _is_identity(self, g: tuple) -> bool:
        return g == self._identity

    def _new_level_point(self, g: tuple) -> int:
        return next(i for i in range(self.degree) if g[i] != i)

    def _stab_gens(self, i: int) -> list:
        out = []
        for lv in self._levels[i:]:
            out.extend(lv.gens)
        return out

    def _add_generator_at(self, i: int, g: tuple) -> None:
        if i == len(self._levels):
            self._levels.append(_Level(self._new_level_point(g), self.degree))
        self._levels[i].gens.append(g)
        # the new generator enlarges every stabilizer down to level i
        for j in range(i, -1, -1):
            self._levels[j].recompute_orbit(self._stab_gens(j), self.degree)

    def _schreier_sims(self, gens: list[tuple], stop_order: int = 0) -> bool:
        """Complete the chain; False if stopped early at `stop_order`.

        Level j's orbit is an orbit of S_j, the group of the strong
        generators at levels >= j. S_{j+1} fixes level j's point and
        S_0 <= <gens>, so the product of the orbit lengths never exceeds
        |<gens>|: reaching a bound on that order proves the chain complete."""
        for g in gens:
            residue, i = self._sift(g)
            if not self._is_identity(residue):
                self._add_generator_at(i, residue)
                if self._orbit_product() == stop_order:
                    return False
        # verify Schreier generators bottom-up; jumping deeper on new strong
        # generators keeps the pass deterministic and terminating
        i = len(self._levels) - 1
        while i >= 0:
            lv = self._levels[i]
            clean = True
            for pt in sorted(lv.orbit):
                u = None
                for gi, g in enumerate(lv.orbit_gens):
                    target = g[pt]
                    if not lv.full and lv.orbit[target] == (pt, gi):
                        continue  # a tree edge: u * g is the transversal of target
                    if u is None:
                        u = lv.transversal(pt, self.degree)
                    ug = mul_images(u, g)
                    # the Schreier generator u * g * t^-1 is trivial iff u * g = t
                    if lv.full and ug == lv.orbit[target]:
                        continue
                    s = mul_images(ug, lv.transversal_inv(target, self.degree))
                    if self._is_identity(s):
                        continue
                    residue, j = self._sift(s, i + 1)
                    if not self._is_identity(residue):
                        self._add_generator_at(j, residue)
                        if self._orbit_product() == stop_order:
                            return False
                        i = j
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                i -= 1
        return True

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return self._order

    def contains_images(self, g: tuple) -> bool:
        if len(g) != self.degree:
            return False
        residue, _ = self._sift(g)
        return self._is_identity(residue)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains_images(p.images)

    @cached_property
    def _sorted_orbits(self) -> list:
        """(level, its orbit sorted) for every level with a nontrivial orbit."""
        return [(lv, sorted(lv.orbit)) for lv in self._levels if len(lv.orbit) > 1]

    def random_element(self, rng: random.Random) -> Permutation:
        g = identity_images(self.degree)
        for lv, pts in self._sorted_orbits:
            pt = pts[rng.randrange(len(pts))]
            g = mul_images(lv.transversal(pt, self.degree), g)
        return Permutation(g)

    def element_images_iter(self):
        """All elements as image tuples, in a fixed deterministic order: the
        deepest level's point varies slowest, the first level's fastest."""
        us = [[lv.transversal(pt, self.degree) for pt in pts] for lv, pts in self._sorted_orbits]
        if not us:
            return iter((self._identity,))

        def prefixes(i: int, prefix: tuple):
            # compose deepest stabilizer first so each element is formed once
            if i == 0:
                yield prefix
                return
            for u in us[i]:
                yield from prefixes(i - 1, mul_images(prefix, u))

        # the first level's elements prefix * u, one C-level map per prefix
        # (a nontrivial group has degree >= 2, so the getter returns tuples)
        first = us[0]
        return chain.from_iterable(
            map(itemgetter(*prefix), first) for prefix in prefixes(len(us) - 1, self._identity)
        )

    def elements(self):
        for g in self.element_images_iter():
            yield Permutation(g)

    def pointwise_stabilizer(self, points) -> "PermGroup":
        """Subgroup fixing every listed point. A chain built with no base
        hint starts at its first generator's first moved point p, and it is
        the chain that base_hint=[p] builds, so G_p takes the strong
        generators below G's own first level."""
        points = _checked_points(points, self.degree)
        if len(points) == 1 and self._levels and self._levels[0].point == points[0]:
            return PermGroup(self._stab_gens(1), self.degree)
        return PermGroup(_gens_fixing(self.generators, self.degree, points), self.degree)

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self._order} ngens={len(self.generators)}>"


def _gens_fixing(gens, degree: int, points) -> list:
    """Generators, as image tuples, of the subgroup of <gens> that fixes
    every listed point: the strong generators below a chain whose base
    starts with `points`."""
    points = _checked_points(points, degree)
    chain = PermGroup(gens, degree, base_hint=points)
    return [g for lv in chain._levels[len(points):] for g in lv.gens]


def _checked_points(points, degree: int) -> list:
    """`points` as a list; ValueError for a point outside 0..degree-1."""
    points = list(points)
    for p in points:
        if not 0 <= p < degree:
            raise ValueError(f"point {p} is outside 0..{degree - 1} (degree {degree})")
    return points


def trivial_group(degree: int) -> PermGroup:
    return PermGroup([], degree)


def proper_subgroup(G: PermGroup, gens) -> PermGroup | None:
    """<gens> for elements of G, or None when they generate G.

    The chain build stops as soon as its orbit lengths multiply to |G|,
    which proves <gens> = G; otherwise it runs to the end and the group
    is exactly `PermGroup(gens, G.degree)`."""
    H = PermGroup.__new__(PermGroup)
    if not H._build(gens, G.degree, stop_order=G.order()) or H.order() == G.order():
        return None
    return H


def is_subgroup(H: PermGroup, G: PermGroup) -> bool:
    """Whether every generator of H lies in G (degrees must agree)."""
    if H.degree != G.degree:
        return False
    return all(G.contains_images(g.images) for g in H.generators)


def check_subgroup(G: PermGroup, H: PermGroup) -> None:
    """Raise ValueError unless H is a subgroup of G on the same points."""
    if H.degree != G.degree:
        raise ValueError("degree mismatch between group and subgroup")
    if not is_subgroup(H, G):
        raise ValueError("H is not a subgroup of G")


def is_normal_in(H: PermGroup, G: PermGroup) -> bool:
    return all(H.contains_images(conj(h.images)) for conj in conjugators(G) for h in H.generators)


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of G containing the seed permutations."""
    gens = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
    closure = PermGroup(gens, G.degree)
    conjugates = conjugators(G)
    while True:
        images = (conj(h.images) for conj in conjugates for h in closure.generators)
        new = [Permutation(c) for c in images if not closure.contains_images(c)]
        if not new:
            return closure
        closure = PermGroup(closure.generators + new, G.degree)


# -- orbits --------------------------------------------------------------------
#
# An action is given as one map per generator: maps[i](x) is the image of x
# under the i-th generator.


def point_maps(G: PermGroup) -> list:
    """The action of each generator of G on points."""
    return [g.images.__getitem__ for g in G.generators]


def conjugators(G: PermGroup) -> list:
    """The conjugation y -> g^-1 * y * g by each generator g of G, on image
    tuples."""
    return [conjugator(g.images) for g in G.generators]


def on_sets(maps: list) -> list:
    """The actions that `maps` induce on frozensets of their objects."""
    return [lambda objs, f=f: frozenset(map(f, objs)) for f in maps]


def orbit_closure(seed, maps: list) -> set:
    """The orbit of `seed` as the set of its members, walked with no
    transversal. Members are stored in the form the maps act on, so maps
    on packed elements (`perm.packed_conjugator`) hold an orbit of a
    million elements in a fraction of the memory of image tuples."""
    orbit = {seed}
    queue = [seed]
    while queue:
        x = queue.pop()
        for f in maps:
            y = f(x)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def _orbit(seed, gens: list, maps: list, degree: int):
    """Breadth-first orbit of `seed`, maps[gi] acting as gens[gi].

    Returns (orbit, transversal, images). orbit[0] is the seed, and points
    are listed in the order first reached, generators taken in order.
    transversal[i] is the product of generators along the path that first
    reached orbit[i], so acting on the seed by it gives orbit[i].
    images[gi][i] is the index of maps[gi](orbit[i]): the action table,
    with one map call per (point, generator) pair.
    """
    index = {seed: 0}
    orbit = [seed]
    transversal = [identity_images(degree)]
    images: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(orbit):
        x = orbit[i]
        for g, f, row in zip(gens, maps, images):
            y = f(x)
            j = index.get(y)
            if j is None:
                j = index[y] = len(orbit)
                orbit.append(y)
                transversal.append(mul_images(transversal[i], g))
            row.append(j)
        i += 1
    return orbit, transversal, images


def orbit_stabilizer(G: PermGroup, seed, maps: list):
    """Orbit of a hashable `seed` under one map per generator of G, as
    (orbit, transversal, stabilizer), the first two from `_orbit`.

    The Schreier generators u_i * g * u_j^-1 are read off the action table
    and sifted incrementally, so the stabilizer generating set stays
    small. The sifting stops once the stabilizer has order |G|/|orbit|:
    every later Schreier generator lies in it already and would add
    nothing, so the generator list is the one the full loop would build.
    A generator u_i * g with u_i * g = u_j is the identity and is skipped;
    each other u_j is inverted when a generator first needs it.
    Deterministic for a fixed generator order."""
    gens = [g.images for g in G.generators]
    orbit, transversal, images = _orbit(seed, gens, maps, G.degree)
    inverses: dict = {}
    order = G.order() // len(orbit)
    stab_gens: list[Permutation] = []
    stab = trivial_group(G.degree)
    for (i, u), (g, row) in product(enumerate(transversal), zip(gens, images)):
        if stab.order() == order:
            break
        j = row[i]
        ug = mul_images(u, g)
        if ug == transversal[j]:
            continue
        if j not in inverses:
            inverses[j] = inv_images(transversal[j])
        s = mul_images(ug, inverses[j])
        if not stab.contains_images(s):
            stab_gens.append(Permutation(s))
            stab = PermGroup(stab_gens, G.degree)
    return orbit, transversal, stab


def centralizer(G: PermGroup, x: Permutation) -> PermGroup:
    """C_G(x) via the conjugation orbit of x (the class of x), walked
    packed (`perm.packed_conjugator`)."""
    maps = [packed_conjugator(g.images) for g in G.generators]
    return orbit_stabilizer(G, packer(G.degree)(x.images), maps)[2]


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) via the conjugation orbit of H's element set, walked on its
    packed key (`perm.packed_set`)."""
    maps = [packed_set_conjugator(g.images) for g in G.generators]
    return orbit_stabilizer(G, packed_set(H.element_images_iter(), G.degree), maps)[2]


def setwise_stabilizer(G: PermGroup, points) -> PermGroup:
    """Stabilizer of a point set, via the orbit on point sets, each kept
    as its sorted points."""
    seed = tuple(sorted(set(_checked_points(points, G.degree))))
    maps = [lambda pts, f=f: tuple(sorted(map(f, pts))) for f in point_maps(G)]
    return orbit_stabilizer(G, seed, maps)[2]


# -- coset actions -----------------------------------------------------------


class CosetAction:
    """Right-multiplication action of G on the right cosets of H.

    Coset 0 is H itself. `reps` holds one representative image tuple per
    coset, the first element of it that the breadth-first enumeration
    reached; `gen_images` the induced permutation (as an image tuple over
    coset indices) of each G-generator. A coset is found by its canonical
    element (`_coset_key`), so each lookup is one dict probe.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        check_subgroup(G, H)
        self.G = G
        self.H = H
        # the orbit of the coset keys; key_i lies in H*reps[i], so key_i*g
        # and reps[i]*g lie in one coset and share its key
        gens = [g.images for g in G.generators]
        _, self.reps, images = _orbit(
            _coset_key(H, identity_images(G.degree)),
            gens,
            [lambda key, g=g: _coset_key(H, mul_images(key, g)) for g in gens],
            G.degree,
        )
        self.degree = len(self.reps)
        self.gen_images = [tuple(img) for img in images]

    @cached_property
    def _rep_inverses(self) -> list:
        return [inv_images(x) for x in self.reps]

    @cached_property
    def _guard(self) -> tuple:
        """(a, O): a point a of a smallest H-orbit O, and O as a set. Every
        element of H maps a into O."""
        orbit = min(_point_orbits(self.H), key=len)
        return min(orbit), orbit

    def fixed_cosets(self, p: Permutation) -> int:
        """Number of cosets fixed by p: #{i : reps[i] * p * reps[i]^-1 in H}.
        Only an element y that maps the guard point a into its H-orbit can
        lie in H, so y is formed and sifted only when y[a] is in O."""
        g = p.images
        a, orbit = self._guard
        contains = self.H.contains_images
        return sum(
            1
            for x, xi in zip(self.reps, self._rep_inverses)
            if xi[g[x[a]]] in orbit and contains(mul_images(mul_images(x, g), xi))
        )

    def kernel(self) -> PermGroup:
        """Kernel of the action, as a subgroup of G (equals core_G(H))."""
        n, m = self.G.degree, self.degree
        combined = [
            g.images + tuple(n + j for j in img)
            for g, img in zip(self.G.generators, self.gen_images)
        ]
        return PermGroup([g[:n] for g in _gens_fixing(combined, n + m, range(n, n + m))], n)


def _coset_key(H: PermGroup, y: tuple) -> tuple:
    """The element of the right coset Hy whose images of H's base points are
    least, read top-down: elements of H are fixed by their base images and y
    is injective, so every element of Hy gives the same tuple and distinct
    cosets give distinct tuples."""
    for lv in H._levels:
        if len(lv.orbit) > 1:
            pt = min(lv.orbit, key=y.__getitem__)
            y = mul_images(lv.transversal(pt, H.degree), y)
    return y


def _point_orbits(H: PermGroup, maps: list | None = None) -> list:
    """The orbits on H's points of H, or of the group that `maps` generate
    (one map per generator, on the same points), as frozensets, in order of
    least point."""
    if maps is None:
        maps = point_maps(H)
    orbits: list = []
    seen: set = set()
    for start in range(H.degree):
        if start not in seen:
            orbits.append(frozenset(orbit_closure(start, maps)))
            seen |= orbits[-1]
    return orbits


def coset_action(G: PermGroup, H: PermGroup) -> CosetAction:
    return CosetAction(G, H)


def core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest normal subgroup of G contained in H."""
    check_subgroup(G, H)
    if H.order() == 1:
        return trivial_group(G.degree)
    if is_normal_in(H, G):
        return H
    return coset_action(G, H).kernel()


# -- Sylow 2-subgroups and O^{2'} --------------------------------------------


def _two_part(n: int) -> int:
    t = 1
    while n % 2 == 0:
        n //= 2
        t *= 2
    return t


def _element_two_part(p: Permutation) -> Permutation:
    n = p.order()
    odd = n // _two_part(n)
    return p**odd


def _find_involution(K: PermGroup, rng: random.Random) -> Permutation:
    while True:
        t = _element_two_part(K.random_element(rng))
        if not t.is_identity():
            return t ** (t.order() // 2)


def _sylow_2_in(G: PermGroup, K: PermGroup, rng: random.Random) -> PermGroup:
    """Sylow 2-subgroup of K; G only fixes the ambient degree."""
    target = _two_part(K.order())
    if target == 1:
        return trivial_group(G.degree)
    if K.order() == target:
        return K
    x = _find_involution(K, rng)
    C = centralizer(K, x)
    if C.order() < K.order():
        P = _sylow_2_in(G, C, rng)
    else:
        # x is central in K; seed the normalizer ascent with <x>
        P = PermGroup([x], G.degree)
    # ascend: P is normal in N_K(P), so P<t> is a 2-group for any
    # 2-element t of the normalizer, and |N_K(P)|_2 > |P| while P is
    # not yet Sylow
    while P.order() < target:
        N = normalizer(K, P)
        found = None
        for _ in range(500 * max(1, len(N.generators))):
            t = _element_two_part(N.random_element(rng))
            if not t.is_identity() and not P.contains_images(t.images):
                found = t
                break
        if found is None:
            raise RuntimeError("sylow_2: sampling budget exhausted, retry with another seed")
        P = PermGroup(P.generators + [found], G.degree)
    return P


def sylow_2(G: PermGroup, seed: int = 0) -> PermGroup:
    """A Sylow 2-subgroup, deterministic for a fixed seed.

    Descends into centralizers of involutions (2-central involutions pull
    the full Sylow subgroup down into a much smaller group), finishing
    with a normalizer ascent when the descent stalls. G is immutable, so
    the result is kept on G, one per seed: every caller shares one P.
    """
    P = G._sylow_2.get(seed)
    if P is None:
        P = G._sylow_2[seed] = _sylow_2_in(G, G, random.Random(seed))
    return P


def o_2prime(G: PermGroup, seed: int = 0) -> PermGroup:
    """Smallest normal subgroup with odd-order quotient: the normal closure
    of a Sylow 2-subgroup."""
    P = sylow_2(G, seed=seed)
    if P.order() == 1:
        return trivial_group(G.degree)
    return normal_closure(G, P.generators)
