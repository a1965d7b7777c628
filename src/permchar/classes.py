"""Conjugacy classes: one `ConjugacyClassSet`, each class walked whole below
a size threshold, discovered by seeded sampling above it or given a table.

Whole-walked class representatives are the lexicographically least members
of their classes and classes are sorted by (element order, class size,
representative images), so the result is identical no matter how the group
was generated or in what order elements are visited.
"""

from __future__ import annotations

import random
from itertools import accumulate, chain, repeat
from math import gcd, lcm

from .cyclo import divisors
from .group import PermGroup, conjugators, on_sets, orbit_closure, orbit_stabilizer, point_maps
from .perm import (
    Permutation,
    cycle_type,
    cycles_of_images,
    identity_images,
    inv_images,
    mul_images,
    order_of_images,
    packed_conjugator,
    packer,
    power_images,
)

DEFAULT_ENUMERATION_THRESHOLD = 2_000_000


class EnumerationThresholdError(RuntimeError):
    """Raised when a group is too large for full class enumeration."""


def fingerprint(images: tuple) -> tuple:
    """(element order, cycle type) of an image tuple, from one walk of its
    cycles: the order is the lcm of the cycle lengths."""
    ct = cycle_type(images)
    return lcm(*ct), ct


def conjugation_orbit(group: PermGroup, images: tuple, key=tuple) -> set:
    """The conjugacy class of an element of `group` (an image tuple or its
    packed form), as a set of image tuples, or with key =
    `perm.packer(group.degree)` of packed elements, walked packed."""
    if key is tuple:
        return orbit_closure(tuple(images), conjugators(group))
    return orbit_closure(key(images), [packed_conjugator(g.images) for g in group.generators])


class _PackedKeys(dict):
    """A dict keyed by packed bytes that also answers an image-tuple key,
    by packing it."""

    __slots__ = ()

    def __missing__(self, key):
        if type(key) is bytes:
            raise KeyError(key)
        return self[bytes(key)]


def _invariant_set(images: tuple, ct: tuple) -> frozenset:
    """F(g) for g with cycle type ct: the points on the cycles of g of the
    length that covers the fewest points, ties going to the shorter length;
    every point when g has one cycle length. F(x^-1 g x) is the image of
    F(g) under x."""
    if ct[0] == ct[-1]:
        return frozenset(range(len(images)))
    covered: dict = {}
    for k in ct:
        covered[k] = covered.get(k, 0) + k
    length = min(covered, key=lambda k: (covered[k], k))
    if length == 1:
        return frozenset([p for p, q in enumerate(images) if p == q])
    return frozenset(x for c in cycles_of_images(images) if len(c) == length for x in c)


class _SetOrbit:
    """The G-orbit of an invariant point set `base` (F0), with its
    setwise stabilizer S. `transversal[i]` maps F0 onto the orbit's i-th
    set and `inverses[i]` is its inverse, so `move` conjugates an element
    whose invariant set is the i-th onto one whose invariant set is F0, and
    conjugating by `transversal[i]` moves it back. When every generator
    maps F0 onto itself (F0 is every point, say), the orbit is {F0}, S is
    G with no chain built, nothing moves, and a class walked here is a
    whole G-class, kept packed (`perm.packer`); `key` is the form of the
    members kept."""

    def __init__(self, group: PermGroup, base: frozenset, pack):
        if all(f(p) in base for f in point_maps(group) for p in base):
            self.index, self.stabilizer, self.key = {base: 0}, group, pack
            return
        orbit, self.transversal, self.stabilizer = orbit_stabilizer(
            group, base, on_sets(point_maps(group)))
        self.inverses = [inv_images(u) for u in self.transversal]
        self.index = {points: i for i, points in enumerate(orbit)}
        self.key = tuple

    def move(self, images: tuple, points: frozenset):
        """u * g * u^-1 for the transversal element u that maps F0 onto
        `points`, the invariant set of g; None if `points` is not in
        this orbit."""
        i = self.index.get(points)
        if i is None:
            return None
        if i == 0:
            return images
        return mul_images(mul_images(self.transversal[i], images), self.inverses[i])


class _WalkedClass:
    """One conjugacy class of G, kept as walked: `members` is the S-class
    of the rep moved onto F0 (S the stabilizer of F0 in the orbit
    `frame`), so the whole class, packed, where S is G, and n = |F0^G| *
    |members|. Two elements are G-conjugate exactly when their moved
    copies are S-conjugate. `index` is the class's place in a complete set."""

    __slots__ = ("rep", "order", "frame", "members", "n", "index")

    def __init__(self, rep: tuple, order: int, frame: _SetOrbit, members):
        self.rep, self.order, self.frame, self.members = rep, order, frame, members
        self.n = len(frame.index) * len(members)


class ConjugacyClassSet:
    """Conjugacy classes of a permutation group, in one of three modes.

    - No `table`, |G| <= `threshold`: each element of `element_images_iter`
      not yet in the element map opens a class, walked whole as its
      conjugation orbit and kept as a tuple, its least member the rep; the
      walk stops once the map holds |G| elements. `classify` is one probe
      of that map (`element_class_map`).
    - No `table`, above the threshold: classes are discovered from random
      elements drawn from `seed`, with the coprime powers of each new
      class, until the class sizes sum to |G| (RuntimeError after `budget`
      samples). A class's rep is the first element added to it.
    - Given `table`: the bucket store `tableio.find_representatives` fills
      by `sample` and `add`, which sizes a class only for the element
      orders whose table columns come in several sizes.

    Without a table the set holds the class data `dixon.character_table`
    reads (group, reps, sizes, orders, classify, elements), classes sorted
    by (order, size, rep images), and no `ambiguity_groups` (see
    `tableio.ClassMatching`): `classify` is exact and takes an image tuple
    or a packed (`perm.packer`) element, the form of the members.

    A sampled element goes into a bucket keyed (fingerprint, class size or
    None); `buckets` keeps the first element added per key. A sampled class
    is sized through the stabilizer S of its invariant point set F0
    (`_invariant_set`), |g^G| = |F0^G| |g0^S| for g0 the conjugate of g
    with invariant set F0, and kept as walked: as its S-class, or whole
    where F0 is every point. `_lookup` finds an element's walked class;
    sizing walks a new class on a miss, `classify` never walks, and
    `elements(i)` streams a class not kept whole from its S-class.
    """

    ambiguity_groups = ()
    _element_class = None

    def __init__(self, group: PermGroup, table=None, seed: int = 0, budget: int = 100_000,
                 threshold: int = DEFAULT_ENUMERATION_THRESHOLD):
        self.group = group
        self._pack = packer(group.degree)
        self._classes: list = []  # every class walked, sorted once the set is complete
        if table is None and group.order() <= threshold:
            self._walk_whole()
            return
        self.buckets: dict = {}
        self._frames: dict = {}  # size of the invariant set -> [_SetOrbit]
        self._walked: dict = {}  # cycle type -> [_WalkedClass]
        self._total = 0
        self._powers: dict = {}  # coprime power added -> (its family's powers, exponent)
        self._walk_orders = None if table is None else {
            o for o in table.orders
            if len({s for o2, s in zip(table.orders, table.sizes) if o2 == o}) > 1
        }
        identity = tuple(range(group.degree))
        self.add(identity, fingerprint(identity))
        if table is None:
            rng, used = random.Random(seed), 0
            while self._total < group.order():
                if used == budget:
                    raise RuntimeError(f"class sizes sum to {self._total} of |G| ="
                                       f" {group.order()} after {used} samples")
                self.sample(rng, 1)
                used += 1
            self._sort()

    def _walk_whole(self) -> None:
        group, pack = self.group, self._pack
        whole = _SetOrbit(group, frozenset(range(group.degree)), pack)
        element_class = _PackedKeys() if pack is bytes else {}
        n = group.order()
        for x in group.element_images_iter():
            x = pack(x)
            if x in element_class:
                continue
            orbit = conjugation_orbit(group, x, pack)
            element_class.update(zip(orbit, repeat(len(self._classes))))
            rep = min(orbit)
            self._classes.append(_WalkedClass(rep, order_of_images(rep), whole, tuple(orbit)))
            if len(element_class) == n:
                break
        # renumber in place: only one element map exists at a time
        index = self._sort()
        for y, i in element_class.items():
            element_class[y] = index[i]
        self._element_class = element_class
        self.classify = element_class.__getitem__

    def _sort(self) -> list:
        """Sort the classes by (order, size, rep) and set reps, sizes and
        orders; return the new index of each class in the order walked."""
        walked = self._classes
        self._classes = sorted(walked, key=lambda cls: (cls.order, cls.n, cls.rep))
        for i, cls in enumerate(self._classes):
            cls.index = i
        self.reps = [Permutation(cls.rep) for cls in self._classes]
        self.sizes = [cls.n for cls in self._classes]
        self.orders = [cls.order for cls in self._classes]
        return [cls.index for cls in walked]

    def __len__(self) -> int:
        return len(self.reps)

    def element_class_map(self) -> dict | None:
        """Packed element (or image tuple) -> class index: the map `classify`
        reads when every class is walked whole, else None."""
        return self._element_class

    def sample(self, rng: random.Random, n: int) -> None:
        """Add n seeded-uniform elements of the group and all their powers."""
        for _ in range(n):
            g = self.group.random_element(rng).images
            fp = fingerprint(g)
            self.add(g, fp)
            for d in divisors(fp[0])[1:]:
                h = power_images(g, d)
                self.add(h, fingerprint(h))

    def add(self, images: tuple, fp: tuple) -> tuple:
        """Bucket `images`, an element with fingerprint fp = (order, cycle
        type) as `fingerprint` gives it; return its key."""
        size = None
        if self._walk_orders is None or fp[0] in self._walk_orders:
            size = self._class_size(images, fp)
        key = (fp, size)
        if key not in self.buckets:
            self.buckets[key] = images
        return key

    def _lookup(self, images: tuple, ct: tuple):
        """The walked class of an element (image tuple or packed) of cycle
        type ct, or None: the element is moved onto the base of the frame
        holding its invariant set and probed in the classes of ct there."""
        points = _invariant_set(images, ct)
        for frame in self._frames.get(len(points), ()):
            moved = frame.move(images, points)
            if moved is not None:
                record = frame.key(moved)
                for cls in self._walked.get(ct, ()):
                    if cls.frame is frame and record in cls.members:
                        return cls
                return None

    def _class_size(self, images: tuple, fp: tuple) -> int:
        order, ct = fp
        cls = self._lookup(images, ct)
        if cls is not None:
            return cls.n
        points = _invariant_set(images, ct)
        frames = self._frames.setdefault(len(points), [])
        frame = next((f for f in frames if points in f.index), None)
        if frame is None:
            frame = _SetOrbit(self.group, points, self._pack)
            frames.append(frame)
        members = conjugation_orbit(frame.stabilizer, frame.move(images, points), frame.key)
        cls = _WalkedClass(images, order, frame, members)
        self._classes.append(cls)
        self._walked.setdefault(ct, []).append(cls)
        self._total += cls.n
        if self._walk_orders is None and order > 2:
            # a coprime power generates the same cyclic group: same fingerprint;
            # the powers of a new power are these again, so each is added once.
            # The family's powers are listed once: images = base^e, so
            # images^k = base^(e k).
            powers, e = self._powers.get(images, (None, 1))
            if powers is None:
                powers = list(accumulate(repeat(images, order - 1), mul_images,
                                         initial=identity_images(len(images))))
            for k in range(2, order):
                if gcd(k, order) == 1:
                    ek = e * k % order
                    h = powers[ek]
                    if h not in self._powers:
                        self._powers[h] = (powers, ek)
                        self.add(h, fp)
        return cls.n

    def classify(self, images: tuple) -> int:
        """Class index of an element (image tuple or packed) of the group:
        the size sum proves it lies in a walked class of its cycle type."""
        ct = cycle_type(images)
        walked = self._walked[ct]
        if len(walked) == 1:
            return walked[0].index
        return self._lookup(images, ct).index

    def elements(self, i: int):
        """The members of class i, packed: a whole class as kept, any other
        its S-class conjugated by each transversal element of its frame."""
        cls = self._classes[i]
        if cls.frame.stabilizer is self.group:
            return cls.members
        moved = [self._pack(y) for y in cls.members]
        return chain.from_iterable(map(packed_conjugator(u), moved) for u in cls.frame.transversal)


def conjugacy_classes(
    group: PermGroup, threshold: int = DEFAULT_ENUMERATION_THRESHOLD
) -> ConjugacyClassSet:
    """The classes of `group`, each walked whole; EnumerationThresholdError
    when |G| exceeds `threshold`."""
    if group.order() > threshold:
        raise EnumerationThresholdError(
            f"group order {group.order()} exceeds enumeration threshold {threshold};"
            " use table-based class matching instead"
        )
    return ConjugacyClassSet(group, threshold=threshold)
