"""Conjugacy classes: by full enumeration for groups below a size threshold
(`ConjugacyClassSet`), and by seeded sampling above it (`SampledClassSet`).

Enumerated class representatives are the lexicographically least members of
their classes and classes are sorted by (element order, class size,
representative images), so the result is identical no matter how the group
was generated or in what order elements are visited.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from math import gcd, lcm

from .cyclo import divisors
from .group import PermGroup, conjugators, on_sets, orbit_closure, orbit_stabilizer, point_maps
from .perm import (
    Permutation,
    cycle_type,
    cycles_of_images,
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


class ConjugacyClassSet:
    """Classes of an enumerable group.

    The class data `dixon.character_table` reads: group, reps (lex-least
    Permutation per class), sizes, orders, classify (element -> class
    index, one lookup in the element map the enumeration builds and keeps)
    and elements (class index -> its members). The enumeration walks,
    keys and keeps every element packed (`perm.packer`): as bytes up to
    degree 256, as the image tuple above. `classify` takes an image tuple
    or a packed element; packed, it is one dict probe on a cached hash.
    `elements(i)` returns the members packed. Class 0 is the identity
    class. The enumeration stops as soon as the classes found hold |G|
    elements. Its classify is exact, so its `ambiguity_groups` (see
    `tableio.ClassMatching`) are none.
    """

    ambiguity_groups = ()

    def __init__(self, group: PermGroup, threshold: int = DEFAULT_ENUMERATION_THRESHOLD):
        if group.order() > threshold:
            raise EnumerationThresholdError(
                f"group order {group.order()} exceeds enumeration threshold {threshold};"
                " use table-based class matching instead"
            )
        self.group = group

        pack = packer(group.degree)
        element_class = _PackedKeys() if pack is bytes else {}
        raw: list[tuple] = []  # (packed rep, packed members)
        n = group.order()
        for x in group.element_images_iter():
            x = pack(x)
            if x in element_class:
                continue
            orbit = conjugation_orbit(group, x, pack)
            element_class.update(zip(orbit, repeat(len(raw))))
            raw.append((min(orbit), tuple(orbit)))
            if len(element_class) == n:
                break

        order_key = [order_of_images(rep) for rep, _ in raw]
        perm = sorted(
            range(len(raw)), key=lambda i: (order_key[i], len(raw[i][1]), raw[i][0])
        )
        newindex = [0] * len(raw)
        for new, old in enumerate(perm):
            newindex[old] = new
        self.reps = [Permutation(raw[old][0]) for old in perm]
        self.sizes = [len(raw[old][1]) for old in perm]
        self.orders = [order_key[old] for old in perm]
        self._members = [raw[old][1] for old in perm]

        # renumber in place: only one element map exists at a time
        for y, i in element_class.items():
            element_class[y] = newindex[i]
        self._element_class = element_class
        self.classify = element_class.__getitem__

    def __len__(self) -> int:
        return len(self.reps)

    def element_class_map(self) -> dict:
        """Packed element -> class index: the map `classify` reads. It
        also answers an image-tuple key."""
        return self._element_class

    def elements(self, i: int) -> tuple:
        """The members of class i, packed."""
        return self._members[i]


def conjugacy_classes(
    group: PermGroup, threshold: int = DEFAULT_ENUMERATION_THRESHOLD
) -> ConjugacyClassSet:
    return ConjugacyClassSet(group, threshold=threshold)


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
    conjugating by `transversal[i]` moves it back. When F0 is every point,
    S is G, nothing moves, and a class walked here is a whole G-class, kept
    packed (`perm.packer`); `key` is the form of the members kept."""

    def __init__(self, group: PermGroup, base: frozenset, pack):
        if len(base) == group.degree:
            self.index = {base: 0}
            self.stabilizer = group
            self.key = pack
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
    of `rep` moved onto F0 (S the stabilizer of F0 in the orbit `frame`),
    so the whole class, packed, where S is G, and n = |F0^G| * |members|.
    Two elements are G-conjugate exactly when their moved copies are
    S-conjugate. `index` is the class's place in a complete set."""

    __slots__ = ("rep", "frame", "members", "n", "index")

    def __init__(self, rep: tuple, frame: _SetOrbit, moved: tuple):
        self.rep = rep
        self.frame = frame
        self.members = conjugation_orbit(frame.stabilizer, moved, frame.key)
        self.n = len(frame.index) * len(self.members)


class SampledClassSet:
    """Classes of a group too large to enumerate, from seeded random elements.

    Each element added goes into a bucket keyed (fingerprint, class size or
    None), the fingerprint being (element order, cycle type); `buckets`
    keeps the first element added per key. A class is sized only where its
    size is part of the key:

    - Given `table`, for the element orders whose table columns come in
      several sizes (the two order-4 classes of M22 on 22 points share a
      cycle type but not a size). The set is then the bucket store that
      `tableio.find_representatives` fills by `sample` and `add`.
    - With no table, for every new class, and the coprime powers of a new
      class, which include every class algebraically conjugate to it, are
      added right away. Sampling from `seed` stops when the class sizes sum
      to |G|, and raises RuntimeError if `budget` samples do not get there.
      The set then holds the class data `dixon.character_table` reads:
      group, reps (the first element added per class), sizes, orders,
      classify and elements, classes sorted by (order, size, rep images).

    A class is sized through the stabilizer S of an invariant point set
    (`_invariant_set`) instead of being walked whole: |g^G| = |F0^G| *
    |g0^S| for g0 the conjugate of g with invariant set F0. One orbit of
    point sets, with its transversal and S, serves every class whose
    invariant sets lie in it. On M22 the order-4 elements fix 2 points, so
    S has order 1,920 and the two order-4 classes are walked as S-classes
    of 60 and 120 elements instead of 13,860 and 27,720. Each class is
    walked once and kept: as its S-class, or, where g has one cycle length
    and F0 is every point, whole and packed (`perm.packer`). `_lookup`
    finds the walked class of an element; sizing walks a new class on a
    miss, and `classify` (an image tuple or a packed element) never walks.
    `elements(i)` streams a class that is not kept whole from its S-class.
    """

    def __init__(self, group: PermGroup, table=None, seed: int = 0, budget: int = 100_000):
        self.group = group
        self.buckets: dict = {}
        self._frames: dict = {}  # size of the invariant set -> [_SetOrbit]
        self._walked: dict = {}  # cycle type -> [_WalkedClass]
        self._total = 0
        self._powers: set = set()
        self._pack = packer(group.degree)
        self._walk_orders = None if table is None else {
            o for o in table.orders
            if len({s for o2, s in zip(table.orders, table.sizes) if o2 == o}) > 1
        }
        identity = tuple(range(group.degree))
        self.add(identity, fingerprint(identity))
        if table is None:
            self._discover(random.Random(seed), budget)

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
        cls = _WalkedClass(images, frame, frame.move(images, points))
        self._walked.setdefault(ct, []).append(cls)
        self._total += cls.n
        if self._walk_orders is None:
            for k in range(2, order):
                if gcd(k, order) == 1:
                    # a coprime power generates the same cyclic group: same fingerprint;
                    # the powers of a new power are these again, so each is added once
                    h = power_images(images, k)
                    if h not in self._powers:
                        self._powers.add(h)
                        self.add(h, fp)
        return cls.n

    def _discover(self, rng: random.Random, budget: int) -> None:
        order = self.group.order()
        used = 0
        while self._total < order:
            if used >= budget:
                raise RuntimeError(
                    f"class sizes sum to {self._total} of |G| = {order} after {used} samples"
                )
            self.sample(rng, 1)
            used += 1
        self._classes = sorted(chain.from_iterable(self._walked.values()),
                               key=lambda cls: (order_of_images(cls.rep), cls.n, cls.rep))
        for i, cls in enumerate(self._classes):
            cls.index = i
        self.reps = [Permutation(cls.rep) for cls in self._classes]
        self.sizes = [cls.n for cls in self._classes]
        self.orders = [order_of_images(cls.rep) for cls in self._classes]

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
