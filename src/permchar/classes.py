"""Conjugacy classes: by full enumeration for groups below a size threshold
(`ConjugacyClassSet`), and by seeded sampling above it (`SampledClassSet`).

Enumerated class representatives are the lexicographically least members of
their classes and classes are sorted by (element order, class size,
representative images), so the result is identical no matter how the group
was generated or in what order elements are visited.
"""

from __future__ import annotations

import random
from array import array
from math import gcd

from .cyclo import divisors
from .group import PermGroup
from .perm import Permutation, conjugator, cycle_type, order_of_images, power_images

DEFAULT_ENUMERATION_THRESHOLD = 2_000_000


class EnumerationThresholdError(RuntimeError):
    """Raised when a group is too large for full class enumeration."""


def conjugation_orbit(group: PermGroup, images: tuple, key=tuple) -> set:
    """The conjugacy class of an element of `group`: the closure of {images}
    under conjugation by the generators, as the set of key(element), image
    tuples by default. `SampledClassSet` keys by packed bytes, which holds
    a class of a million elements in a fraction of the memory."""
    conjugates = [conjugator(g.images) for g in group.generators]
    orbit = {key(images)}
    queue = [images]
    while queue:
        y = queue.pop()
        for conj in conjugates:
            z = conj(y)
            zk = key(z)
            if zk not in orbit:
                orbit.add(zk)
                queue.append(z)
    return orbit


class ConjugacyClassSet:
    """Classes of an enumerable group.

    The class data `dixon.character_table` reads: group, reps (lex-least
    Permutation per class), sizes, orders, and classify (image tuple ->
    class index, one lookup in the element map the enumeration builds and
    keeps). Class 0 is the identity class.
    """

    def __init__(self, group: PermGroup, threshold: int = DEFAULT_ENUMERATION_THRESHOLD):
        if group.order() > threshold:
            raise EnumerationThresholdError(
                f"group order {group.order()} exceeds enumeration threshold {threshold};"
                " use table-based class matching instead"
            )
        self.group = group

        element_class: dict = {}
        raw: list[tuple] = []  # (rep images, size)
        for x in group.element_images_iter():
            if x in element_class:
                continue
            orbit = conjugation_orbit(group, x)
            idx = len(raw)
            raw.append((min(orbit), len(orbit)))
            for y in orbit:
                element_class[y] = idx

        order_key = [order_of_images(rep) for rep, _ in raw]
        perm = sorted(
            range(len(raw)), key=lambda i: (order_key[i], raw[i][1], raw[i][0])
        )
        newindex = [0] * len(raw)
        for new, old in enumerate(perm):
            newindex[old] = new
        self.reps = [Permutation(raw[old][0]) for old in perm]
        self.sizes = [raw[old][1] for old in perm]
        self.orders = [order_key[old] for old in perm]

        # renumber in place: only one element map exists at a time
        for y, i in element_class.items():
            element_class[y] = newindex[i]
        self._element_class = element_class
        self.classify = element_class.__getitem__

    def __len__(self) -> int:
        return len(self.reps)

    def element_class_map(self) -> dict:
        """images tuple -> class index: the map `classify` reads."""
        return self._element_class


def conjugacy_classes(
    group: PermGroup, threshold: int = DEFAULT_ENUMERATION_THRESHOLD
) -> ConjugacyClassSet:
    return ConjugacyClassSet(group, threshold=threshold)


class _PackedSet:
    """Membership for a sorted buffer of equal-width byte records."""

    def __init__(self, records):
        self.width = len(next(iter(records)))
        self.buf = b"".join(sorted(records))
        self.n = len(records)

    def __contains__(self, rec):
        lo, hi = 0, self.n
        w = self.width
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self.buf[mid * w : (mid + 1) * w]
            if probe < rec:
                lo = mid + 1
            elif probe > rec:
                hi = mid
            else:
                return True
        return False


class SampledClassSet:
    """Classes of a group too large to enumerate, from seeded random elements.

    Each element added goes into a bucket keyed (fingerprint, class size or
    None), the fingerprint being (element order, cycle type); `buckets`
    keeps the first element added per key. A class is walked, and kept
    packed, only where its size is part of the key:

    - Given `table`, for the element orders whose table columns come in
      several sizes (the two order-4 classes of M22 on 22 points share a
      cycle type but not a size). The set is then the bucket store that
      `tableio.find_representatives` fills by `sample` and `add`.
    - With no table, for every new class, and the coprime powers of a new
      class, which include every class algebraically conjugate to it, are
      added right away. Sampling from `seed` stops when the class sizes sum
      to |G|, and raises RuntimeError if `budget` samples do not get there.
      The set then holds the class data `dixon.character_table` reads:
      group, reps (the first element added per class), sizes, orders and
      classify, classes sorted by (order, size, rep images).
    """

    def __init__(self, group: PermGroup, table=None, seed: int = 0, budget: int = 100_000):
        self.group = group
        self.buckets: dict = {}
        self._walked: dict = {}  # cycle type -> [(rep images, _PackedSet of the class)]
        self._total = 0
        self._pack = bytes if group.degree <= 256 else lambda x: array("H", x).tobytes()
        self._walk_orders = None if table is None else {
            o for o in table.orders
            if len({s for o2, s in zip(table.orders, table.sizes) if o2 == o}) > 1
        }
        self.add(tuple(range(group.degree)), 1)
        if table is None:
            self._discover(random.Random(seed), budget)

    def sample(self, rng: random.Random, n: int) -> None:
        """Add n seeded-uniform elements of the group and all their powers."""
        for _ in range(n):
            g = self.group.random_element(rng).images
            o = order_of_images(g)
            for d in divisors(o):
                self.add(power_images(g, d), o // d)

    def add(self, images: tuple, order: int) -> tuple:
        """Bucket `images`, an element of the given order; return its key."""
        ct = cycle_type(images)
        size = None
        if self._walk_orders is None or order in self._walk_orders:
            size = self._class_size(images, ct, order)
        key = ((order, ct), size)
        if key not in self.buckets:
            self.buckets[key] = images
        return key

    def _class_size(self, images: tuple, ct: tuple, order: int) -> int:
        walked = self._walked.setdefault(ct, [])
        record = self._pack(images)
        for _, members in walked:
            if record in members:
                return members.n
        members = _PackedSet(conjugation_orbit(self.group, images, self._pack))
        walked.append((images, members))
        self._total += members.n
        if self._walk_orders is None:
            for k in range(2, order):
                if gcd(k, order) == 1:
                    self.add(power_images(images, k), order)
        return members.n

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
        flat = sorted(
            (order_of_images(rep), members.n, rep)
            for walked in self._walked.values()
            for rep, members in walked
        )
        index = {rep: i for i, (_, _, rep) in enumerate(flat)}
        self.reps = [Permutation(rep) for _, _, rep in flat]
        self.sizes = [size for _, size, _ in flat]
        self.orders = [o for o, _, _ in flat]
        # the size sum proves every element lies in a walked class, so the
        # last class walked of each cycle type classifies by elimination
        # and its members need not be kept; nothing is added to a complete set
        self._by_type = {
            ct: [(index[rep], members) for rep, members in walked[:-1]]
            + [(index[walked[-1][0]], None)]
            for ct, walked in self._walked.items()
        }
        del self._walked

    def classify(self, images: tuple) -> int:
        """Class index of an element (image tuple) of the group."""
        candidates = self._by_type[cycle_type(images)]
        if len(candidates) > 1:
            record = self._pack(images)
            for idx, members in candidates[:-1]:
                if record in members:
                    return idx
        return candidates[-1][0]
