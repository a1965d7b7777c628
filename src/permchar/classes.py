"""Conjugacy classes by full enumeration, for groups below a size threshold.

Class representatives are the lexicographically least members of their
classes and classes are sorted by (element order, class size, representative
images), so the result is identical no matter how the group was generated
or in what order elements are visited.
"""

from __future__ import annotations

from .group import PermGroup
from .perm import Permutation, conjugator, order_of_images

DEFAULT_ENUMERATION_THRESHOLD = 2_000_000


class EnumerationThresholdError(RuntimeError):
    """Raised when a group is too large for full class enumeration."""


def conjugation_orbit(group: PermGroup, images: tuple) -> set:
    """The conjugacy class of an element of `group`, as image tuples: the
    closure of {images} under conjugation by the generators."""
    conjugates = [conjugator(g.images) for g in group.generators]
    orbit = {images}
    queue = [images]
    while queue:
        y = queue.pop()
        for conj in conjugates:
            z = conj(y)
            if z not in orbit:
                orbit.add(z)
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
