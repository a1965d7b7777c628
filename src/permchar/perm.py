"""Permutations of {0..n-1} stored as image tuples.

Composition is left-to-right: (p * q)(x) = q(p(x)), matching the usual
convention for permutation group algorithms. Raw image tuples are used in
hot loops; the helpers below work on either form.

Class enumeration and the Dixon class matrices hold elements packed
(`packer`): up to degree 256 as `bytes`, one byte per point, above it as
the image tuple itself. Packed bytes hash once and order like their image
tuples; `packed_conjugator` and `packed_multiplier` act on them with
`bytes.translate`, a C call that reads a 256-byte table.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter, methodcaller

PACKED_MAX_DEGREE = 256


def mul_images(p: tuple, q: tuple) -> tuple:
    """Compose image tuples, p first then q."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    # itemgetter with one index returns a scalar, not a tuple
    return tuple(q[i] for i in p)


def inv_images(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugator(g: tuple):
    """y -> g^-1 * y * g on image tuples, for a g of degree at least 2
    (a group generator moves a point). The getter for g^-1 is built once,
    and y * g is g read at the points of g^-1 * y."""
    take = itemgetter(*inv_images(g))
    return lambda y: itemgetter(*take(y))(g)


def packer(degree: int):
    """The packed form of elements of this degree: `bytes` up to degree
    256, `tuple` above. Either one, applied to an image tuple or a packed
    element, gives the packed element, and `tuple` unpacks."""
    return bytes if degree <= PACKED_MAX_DEGREE else tuple


def packed_conjugator(g: tuple):
    """y -> g^-1 * y * g on packed elements of g's degree: two translates,
    by y (padded to 256 bytes) and by g. Above degree 256, `conjugator`."""
    n = len(g)
    if n > PACKED_MAX_DEGREE:
        return conjugator(g)
    pad = bytes(PACKED_MAX_DEGREE - n)
    g_inv, g_table = bytes(inv_images(g)), bytes(g) + pad
    return lambda y: g_inv.translate(y + pad).translate(g_table)


def packed_multiplier(z: tuple):
    """x -> x * z on packed elements of z's degree: x translated by z.
    Above degree 256, `mul_images(x, z)`."""
    n = len(z)
    if n > PACKED_MAX_DEGREE:
        return lambda x: mul_images(x, z)
    return methodcaller("translate", bytes(z) + bytes(PACKED_MAX_DEGREE - n))


def identity_images(degree: int) -> tuple:
    return tuple(range(degree))


def power_images(p: tuple, n: int) -> tuple:
    if n < 0:
        return power_images(inv_images(p), -n)
    out = identity_images(len(p))
    sq = p
    while n:
        if n & 1:
            out = mul_images(out, sq)
        n >>= 1
        if n:
            sq = mul_images(sq, sq)
    return out


def cycle_type(p: tuple) -> tuple:
    """Sorted cycle lengths of an image tuple, fixed points included."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return tuple(sorted(out))


def order_of_images(p: tuple) -> int:
    return lcm(*cycle_type(p))


def cycles_of_images(p: tuple) -> list:
    """The cycles of an image tuple, fixed points included, in order of
    least point; each is a list that starts at its least point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        out.append(cycle)
    return out


class Permutation:
    """Immutable permutation; equality and hashing by image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("image sequence is not a bijection of 0..n-1")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Permutation":
        """Build from cycles of 0-based points, multiplied left to right."""
        images = list(range(degree))
        for cycle in cycles:
            if len(cycle) < 2:
                continue
            cy = list(range(degree))
            for a, b in zip(cycle, cycle[1:]):
                cy[a] = b
            cy[cycle[-1]] = cycle[0]
            images = [cy[i] for i in images]
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(mul_images(self.images, other.images))

    def __invert__(self) -> "Permutation":
        return Permutation(inv_images(self.images))

    def __pow__(self, n: int) -> "Permutation":
        return Permutation(power_images(self.images, n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return order_of_images(self.images)

    def cycles(self) -> list:
        """Disjoint cycles of length > 1, each rotated to start at its least point."""
        return [tuple(c) for c in cycles_of_images(self.images) if len(c) > 1]

    def cycle_type(self) -> tuple:
        """Sorted cycle lengths including fixed points."""
        return cycle_type(self.images)

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def __repr__(self) -> str:
        return f"parse_permutation({cycle_string(self)!r}, {self.degree})"

    def __str__(self) -> str:
        return cycle_string(self)


_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)")


def cycle_string(p: Permutation) -> str:
    """Render in 1-based disjoint-cycle notation, '()' for the identity."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles)


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation, e.g. '(1,2)(3,4,5)'."""
    stripped = text.strip()
    if stripped in ("()", ""):
        return Permutation.identity(degree)
    consumed = _CYCLE_RE.sub("", stripped).strip()
    if consumed:
        raise ValueError(f"cannot parse permutation {text!r}: leftover {consumed!r}")
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        pts = [int(tok) - 1 for tok in m.group(1).split(",")]
        if any(x < 0 or x >= degree for x in pts):
            raise ValueError(f"point out of range 1..{degree} in {text!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle in {text!r}")
        cycles.append(pts)
    return Permutation.from_cycles(degree, cycles)
