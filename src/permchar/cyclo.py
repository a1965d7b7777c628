"""Exact values in cyclotomic fields Q(zeta_n).

Every value is built one way: as a group-ring element sum_i c_i zeta_n^i,
reduced modulo the n-th cyclotomic polynomial by `reduce_mod_phi` and
moved to its minimal conductor by a descent through the primes of n that
needs no linear algebra (see `_descend`). The stored form is the power
basis zeta^0 .. zeta^(phi(n)-1) at that minimal n, with Fraction
coordinates, so equality is plain structural comparison. Values are
immutable and safe to share.

This module parses, renders and stores values; it has no field
arithmetic. Coefficients are ints or Fractions, never floats. The one map
on values is `Cyclotomic.galois`, which `tableio._galois_conjugate_rep`
reads. Sums over many classes (inner products, indicator sums) run on the
integer group-ring kernel in `charfun`, which reduces with the same
`reduce_mod_phi` and builds a Cyclotomic from one group-ring vector.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low to high. For n > 1, Phi_n is the product
    of (1 - x^(n/s))^mu(s) over the squarefree s | n; each factor, or its
    inverse 1 + x^k + x^2k + ..., is applied as a power series cut at
    degree phi(n), which is exact because the product is a polynomial of
    that degree."""
    if n == 1:
        return (-1, 1)
    phi = euler_phi(n)
    poly = [1] + [0] * phi
    primes = prime_factors(n)
    for r in range(len(primes) + 1):
        for s in combinations(primes, r):
            k = n // prod(s)
            if r % 2:
                for i in range(k, phi + 1):
                    poly[i] += poly[i - k]
            else:
                for i in range(phi, k - 1, -1):
                    poly[i] -= poly[i - k]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple:
    """(phi(n), the nonzero terms (j, c) of Phi_n below its leading one)."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    return phi, tuple((j, c) for j, c in enumerate(poly[:phi]) if c)


def reduce_mod_phi(vec: list, n: int) -> list:
    """Power-basis coordinates of the group-ring element `vec` of Z[C_n] or
    Q[C_n] (a dense list of length n, consumed) in Q(zeta_n): the remainder
    of sum vec[i] x^i modulo Phi_n."""
    phi, tail = _phi_tail(n)
    for i in range(n - 1, phi - 1, -1):
        c = vec[i]
        if c:
            base = i - phi
            for j, pj in tail:
                vec[base + j] -= c * pj
    return vec[:phi]


def _descend(n: int, coords: list) -> tuple:
    """(m, coords) of the same value at its minimal conductor m, from its
    integer power-basis coordinates at conductor n. One prime at a time:
    if the value lies in Q(zeta_{n/p}), move there and try p again."""
    if not any(coords[1:]):
        return 1, coords[:1]
    for p in prime_factors(n):
        while n % p == 0:
            d = n // p
            if d % p == 0:
                # Phi_n(x) = Phi_d(x^p): the power basis of Q(zeta_d) is the
                # zeta_n^i with p | i, part of the power basis of Q(zeta_n)
                if any(coords[i] for i in range(len(coords)) if i % p):
                    break
                coords = coords[::p]
            else:
                lower = _coprime_descent(n, p, coords)
                if lower is None:
                    break
                coords = lower
            n = d
    return n, coords


def _coprime_descent(n: int, p: int, coords: list):
    """Coordinates at conductor d = n/p, p not dividing d, or None when the
    value is not in Q(zeta_d). With zeta_d = zeta_n^p and zeta_p = zeta_n^d,
    zeta_n^i = zeta_d^a zeta_p^b (CRT), so the value is sum_b alpha_b
    zeta_p^b with alpha_b in Q[C_d]. Over Q(zeta_d), zeta_p .. zeta_p^(p-1)
    is a basis and 1 = -(their sum); so the value is sum_(b>=1) (alpha_b -
    alpha_0) zeta_p^b, and it lies in Q(zeta_d) exactly when every
    alpha_b - alpha_0 is the same beta modulo Phi_d. It is then -beta."""
    d = n // p
    p_inv, d_inv = pow(p, -1, d), pow(d, -1, p)
    alphas = [[0] * d for _ in range(p)]
    for i, c in enumerate(coords):
        if c:
            alphas[i * d_inv % p][i * p_inv % d] += c
    a0 = alphas[0]
    beta = None
    for alpha in alphas[1:]:
        diff = reduce_mod_phi([x - y for x, y in zip(alpha, a0)], d)
        if beta is None:
            beta = diff
        elif diff != beta:
            return None
    return [-x for x in beta]


def _check_exact(c) -> None:
    """Raise TypeError unless c is an int or a Fraction: a float would
    enter an exact value already rounded."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"cyclotomic coefficient {c!r} is not an int or a Fraction")


def _canonical(n: int, terms) -> tuple:
    """(conductor, Fraction coords) of sum_i terms[i] zeta_n^i in canonical
    form. The terms are scaled to integers over a common denominator, so
    the reduction and the descent run on ints."""
    if n < 1:
        raise ValueError("conductor must be positive")
    for c in terms:
        _check_exact(c)
    den = lcm(*(c.denominator for c in terms if c))
    vec = [0] * n
    for i, c in enumerate(terms):
        if c:
            vec[i % n] += c.numerator * (den // c.denominator)
    n, coords = _descend(n, reduce_mod_phi(vec, n))
    return n, tuple(Fraction(x, den) for x in coords)


class Cyclotomic:
    """An element of some Q(zeta_n), with n minimal.

    `Cyclotomic(n, terms)` is the group-ring element sum_i terms[i] zeta_n^i
    (indices taken mod n, coefficients ints or Fractions; anything else
    raises TypeError), reduced modulo
    Phi_n and moved to its minimal conductor. `coords` are then its
    power-basis coordinates there, as Fractions. The hash is computed on
    first use and kept."""

    __slots__ = ("conductor", "coords", "_hash")

    def __init__(self, conductor: int, terms, _reduced: bool = False):
        if not _reduced:
            conductor, terms = _canonical(conductor, terms)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coords", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        _check_exact(q)
        return Cyclotomic(1, (Fraction(q),), _reduced=True)

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k, gcd(k, n) = 1."""
        n = self.conductor
        k %= n
        if n == 1 or k == 1:
            return self
        if gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        mapped = [0] * n
        for i, c in enumerate(self.coords):
            if c:
                mapped[i * k % n] += c
        return Cyclotomic(n, mapped)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coords[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self):
        """The value as a Fraction, or None if irrational."""
        return self.coords[0] if self.conductor == 1 else None

    # -- misc --------------------------------------------------------------

    def sort_key(self) -> tuple:
        return (self.conductor, self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coords[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coords == other.coords

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            key = self.coords[0] if self.conductor == 1 else (self.conductor, self.coords)
            object.__setattr__(self, "_hash", hash(key))
            return self._hash

    def __repr__(self):
        return f"parse_cyclotomic({render_cyclotomic(self)!r})"

    def __str__(self):
        return render_cyclotomic(self)


# -- text format ---------------------------------------------------------------


def render_cyclotomic(v: Cyclotomic) -> str:
    """Canonical rendering: rationals plainly, otherwise the nonzero
    coordinates as terms q, E(n), E(n)^k or q*E(n)^k joined by their signs."""
    if v.conductor == 1:
        return str(v.coords[0])
    n = v.conductor
    out = ""
    for i, c in enumerate(v.coords):
        if not c:
            continue
        if c < 0:
            out += "-"
        elif out:
            out += "+"
        mag = abs(c)
        if i == 0:
            out += str(mag)
            continue
        if mag != 1:
            out += f"{mag}*"
        out += f"E({n})" if i == 1 else f"E({n})^{i}"
    return out


# The largest conductor parse_cyclotomic accepts, for one E(n) and for the
# lcm of the E(n)s in one expression. Parsing builds a vector of that length
# and reduces it modulo Phi_n, so text must not choose an unbounded n. The
# values of a character lie in Q(zeta_e), e the group's exponent; every table
# this package builds or bundles stays far below the bound.
MAX_CONDUCTOR = 10000

# One signed term of the value grammar: q*E(n)^k, with q* and ^k optional,
# or a rational q (p, p/q or a decimal). n and k are ASCII digits, since
# int() alone would also read a sign, `_` separators and non-ASCII digits;
# q has no exponent (Fraction('1e999999999') builds a billion-digit int).
_Q = r"[0-9./]+"
_TERM = re.compile(rf"([+-])(?:(?:({_Q})\*)?E\(([0-9]+)\)(?:\^([0-9]+))?|({_Q}))")


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Parse the rendering grammar: `_TERM`s from the first character to the
    last, the sign of the first one optional. Spaces are ignored."""
    s = text.strip().replace(" ", "")
    if not s.startswith(("+", "-")):
        s = "+" + s
    terms = []
    m, pos = 1, 0
    while pos < len(s):
        term = _TERM.match(s, pos)
        if term is None:
            raise ValueError(f"malformed cyclotomic expression {text!r}")
        sign, coeff, n, k, q = term.groups()
        if q is not None:
            coeff, n, k = _fraction(q), 1, 0
        else:
            coeff = _fraction(coeff) if coeff else 1
            n, k = int(n), int(k or 1)
            if not 1 <= n <= MAX_CONDUCTOR:
                raise ValueError(f"E({n}): n must be in 1..{MAX_CONDUCTOR}")
        m = lcm(m, n)
        if m > MAX_CONDUCTOR:
            raise ValueError(f"conductor {m} of {text!r} exceeds {MAX_CONDUCTOR}")
        terms.append((-coeff if sign == "-" else coeff, n, k))
        pos = term.end()
    # all terms as one element of Q[C_m], canonicalized once
    vec = [0] * m
    for coeff, n, k in terms:
        vec[k % n * (m // n)] += coeff
    return Cyclotomic(m, vec)


def _fraction(q: str) -> Fraction:
    try:
        return Fraction(q)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {q!r}") from None
