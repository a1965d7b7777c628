"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are kept in the power basis zeta^0 .. zeta^(phi(n)-1) modulo the
n-th cyclotomic polynomial, with the conductor minimized after every
public operation, so equality is plain structural comparison. Rationals
are arbitrary-precision. Values are immutable and safe to share.

This module parses, renders and stores values. Sums over many classes
(inner products, indicator sums) run on the integer group-ring kernel in
`charfun` instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rat = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def factorize(k: int) -> list:
    """Prime factors of k with multiplicity, in increasing order."""
    out = []
    d = 2
    while d * d <= k:
        while k % d == 0:
            out.append(d)
            k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_divmod_int(num: list, den: list) -> tuple:
    """Exact division of integer polynomials (low-to-high coefficients)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low to high."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    poly = num
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class _Context:
    """Per-conductor reduction data."""

    __slots__ = ("n", "phi", "poly", "powers", "descents")

    def __init__(self, n: int):
        self.n = n
        self.poly = cyclotomic_polynomial(n)
        self.phi = len(self.poly) - 1
        # x^k mod Phi_n for k in [phi, 2*phi-2], as Fraction tuples
        self.powers: list = []
        prev = [_ZERO] * self.phi
        if self.phi:
            prev[self.phi - 1] = _ONE
        for _ in range(self.phi - 1):
            shifted = [_ZERO] + prev
            lead = shifted.pop()
            if lead:
                shifted = [c - lead * pc for c, pc in zip(shifted, self.poly[: self.phi])]
            self.powers.append(tuple(shifted))
            prev = shifted
        self.descents: dict = {}

    def descent(self, p: int):
        """Data for testing/rewriting into Q(zeta_{n/p}); None when n/p is
        not a proper cyclotomic subfield step (p does not divide n)."""
        if p in self.descents:
            return self.descents[p]
        n, d = self.n, self.n // p
        kernel = [k for k in range(1, n + 1, d) if gcd(k, n) == 1]
        m = len(kernel)
        gen = None
        if m > 1:
            for k in kernel:
                o, x = 1, k
                while x != 1 % n:
                    x = x * k % n
                    o += 1
                if o == m:
                    gen = k
                    break
        # basis of Q(zeta_d) lifted to conductor n: columns M[:, j] = zeta_d^j
        phid = euler_phi(d)
        cols = [_reduce_mod(_monomial(n, (j * (n // d)) % n), self) for j in range(phid)]
        # choose pivot rows making a square invertible system, invert it
        rows, inv = _pivot_inverse(cols, self.phi, phid)
        data = (d, gen, cols, rows, inv)
        self.descents[p] = data
        return data


@lru_cache(maxsize=None)
def _context(n: int) -> _Context:
    return _Context(n)


def _monomial(n: int, k: int) -> list:
    out = [_ZERO] * (k + 1)
    out[k] = _ONE
    return out


def _reduce_mod(coeffs: list, ctx: _Context) -> tuple:
    """Reduce a low-to-high coefficient list modulo Phi_n."""
    phi = ctx.phi
    coeffs = list(coeffs)
    if len(coeffs) <= 2 * phi - 1:
        # fold via the precomputed power table
        out = [Fraction(c) for c in coeffs[:phi]] + [_ZERO] * (phi - min(len(coeffs), phi))
        for k in range(phi, len(coeffs)):
            c = coeffs[k]
            if c:
                row = ctx.powers[k - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)
    # long division for high degrees (lifts, Galois maps)
    poly = ctx.poly
    coeffs = [Fraction(c) for c in coeffs]
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = _ZERO
            for j in range(phi):
                coeffs[i - phi + j] -= c * poly[j]
    out = coeffs[:phi]
    out += [_ZERO] * (phi - len(out))
    return tuple(out)


def _pivot_inverse(cols: list, nrows: int, ncols: int) -> tuple:
    """Select pivot rows of the column matrix and invert that square block."""
    # Gaussian elimination to find independent rows
    work = [[cols[j][i] for j in range(ncols)] for i in range(nrows)]
    rows = []
    used = [False] * nrows
    basis: list = []
    for _ in range(ncols):
        found = None
        for i in range(nrows):
            if used[i]:
                continue
            v = list(work[i])
            for prow, pcol in basis:
                f = v[pcol]
                if f:
                    v = [a - f * b for a, b in zip(v, prow)]
            nz = next((j for j, a in enumerate(v) if a), None)
            if nz is not None:
                found = (i, v, nz)
                break
        if found is None:
            raise ArithmeticError("lifted basis is rank-deficient")
        i, v, nz = found
        used[i] = True
        rows.append(i)
        basis.append(([a / v[nz] for a in v], nz))
    square = [[cols[j][i] for j in range(ncols)] for i in rows]
    inv = _invert_matrix(square)
    return rows, inv


def _invert_matrix(m: list) -> list:
    k = len(m)
    aug = [list(row) + [_ONE if i == j else _ZERO for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [a / f for a in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


class Cyclotomic:
    """An element of some Q(zeta_n), with n minimal."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords: tuple, _reduced: bool = False):
        if not _reduced:
            ctx = _context(conductor)
            coords = _reduce_mod(list(coords), ctx)
            conductor, coords = _minimize(conductor, coords)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),), _reduced=True)

    @staticmethod
    def zero() -> "Cyclotomic":
        return _RAT_ZERO

    @staticmethod
    def one() -> "Cyclotomic":
        return _RAT_ONE

    # -- ring operations ------------------------------------------------

    def _lift_coeffs(self, m: int) -> list:
        """Low-to-high coefficient list of self as a polynomial in zeta_m."""
        step = m // self.conductor
        out = [_ZERO] * ((len(self.coords) - 1) * step + 1) if self.coords else [_ZERO]
        for i, c in enumerate(self.coords):
            if c:
                out[i * step] = c
        return out

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic(1, (self.coords[0] + other.coords[0],), _reduced=True)
        m = lcm(self.conductor, other.conductor)
        ctx = _context(m)
        a = _reduce_mod(self._lift_coeffs(m), ctx)
        b = _reduce_mod(other._lift_coeffs(m), ctx)
        return _from_reduced(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-c for c in self.coords), _reduced=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            q = self.coords[0]
            return Cyclotomic(
                other.conductor, tuple(q * c for c in other.coords), _reduced=True
            ) if q else _RAT_ZERO
        if other.conductor == 1:
            q = other.coords[0]
            return Cyclotomic(
                self.conductor, tuple(q * c for c in self.coords), _reduced=True
            ) if q else _RAT_ZERO
        m = lcm(self.conductor, other.conductor)
        ctx = _context(m)
        a = _reduce_mod(self._lift_coeffs(m), ctx)
        b = _reduce_mod(other._lift_coeffs(m), ctx)
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _from_reduced(m, _reduce_mod(prod, ctx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # division by rationals only; general inverses are not needed here
        q = Fraction(other) if not isinstance(other, Cyclotomic) else other.as_rational()
        if q is None:
            raise TypeError("division only by rational values")
        return self * Cyclotomic.rational(Fraction(1) / Fraction(q))

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k, gcd(k, n) = 1."""
        n = self.conductor
        k %= n
        if n == 1 or k == 1:
            return self
        if gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        mapped = [_ZERO] * n
        for i, c in enumerate(self.coords):
            if c:
                mapped[(i * k) % n] += c
        return _from_reduced(n, _reduce_mod(mapped, _context(n)))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta_n -> zeta_n^(n-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    def __pow__(self, e: int) -> "Cyclotomic":
        out = _RAT_ONE
        b = self
        if e < 0:
            raise ValueError("negative powers unsupported")
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coords[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self):
        """The value as a Fraction, or None if irrational."""
        return self.coords[0] if self.conductor == 1 else None

    def is_real(self) -> bool:
        return self.conjugate() == self

    def is_integer(self) -> bool:
        return self.conductor == 1 and self.coords[0].denominator == 1

    # -- misc --------------------------------------------------------------

    def to_complex(self) -> complex:
        from cmath import exp, pi

        z = exp(2j * pi / self.conductor)
        total = 0j
        for i, c in enumerate(self.coords):
            if c:
                total += float(c) * z**i
        return total

    def sort_key(self) -> tuple:
        return (self.conductor, self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coords[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coords == other.coords

    def __hash__(self):
        if self.conductor == 1:
            return hash(self.coords[0])
        return hash((self.conductor, self.coords))

    def __repr__(self):
        return f"Cyclotomic({render_cyclotomic(self)!r})"

    def __str__(self):
        return render_cyclotomic(self)


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.rational(x)
    return NotImplemented


def _from_reduced(n: int, coords: tuple) -> Cyclotomic:
    n, coords = _minimize(n, coords)
    return Cyclotomic(n, coords, _reduced=True)


def _minimize(n: int, coords: tuple):
    """Descend to the minimal conductor, one prime at a time."""
    while n > 1:
        if all(c == 0 for c in coords[1:]):
            return 1, (coords[0],)
        ctx = _context(n)
        descended = False
        for p in prime_factors(n):
            d, gen, cols, rows, inv = ctx.descent(p)
            if gen is not None:
                # exact membership test for Q(zeta_d): fixed by the kernel
                fixed = [_ZERO] * n
                for i, c in enumerate(coords):
                    if c:
                        fixed[(i * gen) % n] += c
                if _reduce_mod(fixed, ctx) != coords:
                    continue
            # rewrite in the zeta_d power basis
            y = [sum(inv[i][j] * coords[rows[j]] for j in range(len(rows))) for i in range(len(rows))]
            if gen is None:
                # kernel trivial (n = 2d, d odd): always a subfield, but
                # verify the solve to be safe
                ok = True
                for i in range(len(coords)):
                    if sum(cols[j][i] * y[j] for j in range(len(y))) != coords[i]:
                        ok = False
                        break
                if not ok:
                    continue
            n, coords = d, tuple(y)
            descended = True
            break
        if not descended:
            return n, coords
    return n, coords


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k, stored at its minimal conductor."""
    if n <= 0:
        raise ValueError("order of the root must be positive")
    k %= n
    return Cyclotomic(n, tuple(_ONE if i == k else _ZERO for i in range(n)))


# -- text format ---------------------------------------------------------------


def render_cyclotomic(v: Cyclotomic) -> str:
    """Canonical rendering: rationals plainly, otherwise E(n)^k terms."""
    if v.conductor == 1:
        return str(v.coords[0])
    n = v.conductor
    parts = []
    for i, c in enumerate(v.coords):
        if not c:
            continue
        if i == 0:
            parts.append((str(abs(c)), c < 0))
            continue
        mono = f"E({n})" if i == 1 else f"E({n})^{i}"
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        parts.append((body, c < 0))
    out = []
    for idx, (body, neg) in enumerate(parts):
        if idx == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("-" if neg else "+") + body)
    return "".join(out)


def parse_cyclotomic(text: str) -> Cyclotomic:
    """Parse the rendering grammar: rationals, E(n)^k terms joined by +/-."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic expression")
    total = Cyclotomic.rational(0)
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    term_start = i
    depth = 0
    terms = []
    while i <= len(s):
        if i == len(s) or (s[i] in "+-" and depth == 0):
            terms.append((sign, s[term_start:i]))
            if i < len(s):
                sign = -1 if s[i] == "-" else 1
                term_start = i + 1
            i += 1
        else:
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
            i += 1
    for sg, term in terms:
        if not term:
            raise ValueError(f"malformed term in {text!r}")
        total = total + _parse_term(term) * sg
    return total


_RATIONAL = re.compile(r"[0-9./]+")


def _rational(text: str) -> Fraction:
    """A rational in the rendering grammar: p, p/q or a decimal. Exponents
    are not part of it (Fraction('1e999999999') builds a billion-digit int)."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_term(term: str) -> Cyclotomic:
    if "E(" not in term:
        return Cyclotomic.rational(_rational(term))
    coeff = _ONE
    if "*" in term:
        coeff_s, term = term.split("*", 1)
        coeff = _rational(coeff_s)
    if not term.startswith("E("):
        raise ValueError(f"malformed cyclotomic term {term!r}")
    close = term.index(")")
    n = int(term[2:close])
    rest = term[close + 1 :]
    k = 1
    if rest:
        if not rest.startswith("^"):
            raise ValueError(f"malformed cyclotomic term {term!r}")
        k = int(rest[1:])
    return root_of_unity(n, k) * coeff


_RAT_ZERO = Cyclotomic(1, (_ZERO,), _reduced=True)
_RAT_ONE = Cyclotomic(1, (_ONE,), _reduced=True)
