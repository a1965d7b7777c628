"""Cyclotomic values: canonical form, parsing and rendering.

The canonical form (minimal conductor, power-basis Fraction coordinates) is
checked against the implementation it replaced, kept below as the oracle:
reduction modulo Phi_n through a table of the powers x^phi .. x^(2phi-2),
and conductor minimization that tests membership in each Q(zeta_(n/p)) by
invariance under the Galois kernel and rewrites the value by inverting a
pivot block of the lifted Q(zeta_(n/p)) basis.
"""

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from permchar import corpus
from permchar.corpus import data_dir
from permchar.cyclo import (
    MAX_CONDUCTOR,
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    parse_cyclotomic,
    prime_factors,
    render_cyclotomic,
)
from permchar.dixon import character_table

_ZERO, _ONE = Fraction(0), Fraction(1)


class _Context:
    """Per-conductor reduction data."""

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
        """Data for testing/rewriting into Q(zeta_{n/p})."""
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
        cols = [_reduce_mod(_monomial((j * (n // d)) % n), self) for j in range(phid)]
        rows, inv = _pivot_inverse(cols, self.phi, phid)
        data = (d, gen, cols, rows, inv)
        self.descents[p] = data
        return data


@lru_cache(maxsize=None)
def _context(n: int) -> _Context:
    return _Context(n)


def _monomial(k: int) -> list:
    out = [_ZERO] * (k + 1)
    out[k] = _ONE
    return out


def _reduce_mod(coeffs: list, ctx: _Context) -> tuple:
    """Reduce a low-to-high coefficient list modulo Phi_n."""
    phi = ctx.phi
    coeffs = list(coeffs)
    if len(coeffs) <= 2 * phi - 1:
        out = [Fraction(c) for c in coeffs[:phi]] + [_ZERO] * (phi - min(len(coeffs), phi))
        for k in range(phi, len(coeffs)):
            c = coeffs[k]
            if c:
                row = ctx.powers[k - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)
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
        i, v, nz = found
        used[i] = True
        rows.append(i)
        basis.append(([a / v[nz] for a in v], nz))
    square = [[cols[j][i] for j in range(ncols)] for i in rows]
    return rows, _invert_matrix(square)


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
            y = [sum(inv[i][j] * coords[rows[j]] for j in range(len(rows)))
                 for i in range(len(rows))]
            if gen is None:
                # kernel trivial (n = 2d, d odd): check the solve
                if any(sum(cols[j][i] * y[j] for j in range(len(y))) != coords[i]
                       for i in range(len(coords))):
                    continue
            n, coords = d, tuple(y)
            descended = True
            break
        if not descended:
            return n, coords
    return n, coords


def oracle_canonical(n: int, terms) -> tuple:
    """(conductor, coords) of sum_i terms[i] zeta_n^i by the oracle."""
    return _minimize(n, _reduce_mod(list(terms), _context(n)))


def _oracle_parse(text: str) -> tuple:
    """An entry of a table file, as (coeff, n, k) terms summed at the lcm
    of their orders and canonicalized by the oracle."""
    terms = []
    for sign, coeff, n, k, rat in re.findall(
        r"([+-]?)(?:(?:([0-9/]+)\*)?E\((\d+)\)(?:\^(\d+))?|([0-9/]+))", text
    ):
        s = -1 if sign == "-" else 1
        if rat:
            terms.append((s * Fraction(rat), 1, 0))
        else:
            terms.append((s * Fraction(coeff or 1), int(n), int(k or 1)))
    m = lcm(*(n for _, n, _ in terms))
    vec = [_ZERO] * m
    for c, n, k in terms:
        vec[k % n * (m // n)] += c
    return oracle_canonical(m, vec)


def test_root_of_unity_spec_examples():
    # Cyclotomic(n, [0] * k + [1]) is zeta_n^k
    assert Cyclotomic(1, [1]) == 1
    assert Cyclotomic(4, [0, 0, 1]) == -1
    assert Cyclotomic(6, [0, 0, 0, 1]) == -1
    with pytest.raises(ValueError):
        Cyclotomic(0, [1])


def test_arith_spec_examples():
    # zeta_3^3 = 1: indices are taken mod n
    assert Cyclotomic(3, [0, 0, 0, 1]) == 1
    # (zeta_8 + zeta_8^7)^2 = zeta_8^2 + 2 + zeta_8^6 = 2
    assert Cyclotomic(8, [2, 0, 1, 0, 0, 0, 1]) == 2
    # v = zeta_5 + zeta_5^4 is real, not rational, and v^2 + v - 1 = 0:
    # v^2 = zeta_5^2 + 2 + zeta_5^3, so v^2 + v - 1 = 1 + zeta_5 + .. + zeta_5^4
    v = Cyclotomic(5, [0, 1, 0, 0, 1])
    assert v.galois(-1) == v and not v.is_rational()
    assert Cyclotomic(5, [1, 1, 1, 1, 1]).is_zero()


def test_conjugation():
    z5 = Cyclotomic(5, [0, 1])
    assert z5.galois(-1) == Cyclotomic(5, [0, 0, 0, 0, 1])
    assert z5.galois(-1).galois(-1) == z5
    z3 = Cyclotomic(3, [0, 1])
    assert z3.galois(-1) != z3
    # zeta_3 + zeta_3^2 = -1
    assert Cyclotomic(3, [0, 1, 1]).is_rational()
    with pytest.raises(ValueError):
        Cyclotomic(6, [0, 0, 1]).galois(3)


def test_predicates_spec_examples():
    five = Cyclotomic.rational(5)
    assert five.is_rational() and five.galois(-1) == five and five.as_rational() == 5
    z3 = Cyclotomic(3, [0, 1])
    assert not z3.is_rational() and z3.galois(-1) != z3 and z3.as_rational() is None
    v = Cyclotomic(5, [0, 1, 0, 0, 1])
    assert not v.is_rational() and v.galois(-1) == v and v.as_rational() is None
    assert Cyclotomic(7, [0]).is_zero() and not five.is_zero()


def test_conductor_minimization():
    # zeta_6 lives in Q(zeta_3)
    assert Cyclotomic(6, [0, 1]).conductor == 3
    # (zeta_8 + zeta_8^7)^2 = 2 is rational
    assert Cyclotomic(8, [2, 0, 1, 0, 0, 0, 1]).conductor == 1
    # sums of a full Galois orbit are rational
    assert Cyclotomic(7, [0, 1, 1, 1, 1, 1, 1]) == -1


def test_cyclotomic_polynomial_values():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]
    assert euler_phi(12) == 4


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    coords = [draw(small_rationals) for _ in range(euler_phi(n))]
    return Cyclotomic(n, tuple(coords))


@settings(max_examples=50, deadline=None)
@given(cyclotomics())
def test_reduction_idempotence(a):
    again = Cyclotomic(a.conductor, a.coords)
    assert again == a and again.conductor == a.conductor


def test_render_parse_round_trip():
    cases = ["-3/2", "2*E(5)+2*E(5)^4", "E(11)+E(11)^3", "1+E(3)", "-E(7)^2-3*E(7)", "0"]
    for s in cases:
        v = parse_cyclotomic(s)
        assert parse_cyclotomic(render_cyclotomic(v)) == v


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_render_parse_identity(a):
    assert parse_cyclotomic(render_cyclotomic(a)) == a


def test_parse_rejects_garbage():
    for bad in ["", "E(5)^", "E()", "¤", "2**E(5)", "E(0_3)", "E(\u0663)", "E(5)^1_0",
                "E(5)^\u0662", "E(+3)", "E(5)^-1"]:
        with pytest.raises(ValueError):
            parse_cyclotomic(bad)


def test_algebraic_integrality_of_roots():
    z = Cyclotomic(12, [0, 0, 0, 0, 0, 1])
    assert all(c.denominator == 1 for c in z.coords)


def test_parse_bounds_the_conductor():
    assert parse_cyclotomic(f"E({MAX_CONDUCTOR})").conductor == MAX_CONDUCTOR
    for bad in [f"E({MAX_CONDUCTOR + 1})", "E(100000)", "E(+100000)", "E(1_00000)",
                "E(5000)+E(5001)", "E(0)", "E(-3)"]:
        with pytest.raises(ValueError):
            parse_cyclotomic(bad)


def _seeded_vectors(n: int, rng: random.Random):
    """Group-ring vectors of length n: dense, sparse, lifted from a
    subfield Q(zeta_d), and sums over a Galois orbit (values in subfields
    that are not cyclotomic)."""

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))

    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    for _ in range(10):
        yield [coeff() if rng.random() < 0.6 else 0 for _ in range(n)]
        vec = [0] * n
        for _ in range(rng.randint(1, 3)):
            vec[rng.randrange(n)] += coeff()
        yield vec
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        vec = [0] * n
        for j in range(d):
            vec[j * (n // d)] = coeff() if rng.random() < 0.6 else 0
        vec[0] += coeff()
        yield vec
        k, j, c = rng.choice(units), rng.randrange(n), coeff()
        vec = [0] * n
        x = j
        while True:
            vec[x] += c
            x = x * k % n
            if x == j:
                break
        yield vec


def test_canonical_form_matches_oracle_on_seeded_vectors():
    rng = random.Random(5)
    for n in range(1, 91):
        for vec in _seeded_vectors(n, rng):
            v = Cyclotomic(n, vec)
            assert (v.conductor, v.coords) == oracle_canonical(n, vec), (n, vec)


@pytest.mark.parametrize("name", ["s3", "s4", "a5", "d10", "q8", "sl23", "psl3_2",
                                  "m11", "m22", "m23"])
def test_canonical_form_matches_oracle_on_bundled_tables(name):
    text = (data_dir() / "tables" / f"{name}.ctbl").read_text()
    entries = {tok for line in text.splitlines() if line.startswith("chi ")
               for tok in line.split()[1:]}
    for tok in entries:
        v = parse_cyclotomic(tok)
        assert (v.conductor, v.coords) == _oracle_parse(tok), tok


_GRAMMAR_PIECES = ["E(", ")", "^", "2*", "1/2", "0.5", "E(0)", "E(10000)", "E(10001)", "3/0",
                   "+", "-", "*", "/", "3", "0", "7", " ", "E(4)", "E(5)", "E(3)^2",
                   "E(12)^7", "E(9)^3", "E(+3)", "E(1_0)", "٣", "e9"]


def _grammar_strings(count: int = 20000):
    """Seeded inputs for the value grammar: half drawn from the fuzz
    alphabet, half joined from term pieces so that many parse."""
    rng = random.Random(0)
    alphabet = "E()^*/+-_0123456789٣e. "
    out = []
    for _ in range(count // 2):
        out.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))
        out.append("".join(rng.choice(_GRAMMAR_PIECES) for _ in range(rng.randint(1, 5))))
    return out


def _grammar_outcome(text: str) -> str:
    try:
        return render_cyclotomic(parse_cyclotomic(text))
    except Exception as exc:
        return type(exc).__name__


# A change that alters the grammar on purpose updates both pins.
GRAMMAR_ACCEPTED = 2060
GRAMMAR_DIGEST = "718771b7c87efdf9b9bec28bbc135e131f811fda732a9ea7911564f55be5ca72"


def test_value_grammar_matches_its_pinned_digest():
    """Accept/reject and the rendered value of 20,000 seeded strings,
    pinned by sha256 (an error counts as its class name, not its message)."""
    outcomes = [_grammar_outcome(s) for s in _grammar_strings()]
    assert sum(o != "ValueError" for o in outcomes) == GRAMMAR_ACCEPTED
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == GRAMMAR_DIGEST


@pytest.mark.parametrize("family", ["psl2_7", "c12", "agl1_13", "f13_3"])
def test_equal_values_hash_equal_however_built(family):
    """The hash is kept on first use, so equal values built by Dixon's
    lift, by `parse_cyclotomic` and by `galois` must hash equal whichever
    is hashed first."""
    T = character_table(corpus.build(family).group, name=family)
    lifted = [v for row in T.rows for v in row.values]
    assert any(not v.is_rational() for v in lifted)
    for v in lifted:
        parsed = parse_cyclotomic(render_cyclotomic(v))
        assert hash(parsed) == hash(v) and parsed == v
        n = v.conductor
        for k in (k for k in range(2, n) if gcd(k, n) == 1):
            w = v.galois(k)
            back = w.galois(pow(k, -1, n))
            assert back == v and hash(back) == hash(v)
            again = parse_cyclotomic(render_cyclotomic(w))
            assert hash(again) == hash(w)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(-2), Fraction(3, 4), Fraction(-7, 12)])
def test_a_rationals_hash_is_its_fractions(q):
    for v in (Cyclotomic.rational(q), parse_cyclotomic(str(q)), Cyclotomic(1, (q,))):
        assert hash(v) == hash(q) == hash(v)  # computed, then kept
        assert {q: "found"}[v] == "found"
