"""Character tables via the Dixon-Schneider method.

Class-multiplication structure constants are computed exactly; the table
is first found modulo a prime p = 1 (mod exp(G)) with p > 2*sqrt(|G|) by
splitting the common eigenspaces of the class matrices, then lifted to
exact cyclotomic values by the discrete Fourier sum over each element
order. The lifted table is validated (row orthogonality, which implies
column orthogonality for a square table) before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter, mul

from .charfun import CharacterTable
from .classes import conjugacy_classes
from .cyclo import Cyclotomic, prime_factors
from .group import PermGroup
from .perm import packed_multiplier, packer

# -- modular number theory helpers ---------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def dixon_prime(exponent: int, group_order: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p^2 > 4*|G|."""
    p = exponent + 1
    while True:
        if p * p > 4 * group_order and is_prime(p):
            return p
        p += exponent


def primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
        g += 1


def _poly_mul_mod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_rem(out, f, p)


def _poly_rem(a, f, p):
    """a mod f over F_p. The coefficients of a may be any ints: they
    accumulate unreduced and each is reduced once, when it is read."""
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            for j in range(df):
                a[i - df + j] -= c * f[j]
    return _trim([x % p for x in a[:df]])


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, _poly_rem(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def poly_roots_mod(f, p: int) -> list:
    """Distinct roots in F_p of the polynomial f (low-to-high coeffs),
    sorted. Degrees 1 and 2 are solved in closed form."""
    f = _trim([c % p for c in f])
    if len(f) <= 1:
        return []
    if p == 2:
        return [x for x, v in enumerate((f[0], sum(f))) if v % 2 == 0]
    if len(f) <= 3:
        return _low_degree_roots(f, p)
    # keep only the part splitting into distinct linear factors
    xp_minus_x = _pow_linear_mod(0, p, f, p) + [0, 0]
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    roots = []
    _split_linear(_poly_gcd(f, xp_minus_x, p), p, 0, roots)
    return sorted(roots)


def _low_degree_roots(f, p):
    """Sorted distinct roots of f, trimmed and of degree at most 2, over
    F_p for odd p: -c/b, or the quadratic formula."""
    if len(f) <= 2:
        return [-f[0] * pow(f[1], p - 2, p) % p] if len(f) == 2 else []
    c, b, a = f
    disc = (b * b - 4 * a * c) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return []
    inv_2a = pow(2 * a, p - 2, p)
    r = _sqrt_mod(disc, p)
    return sorted({(-b - r) * inv_2a % p, (-b + r) * inv_2a % p})


def _sqrt_mod(a, p):
    """A square root of the square a modulo the odd prime p (Tonelli-Shanks)."""
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then c^(2^(s-i-1)) fixes one more bit
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def _split_linear(g, p, shift, roots):
    """Roots of g, a product of distinct linear factors over F_p (p odd):
    degree at most 2 in closed form, higher degrees by equal-degree
    splitting with a deterministic shift sequence."""
    deg = len(g) - 1
    if deg <= 2:
        roots.extend(_low_degree_roots(g, p))
        return
    a = shift
    while True:
        # h = (x + a)^((p-1)/2) - 1 mod g
        h = _pow_linear_mod(a, (p - 1) // 2, g, p) or [0]
        h[0] = (h[0] - 1) % p
        d = _poly_gcd(g, h, p)
        if 0 < len(d) - 1 < deg:
            _split_linear(d, p, a + 1, roots)
            _split_linear(_poly_exact_div(g, d, p), p, a + 1, roots)
            return
        a += 1


def _pow_linear_mod(a, e, f, p):
    """(x + a)^e mod f over F_p, for deg f >= 2: square and multiply from
    the top bit, where multiplying by x + a is a shift and one reduction."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _poly_mul_mod(r, r, f, p)
        if bit == "1":
            shifted = [0, *r]
            for i, c in enumerate(r):
                shifted[i] += a * c
            r = _poly_rem(shifted, f, p)
    return r


def _poly_exact_div(a, b, p):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead % p
        q[i] = c
        if c:
            for j in range(len(b) - 1):
                a[i + j] -= c * b[j]
    return q


# -- class matrices ---------------------------------------------------------------


def class_matrix(C, i: int, rows=None) -> list:
    """Rows of the structure constants for acting class i: entries[j][k] is
    #{x in class i : x^-1 * z_k in class j}, z_k the rep of class k. Rows
    not in `rows` are None (all are computed when it is None); the rest
    come whole from one pass over class i by Schneider's identity

        entries[r][c] = |C_r| * #{x in C_i : x * z_r in C_c} / |C_c|,

    classifying each product with `C.classify`; class i is read from
    `C.elements(i)`, whose members are packed (`perm.packer`), and each
    product x * z_r is formed packed by `perm.packed_multiplier`: one
    `bytes.translate` up to degree 256."""
    k = len(C.reps)
    rows = range(k) if rows is None else sorted(rows)
    entries = [None] * k
    if rows and rows[0] == 0:
        # z_0 is the identity and every x lies in C_i
        entries[0] = [int(c == i) for c in range(k)]
        rows = rows[1:]
    classify = C.classify
    sizes = C.sizes
    times = [packed_multiplier(C.reps[r].images) for r in rows]
    counts = [[0] * k for _ in rows]
    if rows:
        for x in C.elements(i):
            for count, times_z in zip(counts, times):
                count[classify(times_z(x))] += 1
    for r, count in zip(rows, counts):
        row = entries[r] = []
        for c in range(k):
            a, rem = divmod(sizes[r] * count[c], sizes[c])
            if rem:
                raise AssertionError(f"class matrix {i}: entry ({r}, {c}) is not an integer")
            row.append(a)
    return entries


# -- eigenspace splitting -----------------------------------------------------------


def _charpoly_mod(mat, p):
    """det(xI - mat) over F_p via Hessenberg reduction (works for any p,
    unlike point interpolation, which needs p > dim)."""
    d = len(mat)
    H = [[x % p for x in row] for row in mat]
    for col in range(d - 2):
        piv = next((r for r in range(col + 1, d) if H[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[piv], H[col + 1] = H[col + 1], H[piv]
            for row in H:
                row[piv], row[col + 1] = row[col + 1], row[piv]
        inv = pow(H[col + 1][col], p - 2, p)
        for r in range(col + 2, d):
            f = H[r][col] * inv % p
            if f:
                H[r] = [(a - f * b) % p for a, b in zip(H[r], H[col + 1])]
                for rr in range(d):
                    H[rr][col + 1] = (H[rr][col + 1] + f * H[rr][r]) % p
    # charpoly recurrence for Hessenberg matrices
    polys = [[1]]
    for k in range(1, d + 1):
        prev = polys[k - 1]
        cur = [0] + list(prev)
        hkk = H[k - 1][k - 1]
        for j in range(len(prev)):
            cur[j] = (cur[j] - hkk * prev[j]) % p
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = prod * H[i + 1][i] % p
            if prod == 0:
                break
            f = H[i][k - 1] * prod % p
            if f:
                pi = polys[i]
                for j in range(len(pi)):
                    cur[j] = (cur[j] - f * pi[j]) % p
        polys.append(cur)
    return polys[d]


def _rref(mat, p):
    """Reduced row echelon form of mat over F_p, as (pivots, rows): the
    nonzero rows, row t 1 at column pivots[t] and 0 at the other pivots.
    The pivots ascend: they are the columns where the rank of the leading
    columns rises."""
    rows = [[x % p for x in row] for row in mat]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[r])]
        pivots.append(col)
    return pivots, rows[:len(pivots)]


def _kernel_mod(mat, p):
    """Basis of the kernel of mat (d x d) over F_p: one vector per column
    off the pivots of its RREF."""
    pivots, rows = _rref(mat, p)
    basis = []
    for f in (c for c in range(len(mat)) if c not in pivots):
        v = [0] * len(mat)
        v[f] = 1
        for col, row in zip(pivots, rows):
            v[col] = -row[f] % p
        basis.append(v)
    return basis


# -- the Dixon-Schneider driver --------------------------------------------------------


def character_table(G: PermGroup, C=None, name: str = "") -> CharacterTable:
    """Ordinary character table of an enumerable group.

    Deterministic: classes in their canonical order, rows sorted by degree
    and then by value tuples. `C`, the class data (enumerated when None),
    is `group`, `reps`, `sizes`, `orders`, `classify` (element, as an
    image tuple or packed by `perm.packer`, -> class index; class 0 is the
    identity) and `elements` (class index -> an iterable of its members,
    packed): the exponent, inverse map and power maps are derived
    here. Class matrices are consumed smallest first until one splits no
    space; from then on a class that is rational (its coprime powers lie
    in it) or a coprime power of a consumed class goes last, as it rarely
    splits anything: the first cannot separate Galois-conjugate
    characters, the second carries the Galois images of eigenvalues
    already used. This is an order, not a skip; the table does not depend
    on it.
    """
    if C is None:
        C = conjugacy_classes(G)
    k = len(C.reps)
    order = G.order()
    if k == 1:
        table = CharacterTable(name or "trivial", 1, [1], [1], {2: (0,)}, [[Fraction(1)]])
        table.validate()
        return table
    orders = C.orders
    exponent = lcm(*orders)
    p = dixon_prime(exponent, order)
    w = primitive_root(p)
    z_e = pow(w, (p - 1) // exponent, p)

    # powers[t][s] is the class of rep_t^s for 0 <= s < orders[t]: the lift
    # reads these, and they hold the inverse map (s = orders[t] - 1) and the
    # prime power maps (s = p mod orders[t])
    powers = []
    pack = packer(G.degree)
    for r, m in zip(C.reps, orders):
        times_r, row = packed_multiplier(r.images), [0]
        x = pack(r.images)
        for _ in range(1, m):
            row.append(C.classify(x))
            x = times_r(x)
        powers.append(row)
    coprime = [{row[s] for s in range(1, m) if gcd(s, m) == 1} for row, m in zip(powers, orders)]
    # classes that rarely split anything: the rational ones, joined below
    # by the coprime powers of each class consumed
    unlikely = {t for t in range(1, k) if coprime[t] <= {t}}

    # split common eigenspaces of the class matrices over F_p, stopping
    # once every space is one-dimensional. Each space is (pivots, rows) in
    # RREF, so each matrix is computed only at the rows the unsplit spaces
    # read: their pivots and one check row each
    spaces = [(list(range(k)), [[int(i == j) for j in range(k)] for i in range(k)])]
    pending = sorted(range(1, k), key=lambda c: (C.sizes[c], c))
    stalled = False
    while pending and any(len(piv) > 1 for piv, _ in spaces):
        i = _next_class(pending, unlikely if stalled else ())
        pending.remove(i)
        rows = {r for piv, _ in spaces if len(piv) > 1 for r in piv}
        checks = [None] * len(spaces)
        for t, (piv, _) in enumerate(spaces):
            if 1 < len(piv) < k:
                # a row another space reads anyway makes a check row for free
                checks[t] = min(rows.difference(piv) or set(range(k)).difference(piv))
                rows.add(checks[t])
        split = _resplit(spaces, checks, class_matrix(C, i, rows), p)
        stalled = stalled or len(split) == len(spaces)
        spaces = split
        unlikely |= coprime[i]
    if any(len(piv) > 1 for piv, _ in spaces):
        raise AssertionError("eigenspace splitting failed to reach dimension one")

    # assemble omega vectors, normalized so the identity coordinate is 1
    omegas = []
    for _, (v,) in spaces:
        if v[0] == 0:
            raise AssertionError("eigenvector with zero identity coordinate")
        inv = pow(v[0], p - 2, p)
        omegas.append([x * inv % p for x in v])

    inverse_map = [row[-1] for row in powers]
    # prime 2 is always stored: indicator sums square class reps even in
    # odd-order groups
    power_maps = {
        q: tuple(row[q % m] for row, m in zip(powers, orders))
        for q in sorted({2, *prime_factors(exponent)})
    }
    sizes = C.sizes
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    # per element order m: the Fourier matrix (z^-(s*t)) mod p for z a
    # primitive m-th root of unity mod p, and 1/m mod p
    fourier = {}
    for m in set(orders):
        zm_inv = pow(pow(z_e, exponent // m, p), p - 2, p)
        zpow = [pow(zm_inv, e, p) for e in range(m)]
        fourier[m] = ([[zpow[s * t % m] for s in range(m)] for t in range(m)], pow(m, p - 2, p))
    rows = []
    # values recur across rows and columns (Galois conjugates, repeated
    # entries): lift each once, keyed by the values mod p at the powers of
    # the rep, a tuple of length o(rep) whose first entry is chi(1)
    lifted = {}
    for om in omegas:
        s = sum(om[t] * om[inverse_map[t]] % p * inv_sizes[t] for t in range(k)) % p
        deg_sq = order * pow(s, p - 2, p) % p
        # chi(1) <= sqrt|G| < p/2, so chi(1) is the one d in that range
        # with d^2 = deg_sq (mod p)
        deg = next((d for d in range(1, isqrt(order) + 1) if d * d % p == deg_sq), None)
        if deg is None:
            raise AssertionError(f"no degree d <= sqrt|G| has d^2 = {deg_sq} mod {p}")
        chi_mod = [om[t] * deg % p * inv_sizes[t] % p for t in range(k)]
        values = [Cyclotomic.rational(deg)]
        for t in range(1, k):
            m = orders[t]
            chis = tuple([chi_mod[c] for c in powers[t]])
            value = lifted.get(chis)
            if value is None:
                dft, inv_m = fourier[m]
                coeffs = [0] * m
                for texp in range(m):
                    mt = sum(map(mul, chis, dft[texp])) % p * inv_m % p
                    # true multiplicities are at most the degree < p/2
                    if 2 * mt >= p:
                        raise AssertionError("eigenvalue multiplicity exceeded the prime bound")
                    coeffs[texp] = mt
                if sum(coeffs) != deg:
                    raise AssertionError("eigenvalue multiplicities do not sum to the degree")
                value = lifted[chis] = Cyclotomic(m, coeffs)
            values.append(value)
        rows.append(values)

    rows.sort(key=_row_key)
    table = CharacterTable(name or f"order{order}", order, sizes, orders, power_maps, rows)
    table.validate()
    return table


_numerator = attrgetter("numerator")


def _row_key(values) -> tuple:
    """(degree, not trivial, (conductor, coordinates) of each value), all
    ints. A character value is an algebraic integer and the power basis of
    Q(zeta_n) is an integral basis, so the coordinates are integers and
    their numerators order the rows as the Fraction coordinates did."""
    ints = [(v.conductor, tuple(map(_numerator, v.coords))) for v in values]
    return ints[0][1][0], any(key != (1, (1,)) for key in ints), ints


def _next_class(pending, skip):
    """The class to consume next: the first of `pending` (sorted by size)
    not in `skip`, or the first of all when every pending class is."""
    return next((c for c in pending if c not in skip), pending[0])


def _resplit(spaces, checks, A, p):
    """Split each space (pivots, rows) by the eigenvalues of A restricted
    to it. The rows are in RREF, so the basis coordinates of A*v are its
    entries at the pivots: an unsplit space reads A only at its pivot rows
    and at its check row checks[t] (None when the pivots are every row),
    where A*v must agree with the combination those coordinates give."""
    out = []
    for space, q in zip(spaces, checks):
        pivots, basis = space
        if len(pivots) == 1:
            out.append(space)
            continue
        # R[t][m] is coordinate t of A * basis[m]
        R = [[sum(map(mul, A[r], v)) % p for v in basis] for r in pivots]
        if q is not None:
            for m, v in enumerate(basis):
                if (sum(map(mul, A[q], v)) - sum(c[m] * b[q] for c, b in zip(R, basis))) % p:
                    raise ArithmeticError("vector escapes the subspace (not invariant?)")
        # the space is spanned by eigenvectors omega_chi, so A has one
        # eigenvalue on it exactly when R is scalar: then nothing splits
        # and the space keeps its basis
        lam = R[0][0]
        if all(x == (lam if a == b else 0) for a, row in enumerate(R) for b, x in enumerate(row)):
            out.append(space)
            continue
        cols = list(zip(*basis))
        for lam in poly_roots_mod(_charpoly_mod(R, p), p):
            shifted = [[x - lam * (a == b) for b, x in enumerate(row)] for a, row in enumerate(R)]
            sub = [[sum(map(mul, kv, col)) for col in cols] for kv in _kernel_mod(shifted, p)]
            if sub:
                out.append(_rref(sub, p))
    return out
