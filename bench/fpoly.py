"""Polynomials over F_p for the benchmark's request generator and oracle.

A polynomial is a list of coefficients, lowest degree first, with no trailing
zeros; [] is zero.  This module deliberately shares no code with the package
under test, so a change to the package cannot change the generated requests
or the reference answers they are checked against.
"""

from __future__ import annotations

import random
import re


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a, b, p):
    return add(a, [(-c) % p for c in b], p)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def divmod_(a, b, p):
    """Quotient and remainder of a by a nonzero b."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], trim(rem)
    inv = pow(b[-1], -1, p)
    q = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            f = c * inv % p
            q[i - db] = f
            for j, y in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - f * y) % p
    return trim(q), trim(rem[:db])


def monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a, b, p):
    while b:
        a, b = b, divmod_(a, b, p)[1]
    return monic(a, p)


def powmod(a, e, f, p):
    out, base = [1], divmod_(a, f, p)[1]
    while e:
        if e & 1:
            out = divmod_(mul(out, base, p), f, p)[1]
        base = divmod_(mul(base, base, p), f, p)[1]
        e >>= 1
    return out


def xn_minus_1(n, p):
    return [p - 1] + [0] * (n - 1) + [1]


def mod_xn_minus_1(a, n, p):
    out = [0] * n
    for i, c in enumerate(a):
        out[i % n] = (out[i % n] + c) % p
    return trim(out)


def split_power(n, p):
    """(a, m) with n = p^a * m and gcd(m, p) = 1."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a, n


def coset_sizes(p, m):
    """Sizes of the p-cyclotomic cosets modulo m: the degrees of the
    irreducible factors of x^m - 1 over F_p (gcd(m, p) = 1)."""
    seen, sizes = set(), []
    for s in range(m):
        if s in seen:
            continue
        size, t = 0, s
        while t not in seen:
            seen.add(t)
            t = t * p % m
            size += 1
        sizes.append(size)
    return sizes


def _equal_degree_split(f, d, p, rng):
    """Irreducible factors of f, a product of distinct degree-d irreducibles."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        if p == 2:
            t, s = list(a), list(a)
            for _ in range(d - 1):
                s = divmod_(mul(s, s, p), f, p)[1]
                t = add(t, s, p)
        else:
            t = sub(powmod(a, (p ** d - 1) // 2, f, p), [1], p)
        g = gcd(f, t, p) if t else f
        if 0 < len(g) - 1 < len(f) - 1:
            h = divmod_(f, g, p)[0]
            return (_equal_degree_split(g, d, p, rng)
                    + _equal_degree_split(monic(h, p), d, p, rng))


def factor_xn_minus_1(n, p):
    """Irreducible factors of x^n - 1 over F_p as sorted (factor, multiplicity).

    Distinct-degree then Cantor-Zassenhaus equal-degree splitting of the
    squarefree part x^m - 1, seeded by (p, n) so the result is deterministic.
    """
    a, m = split_power(n, p)
    rng = random.Random(f"factor:{p}:{m}")
    f = xn_minus_1(m, p)
    out, d, xp = [], 1, [0, 1]
    while len(f) > 1:
        if 2 * d > len(f) - 1:
            out.append(f)
            break
        xp = powmod(xp, p, f, p)
        g = gcd(f, sub(xp, [0, 1], p), p)
        if len(g) > 1:
            out.extend(_equal_degree_split(g, d, p, rng))
            f = divmod_(f, g, p)[0]
            xp = divmod_(xp, f, p)[1]
        d += 1
    out.sort(key=lambda q: (len(q), q))
    return [(q, p ** a) for q in out]


def product(polys, p):
    out = [1]
    for q in polys:
        out = mul(out, q, p)
    return out


# -- the CLI's polynomial grammar ---------------------------------------------

def fmt(a):
    """Render in the CLI grammar, highest degree first (`x^2+2x+1`)."""
    if not a:
        return "0"
    terms = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if not c:
            continue
        var = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        terms.append(str(c) if e == 0 else (var if c == 1 else f"{c}{var}"))
    return "+".join(terms)


_TERM = re.compile(r"(\d*)(x(?:\^(\d+))?)?")


def parse(text, p):
    """Inverse of fmt for the sums of `c`, `x`, `x^e`, `cx^e` the CLI prints."""
    text = text.strip()
    if text == "0":
        return []
    coeffs = {}
    for term in text.split("+"):
        m = _TERM.fullmatch(term)
        if not m or not term:
            raise ValueError(f"unparseable term {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        e = 0 if not m.group(2) else int(m.group(3) or 1)
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return trim(out)


def parse_layers(text, p, k):
    layers = [parse(t, p) for t in text.split(";")]
    return layers + [[] for _ in range(k - len(layers))]
