"""Integer helpers: primality, factorization, totients, divisor lists.

Factorization divides out the primes below 100000 and splits what is left by
Lenstra's elliptic-curve method (ECM) on Montgomery curves. One call of
`try_factorize` gets ECM_CURVES curves in all, shared by every cofactor it
splits off. The budget counts curves, not time, so a result depends only on n.
"""

from __future__ import annotations

import bisect
import math
import sys
from functools import lru_cache

# The first 13 primes as witnesses make Miller-Rabin deterministic below
# psi_13 = 3317044064679887385961981, the smallest strong pseudoprime to all
# of them; above that the test is a strong probable-prime check.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(n + 1, 2)
    while not is_prime(c):
        c += 1
    return c


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


_TRIAL_PRIMES = primes_upto(100_000)


# Lenstra's elliptic-curve method on Montgomery curves By^2 = x^3 + Ax^2 + x,
# points as (X : Z) with a24 = (A + 2) / 4. A curve finds a prime p of n when
# its group order mod p is B1-smooth but for one prime in (B1, B2], where
# B2 is the largest trial prime.
_ECM_B1 = 2_000
_ECM_D = 210  # stage-2 giant step; 2*3*5*7, so every prime above B1 is m*D +- j
# Curves per try_factorize call, shared by every cofactor. Curve sigma uses
# u = sigma^2 - 5 < 100000 here, so 16u^3v is prime to n, whose prime factors
# all exceed the trial primes, and a24 always exists.
ECM_CURVES = 80


def _x_add(p, q, diff, n):
    """x-coordinate of p + q from those of p, q and p - q."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _x_dbl(p, a24, n):
    """x-coordinate of 2p."""
    s = (p[0] + p[1]) ** 2 % n
    d = (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _ladder(p, k, a24, n):
    """[k]p for k >= 1 by the Montgomery ladder."""
    r0, r1 = p, _x_dbl(p, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            r0, r1 = _x_add(r1, r0, p, n), _x_dbl(r1, a24, n)
        else:
            r0, r1 = _x_dbl(r0, a24, n), _x_add(r1, r0, p, n)
    return r0


def _ecm_curve(n: int, sigma: int) -> int | None:
    """A nontrivial factor of composite n from Suyama's curve sigma, or None."""
    u, v = sigma * sigma - 5, 4 * sigma
    a24 = (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, n) % n
    q = (u**3 % n, v**3 % n)
    split = bisect.bisect_right(_TRIAL_PRIMES, _ECM_B1)
    # stage 1: [p^e]q for every prime power p^e <= B1; a gcd per prime, so
    # primes of n that the curve finds at different p^e still come apart
    for p in _TRIAL_PRIMES[:split]:
        pe = p
        while pe * p <= _ECM_B1:
            pe *= p
        q = _ladder(q, pe, a24, n)
        g = math.gcd(q[1], n)
        if g > 1:
            return g if g < n else None
    # stage 2: a prime r = m*D +- j kills q mod p iff x([m*D]q) = x([j]q) mod p
    twice = _x_dbl(q, a24, n)
    baby = {1: q, 3: _x_add(twice, q, q, n)}
    for j in range(5, _ECM_D // 2, 2):
        baby[j] = _x_add(baby[j - 2], twice, baby[j - 4], n)
    m = _ECM_B1 // _ECM_D
    step = _ladder(q, _ECM_D, a24, n)
    prev, giant = _ladder(q, (m - 1) * _ECM_D, a24, n), _ladder(q, m * _ECM_D, a24, n)
    acc = 1
    for r in _TRIAL_PRIMES[split:]:
        while m * _ECM_D + _ECM_D // 2 < r:
            g = math.gcd(acc, n)
            if g > 1:
                return g if g < n else None
            prev, giant = giant, _x_add(giant, step, prev, n)
            m += 1
        x, z = baby[abs(r - m * _ECM_D)]
        acc = acc * (giant[0] * z - x * giant[1]) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _factor_into(n: int, out: dict[int, int], sigmas) -> bool:
    """Accumulate prime factors of n into out; False once sigmas run out.

    n has no prime factor among the trial primes; sigmas is the iterator of
    curves left to the whole try_factorize call.
    """
    if n == 1:
        return True
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return True
    for sigma in sigmas:
        d = _ecm_curve(n, sigma)
        if d is not None:
            return _factor_into(d, out, sigmas) and _factor_into(n // d, out, sigmas)
    return False


def try_factorize(n: int) -> dict[int, int] | None:
    """Full prime factorization of n >= 1, or None when ECM_CURVES curves fail."""
    if n < 1:
        raise ValueError("factorization requires a positive integer")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if 1 < n < _TRIAL_PRIMES[-1] ** 2:  # no trial prime divides n, so n is prime
        out[n] = 1
    elif n > 1:
        # Suyama sigma = 5 gives u = v, a singular curve
        if not _factor_into(n, out, iter(range(6, 6 + ECM_CURVES))):
            return None
    return out


@lru_cache(maxsize=None)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; raises when the curve budget runs out."""
    out = try_factorize(n)
    if out is None:
        raise ValueError(f"could not factor {n}")
    return dict(out)


def phi(n: int) -> int:
    """Euler totient."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    result = 1
    while n % p == 0:
        result *= p
        n //= p
    return result


def format_decimal(value: int) -> str:
    """Decimal digits of value, also past the interpreter's int-to-str limit.

    The limit stays in force because it also guards parsing of spec text;
    values above it are split on a power of 10 into halves that fit.
    Interpreters before Python 3.10.7 have no such limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 3 bits per digit undercounts log2(10), so this bound stays under the limit
    if not limit or value.bit_length() <= 3 * limit:
        return str(value)
    if value < 0:
        return "-" + format_decimal(-value)
    half = value.bit_length() * 3 // 20  # about half the digit count
    high, low = divmod(value, 10**half)
    return format_decimal(high) + format_decimal(low).zfill(half)


def format_factored(factors: dict[int, int] | None, value: int | None = None) -> str:
    """Render {2: 14, 3: 6, 5: 1, 131: 1} as '2^14*3^6*5*131'.

    An empty factorization renders as '1'; None renders the decimal value.
    """
    if factors is None:
        return format_decimal(value)
    if not factors:
        return "1"
    parts = []
    for p in sorted(factors):
        e = factors[p]
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "*".join(parts)


def parse_factored(text: str) -> int:
    """Inverse of format_factored for golden-table literals ('0' allowed)."""
    text = text.strip()
    if text == "0":
        return 0
    value = 1
    for part in text.split("*"):
        if "^" in part:
            base, exp = part.split("^")
            value *= int(base) ** int(exp)
        else:
            value *= int(part)
    return value
