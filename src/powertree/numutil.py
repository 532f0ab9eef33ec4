"""Integer helpers: primality, factorization, totients, divisor lists."""

from __future__ import annotations

import math
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


def _brent_rho(n: int, seed: int, max_iter: int) -> int | None:
    """One Brent-cycle attempt at a nontrivial factor of composite odd n."""
    y, c, m = seed % n, seed % n + 1, 128
    g, r, q = 1, 1, 1
    x = ys = y
    count = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            count += m
            if count > max_iter:
                return None
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def _factor_into(n: int, out: dict[int, int], budget: int) -> bool:
    """Accumulate prime factors of n into out; False if budget ran out."""
    if n == 1:
        return True
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return True
    for seed in range(1, 9):
        d = _brent_rho(n, seed, budget)
        if d is not None and 1 < d < n:
            return _factor_into(d, out, budget) and _factor_into(n // d, out, budget)
    return False


def try_factorize(n: int) -> dict[int, int] | None:
    """Full prime factorization of n >= 1, or None when it resists the budget."""
    if n < 1:
        raise ValueError("factorization requires a positive integer")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1 and not _factor_into(n, out, budget=400_000):
        return None
    return out


@lru_cache(maxsize=None)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; raises if the rho budget is exhausted."""
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


def format_factored(factors: dict[int, int] | None, value: int | None = None) -> str:
    """Render {2: 14, 3: 6, 5: 1, 131: 1} as '2^14*3^6*5*131'.

    An empty factorization renders as '1'; None falls back to the decimal
    value (mandatory then).
    """
    if factors is None:
        if value is None:
            raise ValueError("need a value to fall back to")
        return str(value)
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
