"""Integer helpers: primality, factorization, totients, divisor lists.

Factorization divides out the primes below 100000 by runs of 64, skipping a
run whose product is prime to n, and splits what is left by Lenstra's
elliptic-curve method (ECM) on Montgomery curves; no result is cached. One
call of `try_factorize` gets ECM_CURVES curves in all, shared by every
cofactor it splits off. The budget counts curves, not time, so a result
depends only on n.

`in_lanes` is the package's one way to use several cores: it yields fn(item)
in item order, with the items dealt round-robin to one lane per usable core, each
lane but this process's one helper forked once. A cofactor's first curve
runs here and the rest in lanes, so the curves spent and the factor found are
those of one curve after another, whatever the core count. What every curve
repeats, the stage-1 prime powers and the stage-2 pairs of primes m*D +- j, is
a plan built on the first curve. Stage 2 makes its points affine by batched
inversion, so each pair costs one product term.
"""

from __future__ import annotations

import bisect
import marshal
import math
import os
import sys
from collections import deque
from contextlib import closing
from functools import lru_cache
from itertools import accumulate, compress

from .errors import InvalidSpec, TooLarge

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
    """Primes up to n, ascending, from a sieve over the odd numbers only."""
    if n < 2:
        return []
    sieve = bytearray([1]) * ((n + 1) // 2)  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2  # the entry of p^2; each p-th one after it is an odd multiple
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return [2, *compress(range(1, n + 1, 2), sieve)]


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


@lru_cache(maxsize=None)
def _ecm_plan() -> tuple[tuple[str, ...], tuple[bytes, ...]]:
    """What every curve repeats, built on the first curve: (stage 1, stage 2).

    Stage 1 is bin(p^e)[3:] for each prime power p^e <= B1. Stage 2 holds,
    per giant step m = B1 // D, B1 // D + 1, ..., the j with m*D - j or
    m*D + j a prime in (B1, B2].
    """
    split = bisect.bisect_right(_TRIAL_PRIMES, _ECM_B1)
    stage1 = []
    for p in _TRIAL_PRIMES[:split]:
        pe = p
        while pe * p <= _ECM_B1:
            pe *= p
        stage1.append(bin(pe)[3:])
    # a prime r goes to the giant step m with |r - m*D| < D/2; when both
    # m*D - j and m*D + j are prime, one factor of the product serves both
    first = _ECM_B1 // _ECM_D
    pairs = [set() for _ in range(first, (_TRIAL_PRIMES[-1] + _ECM_D // 2) // _ECM_D + 1)]
    for r in _TRIAL_PRIMES[split:]:
        m = (r + _ECM_D // 2 - 1) // _ECM_D
        pairs[m - first].add(abs(r - m * _ECM_D))
    return tuple(stage1), tuple(bytes(sorted(js)) for js in pairs)


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


def _ladder(x, z, bits, a24, n):
    """[k]p for p = (x : z) and bits = bin(k)[3:], by the Montgomery ladder.

    Each step is _x_add(r1, r0, p) and one _x_dbl written out, to the same values.
    """
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    t = s - d
    x0, z0, x1, z1 = x, z, s * d % n, t * (d + a24 * t) % n
    for bit in bits:
        a, b, c, e = x0 + z0, x0 - z0, x1 + z1, x1 - z1
        u, v = e * a % n, c * b % n
        xs, zs = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n  # r0 + r1
        if bit == "1":
            s, d = c * c % n, e * e % n
            t = s - d
            x0, z0, x1, z1 = xs, zs, s * d % n, t * (d + a24 * t) % n
        else:
            s, d = a * a % n, b * b % n
            t = s - d
            x0, z0, x1, z1 = s * d % n, t * (d + a24 * t) % n, xs, zs
    return x0, z0


def _inverses(zs: list[int], n: int) -> list[int] | None:
    """The inverses of zs mod n by Montgomery's trick, one pow for all; None
    when one of them has none."""
    prefix = list(accumulate(zs, lambda a, z: a * z % n, initial=1))
    try:
        inv = pow(prefix[-1], -1, n)
    except ValueError:
        return None
    out = [0] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        out[i] = inv * prefix[i] % n
        inv = inv * zs[i] % n
    return out


_GIANT_CHUNK = 32  # giant steps made affine by one batched inversion


def _ecm_curve(n: int, sigma: int) -> int | None:
    """A nontrivial factor of composite n from Suyama's curve sigma, or None."""
    stage1, pairs = _ecm_plan()
    u, v = sigma * sigma - 5, 4 * sigma
    a24 = (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, n) % n
    x, z = u**3 % n, v**3 % n
    # stage 1: [p^e]q for every prime power p^e <= B1; a gcd per prime, so
    # primes of n that the curve finds at different p^e still come apart
    for bits in stage1:
        x, z = _ladder(x, z, bits, a24, n)
        g = math.gcd(z, n)
        if g > 1:
            return g if g < n else None
    # stage 2: a prime r = m*D +- j kills q mod p iff x([m*D]q) = x([j]q) mod p.
    # With both points affine the term is gx - bx, which differs from the
    # projective gx*bz - bx*gz by the unit 1/(gz*bz); a chunk whose z have no
    # batched inverse keeps the projective term, so every gcd below is that
    # of the projective product.
    q = x, z
    twice = _x_dbl(q, a24, n)
    baby = [None, q, None, _x_add(twice, q, q, n)]  # [j]q at index j, for odd j < D/2
    for j in range(5, _ECM_D // 2, 2):
        baby += [None, _x_add(baby[j - 2], twice, baby[j - 4], n)]
    affine = None  # x([j]q) / z([j]q) at index j, when every z([j]q) has an inverse
    inv = _inverses([bz for _, bz in baby[1::2]], n)
    if inv is not None:
        affine = [0] * len(baby)
        affine[1::2] = [bx * i % n for (bx, _), i in zip(baby[1::2], inv)]
    m = _ECM_B1 // _ECM_D
    step = _ladder(x, z, bin(_ECM_D)[3:], a24, n)
    prev = _ladder(x, z, bin((m - 1) * _ECM_D)[3:], a24, n)
    giant = _ladder(x, z, bin(m * _ECM_D)[3:], a24, n)
    acc = 1
    for start in range(0, len(pairs), _GIANT_CHUNK):
        chunk = pairs[start : start + _GIANT_CHUNK]
        giants = []
        for _ in chunk:
            giants.append(giant)
            prev, giant = giant, _x_add(giant, step, prev, n)
        ginv = affine and _inverses([gz for _, gz in giants], n)
        for i, js in enumerate(chunk):
            gx, gz = giants[i]
            if ginv is not None:
                gx = gx * ginv[i] % n
                for j in js:
                    acc = acc * (gx - affine[j]) % n
            else:
                for j in js:
                    bx, bz = baby[j]
                    acc = acc * (gx * bz - bx * gz) % n
            g = math.gcd(acc, n)
            if g > 1:
                return g if g < n else None
    return None


def _lanes() -> int:
    """Lanes to run side by side: one per core in this process's affinity mask,
    which `taskset` or a container can make smaller than the machine; 1 where
    fork is missing or unsafe."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1  # a forked child of a threaded process can deadlock on a lock another thread held
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spawn(fn, items: list):
    """(pid, pipe) of a forked helper that writes marshal.dump(fn(item)) for each
    of items in turn, or None when fork fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb", buffering=0) as pipe:
                for item in items:
                    marshal.dump(fn(item), pipe)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def in_lanes(fn, items):
    """Yield fn(item) for each of items, in order, on one lane per usable core.

    The items are dealt round-robin to the lanes. Lane 0 runs here; each
    other lane is one helper, forked once, that writes its share's results to
    a pipe, so fn must return what marshal can write. An item whose helper
    could not be forked, stopped writing or wrote bad data runs here, and so
    does the rest of that helper's share. Closing the generator, or running
    it out, kills and reaps every helper.
    """
    items = list(items)
    width = min(_lanes(), len(items))
    helpers = []  # (pid, pipe) of lanes 1, 2, ...; None where fork failed
    try:
        for lane in range(1, width):
            helpers.append(_spawn(fn, items[lane::width]))
        pipes = [None, *(helper and helper[1] for helper in helpers)]  # None: the lane runs here
        for i, item in enumerate(items):
            lane = i % width
            if pipes[lane]:
                try:
                    result = marshal.load(pipes[lane])
                except (EOFError, ValueError):
                    pipes[lane] = None
                else:
                    yield result
                    continue
            yield fn(item)
    finally:
        for pid, pipe in filter(None, helpers):
            from signal import SIGKILL  # imported here: it takes 1 ms at start-up

            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _first_split(n: int, sigmas: deque) -> int | None:
    """The factor that the first curve in sigmas to split n finds, or None.

    n's first curve runs here and the rest in lanes. The results are read in
    sigma order, and the sigmas after the first split go back to sigmas. So
    the curves spent and the factor found are those of running one curve
    after another.
    """
    if not sigmas:
        return None
    d = _ecm_curve(n, sigmas.popleft())
    if d is not None or not sigmas:
        return d
    rest = list(sigmas)
    sigmas.clear()
    with closing(in_lanes(lambda sigma: _ecm_curve(n, sigma), rest)) as curves:
        for i, d in enumerate(curves):
            if d is not None:
                sigmas.extend(rest[i + 1 :])
                return d
    return None


def _factor_into(n: int, out: dict[int, int], sigmas: deque) -> bool:
    """Accumulate prime factors of n into out; False once sigmas run out.

    n > 1 has no prime factor among the trial primes; sigmas holds the curves
    left to the whole try_factorize call.
    """
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return True
    d = _first_split(n, sigmas)
    return d is not None and _factor_into(d, out, sigmas) and _factor_into(n // d, out, sigmas)


_BLOCK = 64  # trial primes per block product


@lru_cache(maxsize=None)
def _trial_block(start: int) -> int:
    """Product of the run of _BLOCK trial primes from index start, built when
    a number first reaches that run."""
    return math.prod(_TRIAL_PRIMES[start : start + _BLOCK])


def try_factorize(n: int) -> dict[int, int] | None:
    """Full prime factorization of n >= 1, or None when ECM_CURVES curves fail."""
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    out: dict[int, int] = {}
    # by runs of _BLOCK trial primes: a run whose product is prime to n is skipped
    for start in range(0, len(_TRIAL_PRIMES), _BLOCK):
        if _TRIAL_PRIMES[start] ** 2 > n:
            break
        if math.gcd(_trial_block(start), n) > 1:
            for p in _TRIAL_PRIMES[start : start + _BLOCK]:
                if p * p > n:
                    break
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
    if 1 < n < _TRIAL_PRIMES[-1] ** 2:  # no trial prime divides n, so n is prime
        out[n] = 1
    elif n > 1:
        # Suyama sigma = 5 gives u = v, a singular curve
        if not _factor_into(n, out, deque(range(6, 6 + ECM_CURVES))):
            return None
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, a new dict on each call; TooLarge when
    the curve budget runs out."""
    out = try_factorize(n)
    if out is None:
        raise TooLarge(f"could not factor a {n.bit_length()}-bit number in {ECM_CURVES} curves")
    return out


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
