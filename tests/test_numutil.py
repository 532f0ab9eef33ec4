import bisect
import marshal
import os
import random
import subprocess
import sys
from collections import deque
from functools import lru_cache
from math import gcd, prod
from types import SimpleNamespace

import pytest

from powertree import numutil
from powertree.errors import TooLarge
from powertree.numutil import (
    divisors,
    factorize,
    format_decimal,
    format_factored,
    is_prime,
    next_prime,
    p_part,
    parse_factored,
    phi,
    primes_upto,
    try_factorize,
)
from powertree.treecount import TreeNumber


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(10**18 + 9)


def test_is_prime_rejects_psi12():
    # the smallest strong pseudoprime to every prime base up to 37
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)


def test_primes_upto_and_next():
    assert primes_upto(16) == [2, 3, 5, 7, 11, 13]
    assert primes_upto(1) == []
    assert next_prime(13) == 17
    assert next_prime(1) == 2


def test_primes_upto_matches_trial_division():
    # every n up to 3000: even and odd n, and n at and around prime squares
    primes = []
    for n in range(3001):
        if n >= 2 and all(n % p for p in primes if p * p <= n):
            primes.append(n)
        assert primes_upto(n) == primes
    assert len(numutil._TRIAL_PRIMES) == 9592
    assert numutil._TRIAL_PRIMES[-1] == 99991


@pytest.mark.parametrize("n", [1, 2, 12, 360, 25920, 2**10 * 3**4 * 131])
def test_factorize_roundtrip(n):
    fac = factorize(n)
    product = 1
    for p, e in fac.items():
        assert is_prime(p)
        product *= p**e
    assert product == n


def test_factorize_hands_out_a_new_dict():
    factorize(12)[5] = 1
    assert factorize(12) == {2: 2, 3: 1}
    assert phi(12) == 4
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_try_factorize_large_smooth():
    value = 2**180 * 3**40 * 5**108
    assert try_factorize(value) == {2: 180, 3: 40, 5: 108}


@pytest.mark.parametrize(
    "factors",
    [
        {1170242789503: 1, 11010048203115136316387704037: 1},  # Z_360 reduced
        {676285091873: 1, 21960392673722771308231127: 1},  # Z_336 reduced
        {1379113841234273: 1, 3869103911426611853700634541: 1},  # Z_420 reduced
        {39069483757: 1, 2102871306143: 1},  # Z_312 reduced
        {100003: 2},
        {100003: 3},
        {100003: 1, 100019: 1},
    ],
)
def test_try_factorize_past_the_trial_primes(factors):
    # every prime here exceeds the trial primes, so the curves must split it
    assert try_factorize(prod(p**e for p, e in factors.items())) == factors


def test_factoring_gives_up_after_one_shared_curve_budget(monkeypatch):
    # 100003 splits off, then the two ~100-bit primes use up the curves left
    n = 100003 * next_prime(2**100) * next_prime(2**101)
    monkeypatch.setattr(numutil, "_lanes", lambda: 1)  # a forked helper's calls are not logged
    curves = []
    curve = numutil._ecm_curve

    def logged_curve(m, sigma):
        curves.append((sigma, curve(m, sigma)))
        return curves[-1][1]

    monkeypatch.setattr(numutil, "_ecm_curve", logged_curve)
    assert try_factorize(n) is None
    assert [sigma for sigma, _ in curves] == list(range(6, 6 + numutil.ECM_CURVES))
    assert [d for _, d in curves if d is not None] == [100003]
    # the rest checks only what giving up leads to, so it gives up sooner
    monkeypatch.setattr(numutil, "ECM_CURVES", 2)
    hard = next_prime(2**100) * next_prime(2**101)
    with pytest.raises(TooLarge, match="could not factor a 202-bit number in 2 curves"):
        factorize(hard)
    counted = TreeNumber.from_powers([(hard, 1), (6, 2)])
    assert counted.value == 36 * hard
    assert counted.factorization is None


def test_tree_count_gives_up_once(monkeypatch):
    # a resisting base spends the curve budget once, and never again on the
    # whole value or in a product, however often the factorization is asked for
    monkeypatch.setattr(numutil, "ECM_CURVES", 2)
    monkeypatch.setattr(numutil, "_lanes", lambda: 1)  # a forked helper's calls are not logged
    sigmas = []
    curve = numutil._ecm_curve

    def logged_curve(m, sigma):
        sigmas.append(sigma)
        return curve(m, sigma)

    monkeypatch.setattr(numutil, "_ecm_curve", logged_curve)
    hard = next_prime(2**100) * next_prime(2**101)
    count = TreeNumber.from_powers([(hard, 1), (6, 2), (2, -1)])
    for _ in range(3):
        assert count.factorization is None
        assert count.factored() == str(18 * hard)
    assert (count * TreeNumber(2)).factorization is None
    assert sigmas == [6, 7]


# Reference elliptic-curve stage: one curve after another, one stage-2 product
# term per prime, the ladder through _ref_x_add and _ref_x_dbl. It is the
# oracle for the curve, its plan and its lanes.
def _ref_x_add(p, q, diff, n):
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ref_x_dbl(p, a24, n):
    s = (p[0] + p[1]) ** 2 % n
    d = (p[0] - p[1]) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _ref_ladder(p, k, a24, n):
    r0, r1 = p, _ref_x_dbl(p, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            r0, r1 = _ref_x_add(r1, r0, p, n), _ref_x_dbl(r1, a24, n)
        else:
            r0, r1 = _ref_x_dbl(r0, a24, n), _ref_x_add(r1, r0, p, n)
    return r0


def _ref_ecm_curve(n, sigma, b1=2000, d=210):
    primes = numutil._TRIAL_PRIMES
    u, v = sigma * sigma - 5, 4 * sigma
    a24 = (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, n) % n
    q = (u**3 % n, v**3 % n)
    split = bisect.bisect_right(primes, b1)
    for p in primes[:split]:
        pe = p
        while pe * p <= b1:
            pe *= p
        q = _ref_ladder(q, pe, a24, n)
        g = gcd(q[1], n)
        if g > 1:
            return g if g < n else None
    twice = _ref_x_dbl(q, a24, n)
    baby = {1: q, 3: _ref_x_add(twice, q, q, n)}
    for j in range(5, d // 2, 2):
        baby[j] = _ref_x_add(baby[j - 2], twice, baby[j - 4], n)
    m = b1 // d
    step = _ref_ladder(q, d, a24, n)
    prev, giant = _ref_ladder(q, (m - 1) * d, a24, n), _ref_ladder(q, m * d, a24, n)
    acc = 1
    for r in primes[split:]:
        while m * d + d // 2 < r:
            g = gcd(acc, n)
            if g > 1:
                return g if g < n else None
            prev, giant = giant, _ref_x_add(giant, step, prev, n)
            m += 1
        x, z = baby[abs(r - m * d)]
        acc = acc * (giant[0] * z - x * giant[1]) % n
    g = gcd(acc, n)
    return g if 1 < g < n else None


def _ref_factor_into(n, out, sigmas):
    if n == 1:
        return True
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return True
    for sigma in sigmas:
        d = _ref_ecm_curve(n, sigma)
        if d is not None:
            return _ref_factor_into(d, out, sigmas) and _ref_factor_into(n // d, out, sigmas)
    return False


# Z_360, Z_336, Z_420 and Z_312 reduced leave these cofactors to the curves
COFACTORS = {
    "Z_360r": 1170242789503 * 11010048203115136316387704037,
    "Z_336r": 676285091873 * 21960392673722771308231127,
    "Z_420r": 1379113841234273 * 3869103911426611853700634541,
    "Z_312r": 39069483757 * 2102871306143,
}
SQUAREFREE = [*COFACTORS.values(), 100003 * 100019]


def _random_semiprimes(count=20, seed=18):
    """Products p*q of 40..240 bits, p of 18..40 bits, so curves split most."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bits = rng.randint(40, 240)
        pbits = rng.randint(18, min(40, bits - 18))
        p = next_prime(rng.getrandbits(pbits) | 1 << (pbits - 1))
        q = next_prime(rng.getrandbits(bits - pbits) | 1 << (bits - pbits - 1))
        out.append(p * q)
    return out


LANE_CORPUS = [*COFACTORS.values(), *_random_semiprimes()]


@lru_cache(maxsize=None)
def _sequential(n, curves=numutil.ECM_CURVES):
    """(factorization or None, sigmas left) from the curves one after another."""
    out = {}
    sigmas = iter(range(6, 6 + curves))
    done = _ref_factor_into(n, out, sigmas)
    return out if done else None, list(sigmas)


def test_curve_matches_the_reference_curve():
    for n in SQUAREFREE:
        for sigma in range(6, 12):
            assert numutil._ecm_curve(n, sigma) == _ref_ecm_curve(n, sigma), (n, sigma)


@pytest.mark.parametrize("fails", ["every", "alternate"])
def test_curve_without_batched_inverses_matches_the_reference_curve(monkeypatch, fails):
    # a batch with no inverse keeps the projective stage-2 term: for every
    # batch, or for every other one, so affine and projective chunks mix
    inverses, calls = numutil._inverses, []

    def failing(zs, n):
        calls.append(len(zs))
        return None if fails == "every" or len(calls) % 2 == 0 else inverses(zs, n)

    monkeypatch.setattr(numutil, "_inverses", failing)
    for n in SQUAREFREE:
        for sigma in range(6, 12):
            assert numutil._ecm_curve(n, sigma) == _ref_ecm_curve(n, sigma), (n, sigma)
    assert calls  # stage 2 ran


def test_batched_inverses():
    rng = random.Random(25)
    n = COFACTORS["Z_420r"]
    zs = [rng.randrange(1, n) for _ in range(40)]
    assert numutil._inverses(zs, n) == [pow(z, -1, n) for z in zs]
    assert numutil._inverses([], n) == []
    assert numutil._inverses([*zs, 1379113841234273 * 5], n) is None


def test_ladder_matches_the_reference_ladder():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.getrandbits(rng.randint(40, 240)) | 1
        x, z, a24 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        k = rng.randrange(1, 2**20)
        assert numutil._ladder(x, z, bin(k)[3:], a24, n) == _ref_ladder((x, z), k, a24, n)


def test_stage_two_plan_pairs_every_prime_once():
    stage1, pairs = numutil._ecm_plan()
    primes = numutil._TRIAL_PRIMES
    low = bisect.bisect_right(primes, 2000)
    assert len(stage1) == low
    for p, bits in zip(primes, stage1):  # the largest power of p up to B1
        pe = int("1" + bits, 2)
        assert list(factorize(pe)) == [p] and pe <= 2000 < pe * p
    covered = []
    first = 2000 // 210
    for m, js in enumerate(pairs, first):
        for j in js:
            partners = [r for r in (m * 210 - j, m * 210 + j) if 2000 < r <= 99991 and is_prime(r)]
            assert partners, (m, j)  # every listed pair has a prime partner
            covered += partners
    assert sorted(covered) == primes[low:]  # each prime in exactly one pair
    assert sum(map(len, pairs)) == 7314


def test_importing_the_cli_leaves_the_plan_unbuilt():
    code = (
        "import powertree.cli\n"
        "from powertree import numutil\n"
        "print(numutil._ecm_plan.cache_info().currsize, numutil._trial_block.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "0 0\n"


def _per_prime(n):
    """Trial division one prime at a time: (factors, cofactor left to the curves)."""
    out = {}
    for p in numutil._TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if 1 < n < numutil._TRIAL_PRIMES[-1] ** 2:
        out[n], n = 1, 1
    return out, n


def _trial_inputs():
    primes = numutil._TRIAL_PRIMES
    edges = [i for k in range(64, len(primes), 64) for i in (k - 1, k)]  # a run's last prime, the next's first
    some = sorted({*edges[:8], *edges[-8:], *range(0, len(primes), 257)})
    yield 1
    yield from primes
    for i in some:
        yield primes[i] ** 2
        yield primes[i] ** 3
    for k in edges[::2]:
        yield primes[k] * primes[k + 1]
        yield primes[k] ** 2 * primes[k + 1] * primes[-1]
    yield from (99991 * 100003, 99991**2 * 100003, 99991 * next_prime(2**64))
    rng = random.Random(25)
    for _ in range(150):
        yield rng.getrandbits(rng.randint(1, 200)) + 1
    for _ in range(50):  # smooth: many runs share a prime with n
        yield prod(rng.sample(primes, rng.randint(1, 12)))


def test_block_trial_division_matches_the_per_prime_loop(monkeypatch):
    left = []
    monkeypatch.setattr(numutil, "_factor_into", lambda n, out, sigmas: left.append(n) or True)
    for n in _trial_inputs():
        left.clear()
        got = try_factorize(n)
        want, rest = _per_prime(n)
        assert list(got.items()) == list(want.items()), n
        assert left == ([rest] if rest > 1 else []), n


def test_a_number_builds_only_the_runs_up_to_its_square_root():
    numutil._trial_block.cache_clear()
    for n in (1, 2, 3):
        assert try_factorize(n) == _per_prime(n)[0]
    assert numutil._trial_block.cache_info().currsize == 0
    for n in (*range(4, 5000), 311**2 - 1, 307 * 311, 313 * 307, 96719):
        assert try_factorize(n) == _per_prime(n)[0]
    assert numutil._trial_block.cache_info().currsize == 1  # the run from prime 2, built once
    assert try_factorize(313**2) == {313: 2}
    assert numutil._trial_block.cache_info().currsize == 2
    assert try_factorize(1009 * 1013) == {1009: 1, 1013: 1}  # and the runs from primes 313 and 727
    assert numutil._trial_block.cache_info().currsize == 3


_FORKS = []  # pids returned to the parent by a counting fork


def _counting_fork(fork):
    here = os.getpid()

    def counted():
        pid = fork()
        if os.getpid() == here:
            _FORKS.append(pid)
        return pid

    return counted


@pytest.mark.parametrize(
    "width, fork_fails", [(1, False), (2, False), (3, False), (3, True)], ids=["w1", "w2", "w3", "w3-nofork"]
)
def test_lanes_give_the_sequential_result(monkeypatch, width, fork_fails):
    monkeypatch.setattr(numutil, "_lanes", lambda: width)
    if fork_fails:

        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
    else:
        monkeypatch.setattr(os, "fork", _counting_fork(os.fork))
    budgets = []

    def recorded(sigmas):
        budgets.append(deque(sigmas))
        return budgets[-1]

    monkeypatch.setattr(numutil, "deque", recorded)
    for n in LANE_CORPUS:
        _FORKS.clear()
        assert (try_factorize(n), list(budgets[-1])) == _sequential(n), n
        # every n here is a product of two primes above the trial primes, so
        # one cofactor meets the curves, and forks lanes if its first fails
        past_first = _sequential(n)[1] != list(range(7, 6 + numutil.ECM_CURVES))
        assert len(_FORKS) == (width - 1 if past_first and not fork_fails else 0), n
    # the one curve that splits each of the two slow cofactors into primes
    for name, sigma in (("Z_420r", 63), ("Z_360r", 15)):
        assert _sequential(COFACTORS[name])[1] == list(range(sigma + 1, 6 + numutil.ECM_CURVES))
    # a budget that runs out leaves no sigma, in lanes as in sequence
    monkeypatch.setattr(numutil, "ECM_CURVES", 5)
    hard = next_prime(2**100) * next_prime(2**101)
    assert try_factorize(hard) is None
    assert (None, list(budgets[-1])) == _sequential(hard, 5) == (None, [])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_helper_that_reports_nothing_leaves_its_curve_here(monkeypatch):
    here = os.getpid()
    curve = numutil._ecm_curve

    def curve_here_only(n, sigma):
        if os.getpid() != here:
            raise RuntimeError("helper fails")
        return curve(n, sigma)

    monkeypatch.setattr(numutil, "_lanes", lambda: 3)
    monkeypatch.setattr(numutil, "_ecm_curve", curve_here_only)
    sigmas = deque(range(6, 6 + numutil.ECM_CURVES))
    assert numutil._first_split(COFACTORS["Z_360r"], sigmas) == 1170242789503
    assert list(sigmas) == _sequential(COFACTORS["Z_360r"])[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("written", [0, 1, 3])
def test_a_helper_that_stops_writing_leaves_its_curves_here(monkeypatch, written):
    here = os.getpid()
    curve = numutil._ecm_curve
    count = [0]  # curves this process has run; a helper counts from 0 after the fork

    def curve_then_stop(n, sigma):
        if os.getpid() != here:
            count[0] += 1
            if count[0] > written:
                raise RuntimeError("helper stops")
        return curve(n, sigma)

    monkeypatch.setattr(numutil, "_lanes", lambda: 3)
    monkeypatch.setattr(numutil, "_ecm_curve", curve_then_stop)
    for name, d in (("Z_360r", 1170242789503), ("Z_312r", 39069483757)):
        sigmas = deque(range(6, 6 + numutil.ECM_CURVES))
        assert numutil._first_split(COFACTORS[name], sigmas) == d
        assert list(sigmas) == _sequential(COFACTORS[name])[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_empty_budget_splits_nothing(monkeypatch):
    monkeypatch.setattr(numutil, "_ecm_curve", None)  # no curve may run
    sigmas = deque()
    assert numutil._first_split(next_prime(2**40) * next_prime(2**41), sigmas) is None
    assert not sigmas


def test_no_helper_outlives_a_budget_that_runs_out(monkeypatch):
    monkeypatch.setattr(numutil, "_lanes", lambda: 3)
    monkeypatch.setattr(os, "fork", _counting_fork(os.fork))
    _FORKS.clear()
    hard = next_prime(2**100) * next_prime(2**101)
    sigmas = deque(range(6, 14))
    assert numutil._first_split(hard, sigmas) is None
    assert not sigmas and len(_FORKS) == 2
    for pid in _FORKS:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_no_lanes_beside_other_threads():
    import threading

    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        assert numutil._lanes() == 1
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    if hasattr(os, "sched_getaffinity"):
        assert numutil._lanes() == len(os.sched_getaffinity(0))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


LANE_RESULTS = {
    "int": lambda x: x * 3**x,
    "None": lambda x: None,
    "str": lambda x: "é" * x,
    "tuple": lambda x: (x, None, str(x), (-x,)),
    "int or None": lambda x: x if x % 2 else None,
}


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("kind", LANE_RESULTS)
def test_in_lanes_yields_in_item_order(monkeypatch, width, kind):
    fn = LANE_RESULTS[kind]
    monkeypatch.setattr(numutil, "_lanes", lambda: width)
    monkeypatch.setattr(os, "fork", _counting_fork(os.fork))
    for items in (range(0), range(1), range(2), range(7), range(60, 160)):
        _FORKS.clear()
        assert list(numutil.in_lanes(fn, items)) == [fn(x) for x in items]
        assert len(_FORKS) == max(min(width, len(items)) - 1, 0)
    _no_child_left()


@pytest.mark.parametrize("written", [0, 1, 4])
def test_in_lanes_runs_here_what_a_helper_leaves(monkeypatch, written):
    here, ran_here, count = os.getpid(), [], [0]

    def square_then_stop(x):
        if os.getpid() == here:
            ran_here.append(x)
        else:
            count[0] += 1
            if count[0] > written:
                raise RuntimeError("helper stops")
        return x * x

    monkeypatch.setattr(numutil, "_lanes", lambda: 3)
    assert list(numutil.in_lanes(square_then_stop, range(30))) == [x * x for x in range(30)]
    # lane 0 here, and each helper's share past its first `written` items
    assert ran_here == [x for x in range(30) if x % 3 == 0 or x // 3 >= written]
    _no_child_left()


def test_in_lanes_runs_here_what_a_helper_garbles(monkeypatch):
    here, ran_here = os.getpid(), []

    def garble(value, pipe):
        pipe.write(b"\xff" if value == 6 else marshal.dumps(value))

    def double(x):
        if os.getpid() == here:
            ran_here.append(x)
        return 2 * x

    monkeypatch.setattr(numutil, "marshal", SimpleNamespace(dump=garble, load=marshal.load))
    monkeypatch.setattr(numutil, "_lanes", lambda: 2)
    assert list(numutil.in_lanes(double, range(8))) == [2 * x for x in range(8)]
    # the helper's second result, of 3, is garbled
    assert ran_here == [0, 2, 3, 4, 5, 6, 7]
    _no_child_left()


def test_closing_in_lanes_early_leaves_no_child(monkeypatch):
    monkeypatch.setattr(numutil, "_lanes", lambda: 3)
    monkeypatch.setattr(os, "fork", _counting_fork(os.fork))
    _FORKS.clear()
    lanes = numutil.in_lanes(lambda x: x + 1, range(1000))
    assert [next(lanes) for _ in range(4)] == [1, 2, 3, 4]
    lanes.close()
    assert len(_FORKS) == 2
    _no_child_left()
    # an exception in this process ends the helpers too
    lanes = numutil.in_lanes(lambda x: 1 // (x - 5), range(1000))
    with pytest.raises(ZeroDivisionError):
        list(lanes)
    _no_child_left()


def test_lanes_count_the_affinity_mask(monkeypatch):
    # pinned to one core of two, as under `taskset -c 0`
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert numutil._lanes() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
    assert numutil._lanes() == 3
    # without an affinity call the machine's count stands, and no count means one
    monkeypatch.delattr(os, "sched_getaffinity")
    assert numutil._lanes() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert numutil._lanes() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert numutil._lanes() == 1


def test_phi():
    assert [phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    for n in range(1, 120):
        assert sum(phi(d) for d in divisors(n)) == n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_p_part():
    assert p_part(360, 3) == 9
    assert p_part(360, 2) == 8
    assert p_part(25920, 3) == 81
    assert p_part(7, 2) == 1


def test_format_decimal_without_a_digit_limit(monkeypatch):
    # sys.get_int_max_str_digits is new in Python 3.10.7 and 3.11
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    for value in (0, -12, 10**100 + 1):
        assert format_decimal(value) == str(value)


def test_format_and_parse_factored():
    assert format_factored({2: 14, 3: 6, 5: 1, 131: 1}) == "2^14*3^6*5*131"
    assert format_factored({}) == "1"
    assert format_factored(None, value=77) == "77"
    assert parse_factored("2^14*3^6*5*131") == 2**14 * 3**6 * 5 * 131
    assert parse_factored("1") == 1
    assert parse_factored("0") == 0
