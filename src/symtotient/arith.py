"""Exact integer arithmetic primitives.

Factorization, multiplicative functions, the quadratic character, Lucas
parity of binomials, and Ramanujan sums.  Every value returned here is an
exact Python integer; the Ramanujan sum goes through its divisor form, and
an integer-weighted sum of n-th roots of unity is reduced exactly in
Z[zeta_n], never through floating-point exponentials.
"""

import math
import operator

# Miller-Rabin with the primes up to 41 is exact below _MR_BOUND, the least
# strong pseudoprime to all of them; the primes up to 37 alone are fooled by
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# Trial division handles everything below this; Pollard rho takes over above.
_TRIAL_LIMIT = 10**6


class IntegralityError(RuntimeError):
    """A quantity that is provably an integer failed to be one (a library bug,
    not a user error)."""


def _exact_div(a: int, b: int, what: str) -> int:
    """a // b where b provably divides a; IntegralityError, naming `what`,
    when it does not."""
    q, r = divmod(a, b)
    if r:
        raise IntegralityError(f"{what} = {a} is not divisible by {b}")
    return q


def _modulus(n: int) -> int:
    """n as an int: TypeError unless n is an integer, ValueError unless n >= 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return n


def _arity(k: int, least: int = 1) -> int:
    """k as an int: TypeError unless k is an integer, ValueError unless k >= least."""
    k = operator.index(k)
    if k < least:
        raise ValueError(f"arity k must be >= {least}, got {k}")
    return k


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; n >= _MR_BOUND raises ValueError."""
    n = operator.index(n)
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> int:
    """p as an int, refused unless it is prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return operator.index(p)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Floyd's cycle detection).

    The polynomial offset steps deterministically, so equal inputs always
    split the same way.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise AssertionError(f"rho failed to split {n}")  # unreachable for composite n


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def _least_prime_factors(size: int) -> bytearray:
    """lpf[n] for 0 <= n < size <= 2**16: the least prime factor of composite
    n, which is at most isqrt(n) < 2**8 and so fits a byte, and 0 where n is
    prime, 0 or 1."""
    lpf = bytearray(size)
    small = [p for p in range(2, math.isqrt(size - 1) + 1)
             if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for p in reversed(small):  # the least prime of n writes lpf[n] last
        lpf[p * p :: p] = bytes((p,)) * len(range(p * p, size, p))
    return lpf


# Cofactors below 2**16 finish their factorization on this 64 KiB table.
_LPF_LIMIT = 1 << 16
_LPF = _least_prime_factors(_LPF_LIMIT)


def _divide_out(n: int, p: int, out: list[tuple[int, int]]) -> int:
    """n with every factor p divided out; appends (p, a) to out where a > 0."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    if a:
        out.append((p, a))
    return n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, a), ...], primes strictly increasing.

    factorize(1) == [].  While the cofactor is at least 2**16, trial
    division on a 30-wheel up to 10**6, then Pollard rho with deterministic
    Miller-Rabin, so anything a desk machine can enumerate factors
    instantly.  A cofactor below 2**16 is finished by lookups in a
    least-prime-factor table of 2**16 bytes, built at import.  A cofactor
    past is_prime's bound raises ValueError.
    """
    n = _modulus(n)
    out: list[tuple[int, int]] = []
    if n >= _LPF_LIMIT:
        for p in (2, 3, 5):
            n = _divide_out(n, p, out)
        # 30-wheel over residues coprime to 2*3*5
        d = 7
        wheel = (4, 2, 4, 2, 4, 6, 2, 6)
        i = 0
        while n >= _LPF_LIMIT and d * d <= n and d <= _TRIAL_LIMIT:
            if n % d == 0:  # most d divide nothing: no call for them
                n = _divide_out(n, d, out)
            d += wheel[i]
            i = (i + 1) % 8
        if n >= _LPF_LIMIT:
            # every prime left is at least d, above those found so far
            if d * d > n:
                out.append((n, 1))
            else:
                rest: dict[int, int] = {}
                _factor_into(n, rest)
                out += sorted(rest.items())
            return out
    while n > 1:  # the table's primes come in increasing order too
        p = _LPF[n] or n
        a = 0
        while n % p == 0:  # _divide_out inlined: most calls take only this loop
            n //= p
            a += 1
        out.append((p, a))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    ds = [1]
    for p, a in factorize(n):
        ds = [d * p**e for d in ds for e in range(a + 1)]
    return sorted(ds)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a segmented sieve of Eratosthenes: the
    primes up to isqrt(hi), sieved on their own, cross out their multiples
    from max(p*p, lo) in one window over [lo, hi], in O(hi - lo + isqrt(hi))
    bytes.  It reads neither _LPF nor factorize, so the verify jordan cell's
    reference shares nothing with the range evaluator it checks, which
    takes its primes from _LPF."""
    lo, hi = max(operator.index(lo), 2), operator.index(hi)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    window = bytearray([1]) * (hi - lo + 1)
    for p in range(2, root + 1):
        if base[p]:
            start = max(p * p, -(-lo // p) * p)
            window[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
    return [lo + i for i, flag in enumerate(window) if flag]


def quadratic_character(a: int, p: int) -> int:
    """The quadratic character of a mod p (odd prime): 0 on multiples of p,
    +1 on nonzero squares, -1 otherwise.  Agrees with Euler's criterion
    a^((p-1)/2) mod p."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"quadratic character needs an odd prime, got {p}")
    return _quadratic_character(operator.index(a), operator.index(p))


def _quadratic_character(a: int, p: int) -> int:
    """quadratic_character for a p the caller has already checked to be an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _chi3(p: int) -> int:
    """The character (-3|p) at a prime p, p = 2 included: 0 at p = 3, else +1 or -1
    as p = 1 or 2 (mod 3).  x^2 + x + 1 has 1 + (-3|p) roots mod p."""
    return (0, 1, -1)[p % 3]


def nu(b: int, p: int) -> int:
    """The weight appearing in quadratic-form solution counts:
    p-1 when b = 0 mod p, and -1 on units."""
    return _nu(operator.index(b), _check_prime(p))


def _nu(b: int, p: int) -> int:
    """nu for a p the caller has already checked to be prime."""
    return p - 1 if b % p == 0 else -1


def binom_mod2(j: int, l: int) -> int:
    """C(j, l) mod 2.  By Lucas, odd exactly when l is a submask of j."""
    return 1 if j & l == l else 0


def moebius(n: int) -> int:
    """Mobius function: (-1)^(number of prime factors) on squarefree n, else 0."""
    fac = factorize(n)
    if any(a > 1 for _, a in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient, evaluated exactly from the factorization."""
    out = 1
    for p, a in factorize(n):
        out *= p ** (a - 1) * (p - 1)
    return out


def jordan_totient(k: int, n: int) -> int:
    """Jordan totient: number of k-tuples mod n whose joint gcd with n is 1.

    Per prime power p^a the factor is p^(k(a-1)) * (p^k - 1); k = 1 gives
    Euler's totient.
    """
    k = _arity(k)
    out = 1
    for p, a in factorize(n):
        out *= p ** (k * (a - 1)) * (p**k - 1)
    return out


def dirichlet_convolve_mu(f, d: int) -> int:
    """(mu * f)(d) = sum over e | d of mu(d/e) f(e)."""
    return sum(moebius(d // e) * f(e) for e in divisors(d))


def ramanujan_sum(m: int, n: int) -> int:
    """Ramanujan sum c(m, n): the sum of e^(2*pi*i*a*m/n) over a coprime to n,
    computed exactly by Hoelder's form c(m, n) = mu(n/g) phi(n) / phi(n/g),
    g = gcd(m, n), from one factorization of n.  Per p^a || n the factor is
    phi(p^a) where p^a | g, -p^(a-1) where p^(a-1) || g, and 0 otherwise."""
    n = _modulus(n)
    g = math.gcd(m, n)
    out = 1
    for p, a in factorize(n):
        if g % p**a == 0:
            out *= p ** (a - 1) * (p - 1)
        elif g % p ** (a - 1) == 0:
            out *= -(p ** (a - 1))
        else:
            return 0
    return out


def _cyclotomic_integer(w: list[int]) -> int:
    """sum_r w[r] zeta_n^r for n = len(w), exactly, as an int; IntegralityError
    when that sum is not an integer.

    Rewrites w in the Z-basis of Z[zeta_n], the tensor product over q = p^e
    || n of the bases zeta_q^s, s < q - q/p.  Phi_q(zeta_q) = 0, so a term
    whose q-component s (r mod q) has top base-p digit p-1 equals minus the
    other p-1 terms of its coset s + (q/p)Z; the shift r -> r - (q/p) u with
    the CRT unit u (1 mod q, 0 mod n/q) moves the q-component alone.  Each
    prime costs one pass over w.  The basis element at r = 0 is 1, so the
    sum is an integer exactly when every other weight is then 0.
    """
    n = len(w)
    w = list(w)
    for p, e in factorize(n):
        q = p**e
        u = pow(n // q, -1, q) * (n // q)
        step, top = q // p * u % n, q - q // p
        for r in range(n):
            if w[r] and r % q >= top:
                c, w[r] = w[r], 0
                for j in range(1, p):
                    w[(r - j * step) % n] -= c
    if any(w[1:]):
        raise IntegralityError(f"a weighted sum of powers of zeta_{n} is not an integer")
    return w[0]


# Named arithmetic functions used as Menon-identity weights.

def identity(n: int) -> int:
    return n


def one(n: int) -> int:
    return 1


def divisor_count(n: int) -> int:
    """Number of divisors of n."""
    out = 1
    for _, a in factorize(n):
        out *= a + 1
    return out
