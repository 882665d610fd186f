"""Input pools of the benchmark workloads and the seeded rounds drawn from them.

Every input a workload can draw is listed here, so that ``make_refs.py`` can
freeze a reference for each one.  A call is a tuple whose first element names
it:

* ``("f_indec", i, N, tol)`` -- ``tol`` is ``None`` for the default config;
* ``("im_reg_mixed", a, b, c, d, N)`` and ``("reg_holomorphic", a, b, N)``;
* ``("cli", argv)`` -- one ``fermatreg`` process with the arguments ``argv``.

A round takes one call from each of the workload's families and shuffles
them, so every round has the same mix of families whatever the seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("cli-cold", "table-warm", "reach")

TABLE_PRIMES = (13, 17, 19, 23)
REACH_PRIMES = (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
HOLO_PRIMES = (5, 7, 11) + TABLE_PRIMES
LABEL_MAX = 5  # label entries of the mixed and holomorphic pools
TIGHT_TOL = 1e-12
PHI = (5 ** 0.5 - 1) / 2

F_TABLE_ARGV = ("f-table", "--N", ",".join(map(str, TABLE_PRIMES)))
VERIFY_ARGV = ("verify",)


def bracket(x: int, N: int) -> int:
    return (x - 1) % N + 1


def f_rows(primes) -> list[tuple[int, int]]:
    return [(i, N) for N in primes for i in range(2, N // 4 + 1)]


def mixed_pool() -> list[tuple]:
    """Holomorphic label pairs sharing exactly one residue, entries <= LABEL_MAX."""
    out = []
    r = range(1, LABEL_MAX + 1)
    for N in TABLE_PRIMES:
        for a in r:
            for b in r:
                for c in r:
                    for d in r:
                        if (a == c) != (b == d):
                            out.append(("im_reg_mixed", a, b, c, d, N))
    return out


def holo_pool() -> list[tuple]:
    r = range(1, LABEL_MAX)
    return [("reg_holomorphic", a, b, N) for N in HOLO_PRIMES
            for a in r for b in r if a != b and a + b < N]


def script_f_args(call: tuple) -> list[tuple[int, int, int, int]]:
    """The (a, j, b, N) script-F terms a regulator call sums, in its order."""
    kind = call[0]
    if kind == "f_indec":
        _, i, N, _ = call
        return script_f_args(("im_reg_mixed", 1, i, 1, 2 * i, N))
    if kind == "im_reg_mixed":
        _, a, b, c, d, N = call
        out = []
        if a == c:
            out += [(d, bracket(b - d, N), c, N), (b, bracket(d - b, N), a, N)]
        if b == d:
            out += [(a, bracket(c - a, N), b, N), (c, bracket(a - c, N), d, N)]
        return out
    if kind == "reg_holomorphic":
        _, a, b, N = call
        return [t for j in range(1, N + 1) for t in ((b, j, a, N), (a, j, b, N))]
    raise ValueError(kind)


def hyp_params(a: int, j: int, b: int, N: int) -> tuple[Fraction, ...]:
    """3F2 parameters (a1, a2, a3, b1, b2) of the script-F term (a, j, b; N)."""
    return (Fraction(a + j, N), Fraction(j, N), Fraction(1),
            Fraction(a + b + j, N), Fraction(j, N) + 1)


def hyp_argv(params) -> tuple[str, ...]:
    argv = ["hyp3f2"]
    for name, q in zip(("a1", "a2", "a3", "b1", "b2"), params):
        argv += [f"--{name}", str(q)]
    return tuple(argv)


def table_pools() -> list[list[tuple]]:
    rows = [("f_indec", i, N, None) for i, N in f_rows(TABLE_PRIMES)]
    return [rows, mixed_pool(), holo_pool()]


def hyp_pool() -> list[tuple]:
    """Every 3F2 parameter set the table-warm calls evaluate, as CLI calls."""
    seen = {}
    for pool in table_pools():
        for call in pool:
            for t in script_f_args(call):
                seen.setdefault(hyp_params(*t), None)
    return [("cli", hyp_argv(p)) for p in seen]


def pools(workload: str) -> list[list[tuple]]:
    if workload == "cli-cold":
        return [[("cli", F_TABLE_ARGV)], [("cli", VERIFY_ARGV)], hyp_pool()]
    if workload == "table-warm":
        return table_pools()
    if workload == "reach":
        return [[("f_indec", i, N, None) for i, N in f_rows(REACH_PRIMES)],
                [("f_indec", i, N, TIGHT_TOL)
                 for i, N in f_rows(TABLE_PRIMES + REACH_PRIMES)]]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int):
    """Endless seeded rounds: one call per family, in a seeded order.

    Family f gives its element at position ((u_f + r * PHI) mod 1) * len in
    round r, with u_f drawn from the seed.  The golden-ratio sequence spreads
    any run of rounds evenly over each pool, and the regulator pools are
    ordered by N, so runs with different seeds see the same mix of small and
    large N.
    """
    families = pools(workload)
    rng = random.Random(f"{workload}/{seed}")
    starts = [rng.random() for _ in families]
    for r in itertools.count():
        calls = [family[int((u + r * PHI) % 1.0 * len(family))]
                 for family, u in zip(families, starts)]
        rng.shuffle(calls)
        yield calls


def ref_key(call: tuple) -> str:
    """Reference key of a call's certified value ('' when it has none)."""
    kind = call[0]
    if kind == "f_indec":
        return f"f_indec {call[1]} {call[2]}"
    if kind in ("im_reg_mixed", "reg_holomorphic"):
        return " ".join(map(str, call))
    if call[1][0] == "hyp3f2":
        return "hyp3f2 " + " ".join(call[1][2::2])
    return ""
