"""Command-line surface: table reproduction, single evaluations, self checks.

Subcommands
-----------
hyp3f2   evaluate 3F2(a1,a2,a3;b1,b2;1) from exact-rational flags
reg      holomorphic or mixed regulator pairing for given indices
f-table  the f(i, N) indecomposability table for a list of moduli
hodge    Hodge test for a wedge of holomorphic forms, or enumerate all pairs
verify   run the invariant suites and print pass/fail per property

Every record is one JSON object per line (tables can switch to CSV); each
value and err is printed as its float's repr, so it parses back bit for
bit.  Output is bitwise deterministic for identical flags.  Exit codes:
0 success, 1 numerical failure (budget exceeded, failed verification) or a
failed write to stdout (its reader gone, its device full), 2 usage or
domain error.
"""

import argparse
import json
import os
import sys
from itertools import combinations_with_replacement

from . import __version__, fermat, regulator
from .specialfn import (
    BudgetExceededError,
    DomainError,
    EvalConfig,
    Hyp3F2Params,
    hyp3f2_unit,
)

_HYP3F2_PROVENANCE = "accelerated-series"
_PAIRING_PROVENANCE = "closed-form"


def _add_cfg_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=EvalConfig().tol,
                   help="absolute tolerance (default 1e-8)")


def _record(inputs: dict, value: float, err: float, provenance: str,
            effort: int, hodge=None) -> str:
    rec = {"inputs": inputs, "value": value, "err": err,
           "provenance": provenance, "effort": int(effort)}
    if hodge is not None:
        rec["hodge"] = bool(hodge)
    return json.dumps(rec)


def _cmd_hyp3f2(args) -> int:
    cfg = EvalConfig(args.tol)
    raw = {k: getattr(args, k) for k in ("a1", "a2", "a3", "b1", "b2")}
    params = Hyp3F2Params(**raw)
    try:
        res = hyp3f2_unit(params, cfg)
    except BudgetExceededError as exc:
        best = exc.result
        print(_record(raw, best.value, best.err, _HYP3F2_PROVENANCE, best.effort))
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    print(_record(raw, res.value, res.err, _HYP3F2_PROVENANCE, res.effort))
    return 0


def _cmd_reg(args) -> int:
    cfg = EvalConfig(args.tol)
    if args.kind == "holo":
        rv = regulator.reg_holomorphic(args.a, args.b, args.N, cfg)
        inputs = {"N": args.N, "a": args.a, "b": args.b}
        print(_record(inputs, rv.value, rv.err, _PAIRING_PROVENANCE, rv.effort))
        return 0
    rv = regulator.im_reg_mixed(args.a, args.b, args.c, args.d, args.N, cfg)
    inputs = {"N": args.N, "a": args.a, "b": args.b, "c": args.c, "d": args.d}
    w = fermat.WedgeIndex(fermat.FormIndex(args.N, args.a, args.b),
                          fermat.FormIndex(args.N, args.c, args.d))
    print(_record(inputs, rv.value, rv.err, _PAIRING_PROVENANCE, rv.effort,
                  hodge=fermat.is_hodge(w)))
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise DomainError(f"not a comma-separated integer list: {text!r}") from exc


def _cmd_f_table(args) -> int:
    cfg = EvalConfig(args.tol)
    moduli = sorted(set(_parse_int_list(args.N)))
    if not moduli:
        raise DomainError("--N needs at least one modulus")
    for N in moduli:
        if N < 5:
            raise DomainError(f"f-table needs N >= 5, got {N}")
        if not fermat.is_prime(N):
            raise DomainError(f"f-table needs prime N, got {N}")
    explicit_i = sorted(set(_parse_int_list(args.i))) if args.i else None
    # 1 + 2i < N for every default row of a prime N >= 5: each is valid, and
    # they are made one at a time, however many N // 4 is
    rows = ((i, N, _f_table_wedge(i, N)) for N in moduli
            for i in (range(2, N // 4 + 1) if explicit_i is None else explicit_i))
    if explicit_i is not None:
        # an invalid row is a usage error, raised before anything is printed
        rows = list(rows)

    # each row is written as soon as it is computed, so a closed pipe stops the table
    if args.format == "csv":
        print("i,N,f,err,hodge", flush=True)
    failed = 0
    for (i, N, w) in rows:
        try:
            res = regulator.f_indec(i, N, cfg)
        except BudgetExceededError as exc:
            failed += 1
            if args.format == "json":
                print(json.dumps({"inputs": {"i": i, "N": N}, "error": str(exc)}), flush=True)
            else:
                # one quoted field, so a comma in the message stays in it
                msg = str(exc).replace("\n", " ").replace('"', '""')
                print(f'{i},{N},,,"{msg}"', flush=True)
            continue
        hodge = fermat.is_hodge(w)
        if args.format == "json":
            print(_record({"i": i, "N": N}, res.value, res.err,
                          _PAIRING_PROVENANCE, res.effort, hodge=hodge), flush=True)
        else:
            print(f"{i},{N},{res.value!r},{res.err!r},{str(hodge).lower()}", flush=True)
    return 1 if failed else 0


def _f_table_wedge(i: int, N: int) -> fermat.WedgeIndex:
    return fermat.WedgeIndex(fermat.FormIndex(N, 1, i), fermat.FormIndex(N, 1, 2 * i))


def _cmd_hodge(args) -> int:
    N, given = args.N, [getattr(args, name) is not None for name in "abcd"]
    if args.list:
        if any(given):
            raise DomainError("hodge --list takes no --a, --b, --c or --d")
        if N < 3:
            raise DomainError("modulus must be at least 3")
        labels = [fermat.FormIndex(N, a, b) for a in range(1, N) for b in range(1, N - a)]
        prime, groups = fermat.is_prime(N), {}
        for label in labels:
            groups.setdefault(fermat._hodge_type(label, prime), []).append(label)
        # labels sort as their (a, b) do, so the pairs come in label order
        pairs = sorted(p for g in groups.values() for p in combinations_with_replacement(g, 2))
        for first, second in pairs:
            print(json.dumps({"inputs": {"N": N, "a": first.a, "b": first.b,
                                         "c": second.a, "d": second.b}, "hodge": True}))
        print(f"listed {len(pairs)} Hodge pairs for N={N}", file=sys.stderr)
        return 0
    if not all(given):
        raise DomainError("hodge needs --list or all of --a --b --c --d")
    w = fermat.WedgeIndex(fermat.FormIndex(N, args.a, args.b),
                          fermat.FormIndex(N, args.c, args.d))
    print(json.dumps({"inputs": {"N": N, "a": args.a, "b": args.b,
                                 "c": args.c, "d": args.d},
                      "hodge": fermat.is_hodge(w)}))
    return 0


def _cmd_verify(args) -> int:
    # imported here so that the other commands do not pay for it
    from . import verify

    results = verify.run_suite()
    for r in results:
        print(r.line())
    failures = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatreg",
        description="Regulator pairings on Fermat Jacobians via 3F2 values")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hyp3f2", help="evaluate 3F2 at unit argument")
    for name in ("a1", "a2", "a3", "b1", "b2"):
        p.add_argument(f"--{name}", required=True, metavar="p/q",
                       help="integer, p/q or decimal; write a negative p/q "
                            f"with '=', as --{name}=-1/2")
    _add_cfg_flags(p)
    p.set_defaults(func=_cmd_hyp3f2)

    p = sub.add_parser("reg", help="regulator pairing for given indices")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, names in (("holo", "ab"), ("mixed", "abcd")):
        q = kinds.add_parser(kind)
        q.add_argument("--N", type=int, required=True)
        for name in names:
            q.add_argument(f"--{name}", type=int, required=True)
        _add_cfg_flags(q)
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("f-table", help="indecomposability statistics f(i, N), "
                       "each value and err printed in full")
    p.add_argument("--N", required=True, metavar="N1,N2,...",
                   help="primes N >= 5; N = 5 and 7 have no default rows, since "
                        "2 <= i <= N/4 is empty, and print nothing (CSV: the header alone)")
    p.add_argument("--i", default=None, metavar="i1,i2,...",
                   help="row indices (default 2..floor(N/4) per modulus)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_cfg_flags(p)
    p.set_defaults(func=_cmd_f_table)

    p = sub.add_parser("hodge", help="Hodge test for wedges of holomorphic forms")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--list", action="store_true",
                   help="enumerate all unordered Hodge pairs for this modulus")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_hodge)

    p = sub.add_parser("verify", help="run invariant and oracle suites")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # the only file the commands write is stdout, and its reader is gone
        # or its device full: point fd 1 at devnull, so that the flush at
        # interpreter shutdown does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("error: stdout was closed before the output was written",
                  file=sys.stderr)
        else:
            print(f"error: writing stdout failed: {exc.strerror or exc}",
                  file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
