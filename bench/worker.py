"""Benchmark worker process; ``run.py`` starts it, one at a time.

    python3 bench/worker.py calls WORKLOAD SEED SECONDS ROUNDS TRACE
    python3 bench/worker.py cli ARG...

``calls`` imports fermatreg, prints ``ready`` and then makes the seeded calls
of WORKLOAD in a closed loop, one at a time: ROUNDS rounds, or whole rounds
until SECONDS have passed when ROUNDS is negative.  With ROUNDS 0 it only
starts, which is how set-up time is measured.  The last stdout line is a JSON
object with one ``[status, value, err, effort, seconds]`` record per call
(value and err as float.hex), and the spans when TRACE is 1.

``cli`` runs ``fermatreg.cli.main(ARG...)`` with tracing on: stdout is the
CLI's own, and the spans go to stderr on a last line starting ``SPANS``.
Nothing here imports mpmath.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    import fermatreg

    if Path(fermatreg.__file__).resolve().parent != SRC / "fermatreg":
        raise SystemExit(f"fermatreg imported from {fermatreg.__file__}, not {SRC}")
    return fermatreg


def _call(fr, call):
    kind = call[0]
    if kind == "f_indec":
        _, i, N, tol = call
        return fr.f_indec(i, N) if tol is None else fr.f_indec(i, N, fr.EvalConfig(tol=tol))
    if kind == "im_reg_mixed":
        return fr.im_reg_mixed(*call[1:])
    if kind == "reg_holomorphic":
        return fr.reg_holomorphic(*call[1:])
    raise ValueError(f"not an in-process call: {call!r}")


def _record(status: str, res, dt: float) -> list:
    return [status, float.hex(float(res.value)), float.hex(float(res.err)),
            int(res.effort), dt]


def run_calls(workload: str, seed: int, seconds: float, n_rounds: int,
              traced: bool) -> dict:
    fr = _import_package()
    import inputs

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install(fr)
    print("ready", flush=True)
    if n_rounds == 0:
        return {}

    clock = time.perf_counter
    out = []
    deadline = clock() + seconds
    for calls in inputs.rounds(workload, seed):
        if (len(out) == n_rounds if n_rounds > 0 else clock() >= deadline):
            break
        recs = []
        for call in calls:
            t0 = clock()
            try:
                res = _call(fr, call)
            except fr.BudgetExceededError as exc:
                recs.append(_record("budget", exc.result, clock() - t0))
                continue
            except Exception as exc:  # reported and failed by run.py
                recs.append(["error", f"{type(exc).__name__}: {exc}", "", 0,
                             clock() - t0])
                continue
            recs.append(_record("ok", res, clock() - t0))
        out.append(recs)
    return {"rounds": out, "spans": tracer.report() if tracer else {}}


def run_cli(argv: list[str]) -> int:
    fr = _import_package()
    import fermatreg.cli
    import spans

    tracer = spans.Tracer()
    tracer.install(fr)
    try:
        return fermatreg.cli.main(argv)
    finally:
        sys.stdout.flush()
        print("SPANS " + json.dumps(tracer.report()), file=sys.stderr, flush=True)


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return run_cli(argv[1:])
    workload, seed, seconds, n_rounds, traced = argv[1:6]
    result = run_calls(workload, int(seed), float(seconds), int(n_rounds),
                       traced == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
