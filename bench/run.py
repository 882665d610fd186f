"""fermatreg benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload table-warm --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a checkout; it uses the package in ``src/`` of
that checkout and nothing installed.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``bench/README.md``).  Each
workload's calls come from one client, one at a time, in a closed loop.
Every certified result is checked against the frozen references in
``refs.json``; the first rounds are replayed in a fresh untraced process and
must give the same bits.  A wrong value, a replay mismatch, an unexpected
exception or exit code makes the run exit 1 without a result line.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
from spans import merge as merge_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 7        # worker starts behind setup_s
IMPORT_PROBES = 3       # `-X importtime` runs behind import.*
FLOOR_PROBES = 5        # bare interpreter starts behind cli.python_floor_s
REPLAY_MIN_ROUNDS = 2
REPLAY_BUDGET_S = 1.0   # untraced runs; traced runs replay a quarter of --seconds
CLI_TIMEOUT_S = 120
SIX_DECIMALS = Fraction(1, 2 * 10 ** 6)  # f-table prints values rounded to 1e-6

SPAN_METRICS = (
    ("specialfn.de_quadrature", ("calls", "self_ms", "effort", "failed")),
    ("specialfn.hyp3f2_unit", ("calls", "self_ms", "effort", "failed")),
    ("specialfn.algebraic_tail_sum", ("calls", "self_ms")),
    ("regulator.f_indec", ("calls", "self_ms", "failed")),
    ("regulator.im_reg_mixed", ("calls", "self_ms", "failed")),
    ("regulator.reg_holomorphic", ("calls", "self_ms", "failed")),
    ("regulator.script_F", ("calls", "self_ms", "failed")),
    ("fermat.mu_half", ("calls", "self_ms")),
    ("fermat.is_hodge", ("calls", "self_ms")),
    ("fermat.period", ("calls", "self_ms")),
)
CLI_COMMANDS = {"f-table": "cli.f_table_s", "hyp3f2": "cli.hyp3f2_s",
                "verify": "cli.verify_s"}


class BenchError(Exception):
    """A check failed: the run must not report a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FERMATREG_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


ENV = child_env()


class Tally:
    """What one pass of calls produced, in call order."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_times: list[float] = []
        self.records: list = []       # what a replay must reproduce, per round
        self.failed = 0
        self.over_actual: list[float] = []  # err / |value - ref|
        self.efforts: list[int] = []
        self.spans: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# --- checks -----------------------------------------------------------------

def load_refs() -> dict:
    with open(BENCH / "refs.json", encoding="utf-8") as fh:
        return {k: Fraction(v) for k, v in json.load(fh)["values"].items()}


def check_value(key: str, value: float, err: float, refs: dict, tally: Tally,
                slack: Fraction = Fraction(0)) -> None:
    actual = abs(Fraction(value) - refs[key])
    if actual > Fraction(err) + slack:
        raise BenchError(f"{key}: value {value!r} is {float(actual):.3e} from the "
                         f"reference, beyond its err {err!r}")
    if not slack and actual:
        tally.over_actual.append(err / float(actual))


def check_cli(argv: tuple, rc: int, out: bytes, err: bytes, refs: dict,
              tally: Tally) -> bool:
    """Check one CLI process; True when it certified its result."""
    text = out.decode()
    lines = text.splitlines()
    if argv[0] == "verify":
        m = re.fullmatch(r"(\d+)/(\d+) properties passed", lines[-1] if lines else "")
        if rc != 0 or not m or m[1] != m[2] or not all(
                ln.startswith("PASS ") for ln in lines[:-1]):
            raise BenchError(f"verify failed (exit {rc}):\n{text}{err.decode()}")
        return True
    if rc not in (0, 1):
        raise BenchError(f"fermatreg {' '.join(argv)} exited {rc}: {err.decode()}")
    recs = [json.loads(ln) for ln in lines]
    if argv[0] == "hyp3f2":
        if rc == 1:
            if b"budget exceeded" not in err:
                raise BenchError(f"hyp3f2 exited 1 without a budget failure: {err!r}")
            return False
        (rec,) = recs
        check_value(inputs.ref_key(("cli", argv)), rec["value"], rec["err"], refs, tally)
        tally.efforts.append(rec["effort"])
        return True
    expected = inputs.f_rows(sorted(map(int, argv[2].split(","))))
    if [(r["inputs"]["i"], r["inputs"]["N"]) for r in recs] != expected:
        raise BenchError(f"f-table printed the wrong rows:\n{text}")
    certified = True
    for r in recs:
        if "error" in r:
            if "not reached" not in r["error"]:
                raise BenchError(f"f-table row failed unexpectedly: {r}")
            certified = False
            continue
        key = inputs.ref_key(("f_indec", r["inputs"]["i"], r["inputs"]["N"], None))
        check_value(key, r["value"], r["err"], refs, tally, slack=SIX_DECIMALS)
    if rc == 1 and certified:
        raise BenchError(f"f-table exited 1 with every row certified:\n{text}")
    if certified:
        tally.efforts.append(sum(r["effort"] for r in recs))
    return certified


def check_call(call: tuple, rec: list, refs: dict, tally: Tally) -> bool:
    status = rec[0]
    if status == "error":
        raise BenchError(f"{call!r} raised {rec[1]}")
    if status == "budget":
        return False
    value, err = float.fromhex(rec[1]), float.fromhex(rec[2])
    check_value(inputs.ref_key(call), value, err, refs, tally)
    tally.efforts.append(rec[3])
    return True


def compare_replay(first: Tally, replay: Tally, n_rounds: int) -> None:
    if first.records[:n_rounds] != replay.records[:n_rounds] or \
            len(replay.records) < n_rounds:
        raise BenchError(f"replay of the first {n_rounds} rounds in a fresh "
                         "process gave different bits")


def replay_rounds(tally: Tally, budget_s: float) -> int:
    n, spent = 0, 0.0
    for t in tally.round_times:
        if n >= REPLAY_MIN_ROUNDS and spent + t > budget_s:
            break
        n, spent = n + 1, spent + t
    return n


# --- processes --------------------------------------------------------------

def start_worker(workload: str, seed: int, seconds: float, n_rounds: int,
                 traced: bool) -> tuple[float, dict]:
    """Run one worker; returns its set-up time and its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "calls", workload, str(seed),
           repr(seconds), str(n_rounds), "1" if traced else "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            out, _ = proc.communicate(timeout=seconds + CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker for {workload} timed out")
    if proc.returncode != 0 or ready != "ready\n":
        raise BenchError(f"worker for {workload} failed with exit {proc.returncode}")
    return setup, json.loads(out.splitlines()[-1]) if n_rounds else {}


def run_cli(argv: tuple, traced: bool) -> tuple[int, bytes, bytes, float, dict]:
    if traced:
        cmd = [sys.executable, str(BENCH / "worker.py"), "cli", *argv]
    else:
        cmd = [sys.executable, "-m", "fermatreg", *argv]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                       capture_output=True, timeout=CLI_TIMEOUT_S)
    dt = time.perf_counter() - t0
    spans = {}
    err = p.stderr
    if traced:
        head, _, last = err.rstrip(b"\n").rpartition(b"\n")
        if not last.startswith(b"SPANS "):
            raise BenchError(f"traced fermatreg {' '.join(argv)} printed no spans: {err!r}")
        spans = json.loads(last[6:])
        err = head
    return p.returncode, p.stdout, err, dt, spans


def setup_times() -> list[float]:
    return [start_worker("cli-cold", 0, 0.0, 0, False)[0] for _ in range(SETUP_STARTS)]


# --- workloads --------------------------------------------------------------

def calls_pass(workload: str, seed: int, seconds: float, n_rounds: int,
               traced: bool, refs: dict) -> Tally:
    _, res = start_worker(workload, seed, seconds, n_rounds, traced)
    tally = Tally()
    tally.spans = res["spans"]
    for calls, recs in zip(inputs.rounds(workload, seed), res["rounds"]):
        for call, rec in zip(calls, recs):
            tally.latencies.append(rec[4])
            if not check_call(call, rec, refs, tally):
                tally.failed += 1
        tally.round_times.append(sum(rec[4] for rec in recs))
        tally.records.append([rec[:4] for rec in recs])
    return tally


def cli_pass(seed: int, seconds: float, n_rounds: int, traced: bool,
             refs: dict, per_command: dict | None = None) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    for calls in inputs.rounds("cli-cold", seed):
        done = len(tally.round_times)
        if (done == n_rounds if n_rounds > 0
                else time.perf_counter() - start >= seconds):
            break
        recs = []
        for _, argv in calls:
            rc, out, err, dt, spans = run_cli(argv, traced)
            tally.latencies.append(dt)
            if not check_cli(argv, rc, out, err, refs, tally):
                tally.failed += 1
            merge_spans(tally.spans, spans)
            if per_command is not None:
                per_command.setdefault(argv[0], []).append(dt)
            recs.append([rc, out.decode()])
        tally.round_times.append(sum(tally.latencies[-len(calls):]))
        tally.records.append(recs)
    return tally


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 refs: dict) -> tuple[Tally, dict]:
    """The timed pass and its replay; returns the tally and extra figures."""
    extra = {}
    if not traced:
        extra["setup"] = setup_times()
    if workload == "cli-cold":
        tally = cli_pass(seed, seconds, -1, traced, refs)
    else:
        tally = calls_pass(workload, seed, seconds, -1, traced, refs)
    n = replay_rounds(tally, seconds / 4 if traced else REPLAY_BUDGET_S)
    per_command: dict = {}
    if workload == "cli-cold":
        replay = cli_pass(seed, 0.0, n, False, refs, per_command)
    else:
        replay = calls_pass(workload, seed, 0.0, n, False, refs)
    compare_replay(tally, replay, n)
    extra["replayed_rounds"] = n
    extra["overhead"] = sum(tally.round_times[:n]) / sum(replay.round_times[:n]) - 1.0
    extra["per_command"] = per_command
    return tally, extra


# --- metrics ----------------------------------------------------------------

def tail_index(n: int) -> int:
    """Index of the highest percentile with ten samples beyond it (max if n <= 10)."""
    return n - 11 if n > 10 else n - 1


def end_to_end(tally: Tally, extra: dict) -> dict:
    lat = sorted(tally.latencies)
    return {
        "setup_s": statistics.median(extra["setup"]),
        "call_p50_ms": 1e3 * statistics.median(lat),
        "call_tail_ms": 1e3 * lat[tail_index(len(lat))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def import_probe() -> dict:
    """Median self/cumulative import times from `python -X importtime`."""
    runs = []
    for _ in range(IMPORT_PROBES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fermatreg"],
                           cwd=ROOT, env=ENV, capture_output=True, text=True,
                           timeout=CLI_TIMEOUT_S)
        if p.returncode != 0:
            raise BenchError(f"import fermatreg failed: {p.stderr[-2000:]}")
        self_us = {"scipy": 0, "numpy": 0, "fermatreg": 0}
        total_us = 0
        for line in p.stderr.splitlines():
            m = re.fullmatch(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)", line)
            if not m:
                continue
            name = m[3]
            root = name.split(".")[0]
            if root in self_us:
                self_us[root] += int(m[1])
            if name == "fermatreg":
                total_us = int(m[2])
        runs.append({"import.total_ms": total_us / 1e3,
                     "import.scipy_ms": self_us["scipy"] / 1e3,
                     "import.numpy_ms": self_us["numpy"] / 1e3,
                     "import.fermatreg_self_ms": self_us["fermatreg"] / 1e3})
    floor = []
    for _ in range(FLOOR_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True,
                       timeout=CLI_TIMEOUT_S)
        floor.append(time.perf_counter() - t0)
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["cli.python_floor_s"] = statistics.median(floor)
    return out


def per_layer(tally: Tally, extra: dict) -> dict:
    n = tally.attempted
    out = import_probe()
    for name in CLI_COMMANDS.values():
        out[name] = 0.0
    for cmd, times in extra["per_command"].items():
        out[CLI_COMMANDS[cmd]] = statistics.median(times)
    empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "failed": 0, "effort": 0}
    for name, fields in SPAN_METRICS:
        s = tally.spans.get(name, empty)
        for f in fields:
            out[f"{name}.{f}"] = s[f] / n
    quad = tally.spans.get("specialfn.de_quadrature", empty)
    out["specialfn.de_quadrature.useful_frac"] = (
        (quad["calls"] - quad["failed"]) / quad["calls"] if quad["calls"] else 0.0)
    for suite in ("special", "fermat", "regulator"):
        s = tally.spans.get(f"verify.run_suite.{suite}", empty)
        out[f"verify.run_suite.{suite}_ms"] = s["total_ms"] / s["calls"] if s["calls"] else 0.0
    out["certified_frac"] = (n - tally.failed) / n
    out["effort_per_call"] = statistics.fmean(tally.efforts) if tally.efforts else 0.0
    ratios = sorted(tally.over_actual)
    out["accuracy.err_over_actual_p50"] = statistics.median(ratios) if ratios else 0.0
    out["accuracy.err_over_actual_max"] = ratios[-1] if ratios else 0.0
    out["trace.overhead_frac"] = extra["overhead"]
    return out


# --- main -------------------------------------------------------------------

def declared_metrics(traced: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced = bool(args.trace)

    if not (ROOT / "src" / "fermatreg" / "__init__.py").is_file():
        print(f"error: no fermatreg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(traced)
    refs = load_refs()
    # compile the package's bytecode once, as an install does, before timing
    subprocess.run([sys.executable, "-c", "import fermatreg"], cwd=ROOT, env=ENV,
                   check=True, timeout=CLI_TIMEOUT_S)
    try:
        tally, extra = run_workload(args.workload, args.seed, args.seconds, traced, refs)
        values = per_layer(tally, extra) if traced else end_to_end(tally, extra)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units) or not all(map(math.isfinite, values.values())):
        print(f"metric set does not match BENCHMARK.json: {sorted(values)}", file=sys.stderr)
        return 1

    lat = sorted(tally.latencies)
    k = tail_index(len(lat))
    print(f"{args.workload} seed {args.seed}: {tally.attempted} calls, "
          f"{tally.failed} failed, tail = p{100 * (k + 1) / len(lat):.1f} of "
          f"{len(lat)} samples, {extra['replayed_rounds']} rounds replayed")
    print(json.dumps({
        "correct": True, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
