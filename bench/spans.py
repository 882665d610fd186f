"""Per-layer spans recorded around the public functions of fermatreg.

The wrappers live here, not in the package: ``install`` replaces each public
function of ``specialfn``, ``fermat``, ``regulator`` and ``verify`` in every
module namespace that looks it up by name (``regulator.hyp3f2_unit`` is the
same function as ``specialfn.hyp3f2_unit``), and each suite of
``verify.SUITES``.  Spans are aggregated in memory per function name.  A
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("specialfn", "fermat", "regulator", "verify")


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, failed, effort]
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            result = None
            failed = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            except Exception as exc:
                result = getattr(exc, "result", None)  # BudgetExceededError
                raise
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                stats[3] += failed
                effort = getattr(result, "effort", None)
                if effort is not None:
                    stats[4] += int(effort)

        return traced

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        cli = sys.modules.get(package.__name__ + ".cli")
        namespaces = modules + [package] + ([cli] if cli else [])
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        setattr(ns, name, traced)
        suites = package.verify.SUITES
        for key, fn in list(suites.items()):
            suites[key] = self.wrap(f"verify.run_suite.{key}", fn)

    def report(self) -> dict:
        return {name: {"calls": s[0], "total_ms": 1e3 * s[1], "self_ms": 1e3 * s[2],
                       "failed": s[3], "effort": s[4]}
                for name, s in self.stats.items() if s[0]}


def merge(total: dict, part: dict) -> None:
    """Add the span report ``part`` into ``total``."""
    for name, s in part.items():
        acc = total.setdefault(name, dict.fromkeys(s, 0))
        for k, v in s.items():
            acc[k] += v
