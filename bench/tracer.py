"""Span tracing around the public functions of the eurnoise layers.

`Tracer.install()` wraps every public function defined in
eurnoise.{linalg,states,channels,metrics,scenarios} and rebinds each name
that refers to it in any loaded eurnoise module, so that calls made through
`from eurnoise.x import f` are seen too. Spans are kept in memory as
(name, start, end, parent, tag) and written out by `write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "states", "channels", "metrics", "scenarios")

# per-span tags, computed from (args, result); result is None if the call raised
TAGS = {
    "linalg.hermitian_eigenvalues": lambda args, result: len(args[0]),
    "metrics.minimal_missing_info_ad": lambda args, result: (
        None if result is None else bool(result.used_fallback)
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock, tag = self.spans, self._stack, time.perf_counter, TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if tag is not None:
                    span[4] = tag(args, result)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eurnoise.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in [m for n, m in sys.modules.items() if n == "eurnoise" or n.startswith("eurnoise.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(span_lists, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times from one or more span lists (one list per
    traced process; parent indices refer to the same list). Functions that
    some workloads never call are given as shares of wall_s, the traced
    operations' time, so that no time reads 0."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    fn_calls = defaultdict(int)
    fn_s = defaultdict(float)
    eig4_calls = 0
    eig4_s = 0.0
    ad_m_closed = 0
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, tag) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            calls[layer] += 1
            self_s[layer] += dur - child_s[i]
            fn_calls[name] += 1
            fn_s[name] += dur
            if name == "linalg.hermitian_eigenvalues" and tag == 4:
                eig4_calls += 1
                eig4_s += dur
            if name == "metrics.minimal_missing_info_ad" and tag is False:
                ad_m_closed += 1
    ad_m_calls = fn_calls["metrics.minimal_missing_info_ad"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update(
        {
            "linalg.eig4_calls": eig4_calls,
            "linalg.eig4_s": eig4_s,
            "linalg.entropy_calls": fn_calls["linalg.von_neumann_entropy"],
            "states.bd_to_density_calls": fn_calls["states.bd_to_density"],
            "channels.evolve_flip_calls": fn_calls["channels.evolve_bd_flip"],
            "channels.evolve_ad_calls": fn_calls["channels.evolve_bd_amplitude"],
            "metrics.concurrence_s": fn_s["metrics.concurrence"],
            "metrics.pinching_U_share": fn_s["metrics.uncertainty_U"] / wall_s,
            "metrics.bruteforce_calls": fn_calls["metrics.minimal_missing_info_bruteforce"],
            "metrics.bruteforce_share": fn_s["metrics.minimal_missing_info_bruteforce"] / wall_s,
            "metrics.ad_m_calls": ad_m_calls,
            # share of closed-form outcomes; 0 when there were no calls
            "metrics.ad_m_closed_form_ratio": ad_m_closed / ad_m_calls if ad_m_calls else 0.0,
            "scenarios.emit_csv_s": fn_s["scenarios.emit_csv"],
        }
    )
    return out
