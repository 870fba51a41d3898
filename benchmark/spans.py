"""In-memory span tracing of calls into cohlim's layers.

Spans are recorded from the benchmark's side: each traced function is
replaced by a timing wrapper in its defining module and in every `cohlim`
module that imported it by name, so nested calls (for example `sample_chi`
inside `mc_oracle`) become child spans and self times exclude them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function) pairs wrapped in a traced invocation.  The layer name is
# the module's last component.
TRACED = (
    ("cohlim.cli", "run_experiment"),
    ("cohlim.ito_sampler", "sample_chi"),
    ("cohlim.functionals", "fock_functional"),
    ("cohlim.functionals", "sigma_mu_sq"),
    ("cohlim.moments", "build_q"),
    ("cohlim.moments", "wick_moment"),
    ("cohlim.moments", "mc_oracle"),
    ("cohlim.dynamics", "sigma_t"),
    ("cohlim.dynamics", "uniformization_metric"),
    ("cohlim.config", "build_grid"),
    ("cohlim.config", "build_measure"),
    ("cohlim.config", "build_density"),
    ("cohlim.config", "build_test_function"),
    ("cohlim.config", "build_dispersion"),
    ("cohlim.config", "parse_t_grid"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


class Tracer:
    """Records spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        cohlim_modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cohlim" or key.startswith("cohlim."))
        ]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(f"{mod_name.rsplit('.', 1)[-1]}.{attr}", original)
            for mod in cohlim_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call, as a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans) -> dict:
    """Per span name: call count, inclusive seconds, and self seconds (the
    span's duration minus the part its direct children cover).  Children of
    one span never overlap: the program is single-threaded at these
    boundaries."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        dur = s.end - s.start
        agg = out[s.name]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time[i]
    return dict(out)


def top_level_s(spans, prefix: str) -> float:
    """Seconds spent in spans named `prefix*` that are not nested in another
    `prefix*` span: the layer's time, without counting its own nested calls
    twice."""
    total = 0.0
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        nested = False
        while p >= 0:
            if spans[p].name.startswith(prefix):
                nested = True
                break
            p = spans[p].parent
        if not nested:
            total += s.end - s.start
    return total
