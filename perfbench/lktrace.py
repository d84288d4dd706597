"""Outside-in tracer: spans around the engine's public entry points.

The tracer swaps each target attribute (a module-level function or a class
method) for a wrapper that records a span, and puts every original back
when it is uninstalled. It wraps only public names that the engine, model
and theory modules resolve at call time; private helpers such as the
blocked prefill kernel are never wrapped, so their time shows up as the
self time of the span that calls them.

Spans are kept in memory as ``(name, start, end, parent, request)`` rows
and reduced only when the traced section is over. Self time is a span's
duration minus the durations of its direct children; calls are strictly
nested on one thread, so that is exactly the part of the interval no child
covers.

A target that no longer exists (a later refactor renamed it) is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Tuple

MIB = float(1 << 20)

# (metric, module, attribute). A metric may have several call sites: the
# model and theory modules bind their own copies of shared helpers.
TARGETS: List[Tuple[str, str, str]] = [
    ("engine.prefill", "lazykv.engine", "Session.prefill"),
    ("engine.decode_step", "lazykv.engine", "Session.decode_step"),
    ("model.ln", "lazykv.engine", "ln"),
    ("model.project_qkv", "lazykv.engine", "project_qkv"),
    ("model.ffn_forward", "lazykv.engine", "ffn_forward"),
    ("model.mha_from_projections", "lazykv.engine", "mha_from_projections"),
    ("model.mha_from_projections", "lazykv.model", "mha_from_projections"),
    ("numerics.masked_row_softmax", "lazykv.model", "masked_row_softmax"),
    ("numerics.masked_row_softmax", "lazykv.theory", "masked_row_softmax"),
    ("kvcache.append", "lazykv.kvcache", "LayerCache.append"),
    ("kvcache.transfer", "lazykv.kvcache", "LayerCache.transfer_to_streaming"),
    ("kvcache.attend_from_cache", "lazykv.engine", "attend_from_cache"),
    ("lazydetect.lse_log_ratios", "lazykv.engine", "lse_log_ratios"),
    ("lazydetect.push", "lazykv.lazydetect", "IdentifierState.push"),
    ("model.forward_full", "lazykv.theory", "forward_full"),
    ("theory.verify_theorem", "lazykv.theory", "verify_theorem"),
    ("theory.lemma_oracles", "lazykv.theory", "lemma_oracles"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))


def held_bytes(session) -> int:
    """KV bytes a session holds: each row keeps d_head key and d_model value
    floats per head."""
    cfg = session.config
    rows = sum(c.size for c in session.caches)
    return rows * cfg.n_heads * (cfg.d_head + cfg.d_model) * 8


def full_caches_in_use(session) -> int:
    return sum(1 for c in session.caches if c.policy.kind == "full" and c.size > 0)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: List[list] = []
        self.absent: List[str] = []
        self.request = 0
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._session = None
        # Memory accounting, per request where it says so.
        self.peak_bytes = 0
        self.freed_bytes = 0
        self.after_prefill_bytes: List[int] = []
        self.max_full_caches: Dict[int, int] = {}

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        for name, module_name, attr in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            inherited = isinstance(owner, type) and leaf not in owner.__dict__
            self._saved.append((owner, leaf, original, inherited))
            setattr(owner, leaf, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, leaf, original, inherited in reversed(self._saved):
            if inherited:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        session_entry = name.startswith("engine.")
        on_exit = {
            "engine.prefill": self._after_prefill,
            "kvcache.append": self._after_cache_change,
            "kvcache.transfer": self._after_cache_change,
        }.get(name)

        def traced(*args, **kwargs):
            if session_entry:
                tracer._session = args[0]
            before = args[0].size if name == "kvcache.transfer" else 0
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1] if stack else -1
            row = [name, time.perf_counter(), 0.0, parent, tracer.request]
            tracer.spans.append(row)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(args[0], before)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after_prefill(self, session, _before) -> None:
        self.after_prefill_bytes.append(held_bytes(session))

    def _after_cache_change(self, cache, before_rows) -> None:
        session = self._session
        if session is None or not any(c is cache for c in session.caches):
            return
        if before_rows:
            cfg = session.config
            row = cfg.n_heads * (cfg.d_head + cfg.d_model) * 8
            self.freed_bytes += (before_rows - cache.size) * row
        self.peak_bytes = max(self.peak_bytes, held_bytes(session))
        full = full_caches_in_use(session)
        if full > self.max_full_caches.get(self.request, -1):
            self.max_full_caches[self.request] = full

    # -- reduction --------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
        for (name, t0, t1, _, _), child in zip(self.spans, covered):
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += (t1 - t0) * 1e3
            agg["self_ms"] += (t1 - t0 - child) * 1e3
        return out


def _resolve(module_name: str, attr: str):
    """(object that owns the attribute, attribute name), or (None, leaf)."""
    *path, leaf = attr.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, leaf
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf
    return owner, leaf
