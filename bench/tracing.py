"""In-memory span recorder that wraps prunesearch's layer functions from outside.

The package binds names with ``from .x import y``, so one function lives under
several module attributes at once (``prunesearch.model.forward`` and
``prunesearch.objective.forward``, say). ``Tracer.install`` replaces every
binding of each traced function across the package with one timing wrapper,
and ``uninstall`` puts the originals back; nothing under ``src/`` changes.

A span is (id, name, start, end, parent, thread). The parent is the innermost
open span of the same thread. A span opened on a worker thread with nothing
open on it (the search thread pool) takes the innermost open span of the main
thread, so pool work counts as a child of the search that scheduled it.
"""

import contextlib
import hashlib
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass

# Functions wrapped per layer: the public entry points at each layer boundary,
# plus softmax_rows, the one inner model function the profile singles out.
# Small helpers called inside a layer (rmsnorm, the metric factors, the genetic
# operators) stay unwrapped so the wrappers do not dominate what they time.
TRACED = {
    "model": ("forward", "final_hidden_batch", "softmax_rows"),
    "metric": ("score",),
    "prune": ("prune_model", "build_mask", "apply_mask"),
    "objective": ("collect_activation_stats", "make_context", "divergence", "evaluate_config"),
    "search": ("nsga2_search", "exhaustive_search"),
    "io": (
        "read_model", "read_calib", "read_stats", "read_masks",
        "write_model", "write_calib", "write_stats", "write_masks", "write_results",
    ),
    "analysis": ("alignment_discrepancy", "distribution_summary", "emit_report"),
}


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children that ran in parallel (thread pool) are merged before they are
    subtracted, so self time never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest of p99.9/p99/p90/p50 with at least `min_beyond` of `n` samples
    above it; None when even the median has too few."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if round(n * (100.0 - p) / 100.0, 6) >= min_beyond:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 6)))
    return ordered[rank - 1]


def mask_digest(masks) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(masks):
        bits = masks[key].bits
        h.update(f"{key}{bits.shape}".encode())
        h.update(bits.tobytes())
    return h.digest()


def package_modules() -> dict:
    """Layer name -> module, for every prunesearch module that binds a traced function."""
    from prunesearch import analysis, cli, metric, model, objective, prune, search
    from prunesearch import io as storage

    return {"model": model, "metric": metric, "prune": prune, "objective": objective,
            "search": search, "io": storage, "analysis": analysis, "cli": cli}


class Tracer:
    """Collects spans and side counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tokens = 0  # tokens pushed through model.forward
        self.bytes_read = 0
        self.bytes_written = 0
        self.mask_digests: list[tuple[float, int | None, bytes]] = []  # (start, command, digest)
        self._names: dict[int, str] = {}  # open spans only
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # counters updated from pool threads
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._command: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        self._names[sid] = name
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int | None, start: float) -> Span:
        end = time.perf_counter()
        self._stack().pop()
        self._names.pop(sid, None)
        span = Span(sid, name, start, end, parent, threading.get_ident())
        self.spans.append(span)
        return span

    def _wrap(self, name: str, func):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            sid, parent, start = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self._close(name, sid, parent, start)
            if after is not None:  # bookkeeping outside the timed interval
                after(self, span, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap every binding of each TRACED function across the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        targets = {}
        for layer, names in TRACED.items():
            for fname in names:
                func = getattr(modules[layer], fname)
                targets[id(func)] = (func, self._wrap(f"{layer}.{fname}", func))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def command(self, label: str):
        """One CLI command as a top-level `cli.<label>` span."""
        name = f"cli.{label}"
        sid, parent, start = self._open(name)
        self._command = sid
        try:
            yield
        finally:
            self._close(name, sid, parent, start)
            self._command = None


def _after_forward(tracer, span, args, result):
    with tracer._lock:
        tracer.tokens += len(args[1])


def _after_read(tracer, span, args, result):
    tracer.bytes_read += os.path.getsize(args[0])


def _after_write(tracer, span, args, result):
    paths = [p for p in args if isinstance(p, (str, os.PathLike))]
    tracer.bytes_written += sum(os.path.getsize(p) for p in paths)


def _after_prune(tracer, span, args, result):
    # Only candidate evaluations count toward the mask-reuse ratio.
    if tracer._names.get(span.parent) == "objective.evaluate_config":
        tracer.mask_digests.append((span.start, tracer._command, mask_digest(result[1])))


_AFTER = {
    "model.forward": _after_forward,
    "prune.prune_model": _after_prune,
    "io.write_results": _after_write,
    **{f"io.read_{k}": _after_read for k in ("model", "calib", "stats", "masks")},
    **{f"io.write_{k}": _after_write for k in ("model", "calib", "stats", "masks")},
}
