"""Spans around shadowcheck's layers, recorded from outside the package.

``Probe`` is the light counter every run installs: it wraps
``IterationRunner.run`` and notes, per iteration, when it ended, how many
steps it executed and replayed, how many threads and scheduler decisions it
used, and how it ended. ``Tracer`` adds spans: it patches the public
classes and functions of each layer (and the names other modules imported
with ``from``, where they are looked up), keeps every span in memory as
(id, name, parent, start, end), derives self times as spans close, and
writes the spans out at the end. Nothing inside ``src/`` is changed.

A span's parent is the innermost open span of its own thread; a thread's
first span takes as parent the span that was open in the thread that
started it. Self time is a span's duration minus its children's durations,
so the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import array
import gzip
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path

from shadowcheck import dispatch, dpor, explorer, race, runtime, scheduler, tracer
from shadowcheck.scheduler import IterationOutcome

now = time.perf_counter


class Probe:
    """Per-iteration facts, gathered by wrapping ``IterationRunner.run``."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.ends: list[float] = []
        self.steps = 0
        self.replayed = 0
        self.threads = 0
        self.decisions = 0
        self.outcomes: Counter = Counter()
        self.terminals: set[tuple[int, ...]] = set()

    def record(self, runner, result) -> None:
        self.ends.append(now())
        n = len(result.trace.steps)
        self.steps += n
        self.outcomes[result.outcome] += 1
        # Runner internals: a renamed one raises here rather than reading 0.
        self.replayed += min(len(runner.plan.replay), n)
        self.threads += len(runner.ctx.hosts)
        self.decisions += len(runner.scheduler.decisions)
        if result.outcome is IterationOutcome.NORMAL_END:
            self.terminals.add(result.terminal_cells)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original)``; a missing name raises
        ``KeyError``, so a renamed entry point never reads as zero time."""
        self.set(owner, name, make(owner.__dict__[name]))

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install_probe(probe: Probe, patches: Patches, around_run=None) -> None:
    original = runtime.IterationRunner.run
    inner = original if around_run is None else around_run(original)

    def run(runner):
        result = inner(runner)
        probe.record(runner, result)
        return result

    patches.set(runtime.IterationRunner, "run", run)


class _Buffer:
    """One thread's closed spans, column by column."""

    def __init__(self) -> None:
        self.span = array.array("q")
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._local = threading.local()
        self._dodging = threading.local()
        self._seq = itertools.count()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.calls.append(0)
        return nid

    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.inherited = getattr(threading.current_thread(), "_bench_parent", None)
            local.buffer = _Buffer()
            with self._buffers_lock:
                self._buffers.append(local.buffer)
        return local

    def current(self):
        local = self._thread_state()
        return local.stack[-1] if local.stack else local.inherited

    def open(self, nid: int) -> list:
        local = self._thread_state()
        stack = local.stack
        parent = stack[-1] if stack else local.inherited
        # [name, span id, parent frame, owner thread, same-thread child time,
        #  other-thread child times, start]
        frame = [nid, next(self._seq), parent, threading.get_ident(), 0.0, [], now()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = now()
        local = self._local
        local.stack.pop()
        nid, sid, parent, owner, child, cross, start = frame
        duration = end - start
        self.total[nid] += duration
        self.self_time[nid] += duration - child - sum(cross)
        self.calls[nid] += 1
        if parent is not None:
            if parent[3] == owner:
                parent[4] += duration
            else:
                parent[5].append(duration)
        buf = local.buffer
        buf.span.append(sid)
        buf.name.append(nid)
        buf.parent.append(-1 if parent is None else parent[1])
        buf.start.append(start)
        buf.end.append(end)

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            frame = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------------

    def reset(self) -> None:
        """Forget totals and spans; keep the patches in place."""
        for i in range(len(self.names)):
            self.total[i] = self.self_time[i] = 0.0
            self.calls[i] = 0
        self.counts.clear()
        self.maxima.clear()
        self._local = threading.local()
        with self._buffers_lock:
            self._buffers = []

    def by_name(self, table: list) -> dict[str, float]:
        return {name: table[i] for i, name in enumerate(self.names)}

    def intervals(self, name: str) -> list[tuple[float, float]]:
        nid = self._ids.get(name)
        found = []
        for buf in self._buffers:
            for i, n in enumerate(buf.name):
                if n == nid:
                    found.append((buf.start[i], buf.end[i]))
        return found

    def write(self, path: Path) -> int:
        """Write every span: one JSON header line, then the columns as raw arrays."""
        columns = ("span", "name", "parent", "start", "end")
        merged = {c: array.array(getattr(_Buffer(), c).typecode) for c in columns}
        for buf in self._buffers:
            for c in columns:
                merged[c].extend(getattr(buf, c))
        header = {
            "names": self.names,
            "count": len(merged["span"]),
            "columns": [[c, merged[c].typecode] for c in columns],
            "clock": "time.perf_counter seconds",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write((json.dumps(header) + "\n").encode())
            for c in columns:
                out.write(merged[c].tobytes())
        return header["count"]

    # -- the patches ------------------------------------------------------------

    def install(self, probe: Probe, patches: Patches) -> None:
        """Wrap every layer's entry points; ``patches.undo()`` removes them."""
        wrap = self.wrap
        counts, maxima = self.counts, self.maxima

        def method(cls, attr: str, name: str, after=None) -> None:
            patches.wrap(cls, attr, lambda original: wrap(name, original, after))

        def function(modules, attr: str, name: str, after=None) -> None:
            traced = wrap(name, vars(modules[0])[attr], after)
            for module in modules:
                patches.wrap(module, attr, lambda _original: traced)

        # runtime: one execution; its constructor also times the step hook.
        install_probe(probe, patches, lambda run: wrap("runtime.run", run))
        runner_init = runtime.IterationRunner.__init__
        init_id = self.name_id("runtime.init")
        hook_id = self.name_id("explorer.step_hook")
        open_, close = self.open, self.close

        def traced_hook(hook):
            def step_hook(*args):
                frame = open_(hook_id)
                try:
                    hook(*args)
                finally:
                    close(frame)

            return step_hook

        def init(runner, *args, **kwargs):
            if kwargs.get("step_hook") is not None:
                kwargs["step_hook"] = traced_hook(kwargs["step_hook"])
            frame = open_(init_id)
            try:
                runner_init(runner, *args, **kwargs)
            finally:
                close(frame)

        patches.set(runtime.IterationRunner, "__init__", init)

        # scheduler
        method(scheduler.Scheduler, "pick_next", "scheduler.pick_next")

        # dpor: patched where explorer looks the names up, too.
        def count_additions(result, args):
            counts["dpor.additions"] += len(result)

        function((dpor, explorer), "on_execute", "dpor.on_execute", count_additions)
        function((dpor, explorer), "dependent_subset", "dpor.dependent_subset")
        function((dpor, explorer), "is_backtrack_point", "dpor.is_backtrack_point")

        # explorer: the controller and its backtrack store.
        store = explorer.BacktrackStore
        method(explorer.Explorer, "__init__", "explorer.init")
        method(explorer.Explorer, "explore", "explorer.explore")
        method(explorer.Explorer, "explore_initial", "explorer.explore_initial")
        method(store, "select_point", "explorer.store_select")
        method(store, "take_branch", "explorer.store_take")
        method(store, "live_points", "explorer.store_live_points")
        method(store, "seed", "explorer.store_seed")

        dodging = self._dodging

        def dodge_marker(original):
            dodges = wrap("explorer.race_dodges", original)

            def absorb_race_dodges(*args):
                dodging.active = True
                try:
                    return dodges(*args)
                finally:
                    dodging.active = False

            return absorb_race_dodges

        patches.wrap(explorer.Explorer, "_absorb_race_dodges", dodge_marker)

        def pending_at(st, key) -> set:
            rec = st._records.get(key)
            return set() if rec is None else set(rec.pending)

        def banking(attr: str, name: str, source):
            def make(original):
                traced = wrap(name, original)

                def absorb(st, prefix, depth, *rest):
                    before = pending_at(st, (prefix, depth))
                    traced(st, prefix, depth, *rest)
                    counts[source()] += len(pending_at(st, (prefix, depth)) - before)

                return absorb

            patches.wrap(store, attr, make)

        banking("absorb_state", "explorer.store_absorb_state", lambda: "points_banked_state")
        banking(
            "absorb_addition",
            "explorer.store_absorb_addition",
            lambda: "points_banked_race" if getattr(dodging, "active", False) else "points_banked_lookback",
        )

        encode_id = self.name_id("dispatch.encode_point")

        def flushing(original):
            flush = wrap("explorer.store_flush", original)

            def traced_flush(st):
                encoded = self.calls[encode_id]
                flush(st)
                live = self.calls[encode_id] - encoded
                maxima["store_live_peak"] = max(maxima["store_live_peak"], live)
                maxima["store_records_peak"] = max(maxima["store_records_peak"], len(st._records))
                if st._path is not None:  # a store without a file does not flush
                    counts["store_flush_bytes"] += st._path.stat().st_size

            return traced_flush

        patches.wrap(store, "flush", flushing)

        # race
        method(race.RaceDetector, "on_pending", "race.on_pending")

        # tracer
        sink = tracer.TraceSink
        method(sink, "__init__", "tracer.init")
        method(sink, "record_step", "tracer.record_step")
        method(sink, "drop_iteration", "tracer.drop_iteration")
        method(sink, "close_iteration", "tracer.close_iteration")
        method(sink, "write_report", "tracer.write_report")

        # dispatch: the codec and the link functions.
        for attr in (
            "check_distributed",
            "partition",
            "encode_point",
            "decode_point",
            "encode_report",
            "decode_report",
            "serve_worker",
            "_merge_reports",
        ):
            function((dispatch,), attr, "dispatch." + attr.lstrip("_"))

        # A new thread's first span hangs under the span open where it started.
        thread_start = threading.Thread.start
        current = self.current

        def start(thread):
            thread._bench_parent = current()
            return thread_start(thread)

        patches.set(threading.Thread, "start", start)
