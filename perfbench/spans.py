"""Spans around the public functions of each collidersim layer.

The tracer replaces each function at the name its caller looks it up
by (for example `collidersim.oracle.distance_bracket`, which is where
the oracle finds `sources.distance_bracket`), so nothing under `src/`
changes. A span records its name, op, start, end and parent; self time
is the span's duration minus the time of its child spans. Aggregates
are exact; individual spans are kept in memory up to a cap and written
out when the run ends.
"""

from __future__ import annotations

import functools
import time

from collidersim import (cli, dyadic, harness, kernels, oracle, procedures,
                         rng, sources)
from collidersim.collision import Outcome

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stats = {}          # name -> [calls, busy_s, self_s]
        self.split_self = {}     # "name.bucket" -> self_s
        self.counters = {}
        self.spans = []          # (id, parent id, op, name, start, end)
        self.dropped = 0
        self._stack = []         # [name, start, child_s, id]
        self._open = {}          # name -> spans of that name now open
        self._next_id = 0
        self._patches = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1

    def _exit(self, split) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        if not self._open[name]:       # a recursive call is busy only once
            st[1] += duration
        st[2] += duration - child
        if split is not None:
            key = f"{name}.{split}"
            self.split_self[key] = self.split_self.get(key, 0.0) + duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else None, self.op,
                               name, start, end))
        else:
            self.dropped += 1

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None, split=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        observe(tracer, args, result) runs after the call; split(args)
        names a sub-bucket that also receives the span's self time.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(split(args) if split else None)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        w = self.wrap
        w(kernels, "count_outcomes", "kernels.count_outcomes",
          observe=lambda t, a, r: t.count("kernels.trials", a[2]))
        w(oracle.CollisionOracle, "query", "oracle.query",
          observe=_observe_query, split=_billing)
        w(oracle.CollisionOracle, "batch_query", "oracle.batch_query",
          observe=_observe_batch)
        w(oracle, "validate_word", "dyadic.validate_word")
        w(dyadic, "validate_word", "dyadic.validate_word")
        w(oracle, "word_to_dyadic", "dyadic.word_to_dyadic")
        w(rng, "raw64", "rng.raw64")
        w(sources.MassSource, "interval", "sources.interval",
          observe=lambda t, a, r: t.maximum("sources.max_depth", a[1]))
        w(sources.MassSource, "digit_at", "sources.digit_at",
          observe=lambda t, a, r: t.maximum("sources.max_depth", a[1]))
        w(oracle, "distance_bracket", "sources.distance_bracket")
        w(cli, "encoded_mass", "advice.encoded_mass")
        w(cli, "decode_advice", "advice.decode_advice")
        w(cli, "bisection", "procedures.bisection")
        w(procedures, "grid_sweep", "procedures.grid_sweep")
        w(harness, "estimate_digits", "harness.estimate_digits")
        w(cli, "main", "cli.main")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, op_wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics over the traced ops, whose wall time is op_wall_s.

        Times are given as shares of the traced op wall time: a layer the
        workload never reaches reads 0. overhead_s is the traced minus the
        untraced time of the same ops.
        """
        def st(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        def share(seconds):
            return seconds / op_wall_s

        c = self.counters
        trials = c.get("kernels.trials", 0)
        kernel_busy = st("kernels.count_outcomes")[1]
        experiments = c.get("oracle.experiments", 0)
        return {
            "kernels.count_outcomes.calls": st("kernels.count_outcomes")[0],
            "kernels.count_outcomes.busy_share": share(kernel_busy),
            "kernels.trials": trials,
            "kernels.trials_per_s": trials / kernel_busy if kernel_busy else 0.0,
            "oracle.query.calls": st("oracle.query")[0],
            "oracle.query.busy_share": share(st("oracle.query")[1]),
            "oracle.query.self_share": share(st("oracle.query")[2]),
            "oracle.query.interrupt.self_share":
                share(self.split_self.get("oracle.query.interrupt", 0.0)),
            "oracle.query.full.self_share":
                share(self.split_self.get("oracle.query.full", 0.0)),
            "oracle.experiments": experiments,
            "oracle.answered_ratio": (c.get("oracle.answered", 0) / experiments
                                      if experiments else 0.0),
            "oracle.probe_depth.max": c.get("oracle.probe_depth.max", 0),
            "oracle.batch_query.calls": st("oracle.batch_query")[0],
            "oracle.batch_query.self_share": share(st("oracle.batch_query")[2]),
            "dyadic.validate_word.calls": st("dyadic.validate_word")[0],
            "dyadic.validate_word.busy_share": share(st("dyadic.validate_word")[1]),
            "dyadic.word_to_dyadic.busy_share": share(st("dyadic.word_to_dyadic")[1]),
            "rng.raw64.calls": st("rng.raw64")[0],
            "rng.raw64.busy_share": share(st("rng.raw64")[1]),
            "sources.interval.calls": st("sources.interval")[0],
            "sources.interval.busy_share": share(st("sources.interval")[1]),
            "sources.distance_bracket.calls": st("sources.distance_bracket")[0],
            "sources.distance_bracket.busy_share": share(st("sources.distance_bracket")[1]),
            "sources.digit_at.calls": st("sources.digit_at")[0],
            "sources.digit_at.busy_share": share(st("sources.digit_at")[1]),
            "sources.max_depth": c.get("sources.max_depth", 0),
            "advice.encoded_mass.busy_share": share(st("advice.encoded_mass")[1]),
            "advice.decode_advice.calls": st("advice.decode_advice")[0],
            "advice.decode_advice.busy_share": share(st("advice.decode_advice")[1]),
            "procedures.bisection.self_share": share(st("procedures.bisection")[2]),
            "procedures.grid_sweep.self_share": share(st("procedures.grid_sweep")[2]),
            "harness.estimate_digits.self_share": share(st("harness.estimate_digits")[2]),
            "cli.main.calls": st("cli.main")[0],
            "cli.main.self_share": share(st("cli.main")[2]),
            "cli.bytes_written": c.get("cli.bytes_written", 0),
            "trace.overhead_s": overhead_s,
            "trace.coverage": share(sum(v[2] for v in self.stats.values())),
        }

    def dump(self) -> dict:
        return {"layers": {name: {"calls": v[0], "busy_s": v[1], "self_s": v[2]}
                           for name, v in sorted(self.stats.items())},
                "split_self_s": self.split_self,
                "counters": self.counters,
                "spans_dropped": self.dropped,
                "spans": self.spans}


def _billing(args) -> str:
    policy = args[0].config.wait_policy
    return "full" if policy is oracle.WaitPolicy.FULL_BUDGET else "interrupt"


def _observe_query(tracer, args, record):
    tracer.count("oracle.experiments")
    if record.outcome is not Outcome.TIMEOUT:
        tracer.count("oracle.answered")
    tracer.maximum("oracle.probe_depth.max", record.probe_depth or 0)


def _observe_batch(tracer, args, record):
    tracer.count("oracle.experiments", record.zeta)
    tracer.count("oracle.answered", record.n_lesser + record.n_greater)
