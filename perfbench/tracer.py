"""Call tracing from outside the program: wrappers on public functions.

`Tracer.install` replaces module attributes (and a few class attributes)
with wrappers under the names their callers look up, e.g.
`contextrec.trainer.sample_relaxed`, and restores the originals on exit.
Three kinds of wrapper:

- span: records (id, name, tag, phase, start, end, parent, self time);
  self time is the duration minus the time of the traced calls it made;
- timed: adds count and time to running totals without a span record, for
  functions called per event (vectorizers, `angular_distance`);
- count: only counts, for functions called millions of times (the event
  key methods), whose own time stays in their caller's self time.

`tag` names the benchmark operation in progress (an objective, "request",
"setup", ...), set by the workload code. `phase` splits a `train()` call
into its preparation (before the optimizer state exists) and its fit and
validation passes; `train_markers` maintains it. Spans are kept in memory
and written out by `dump` when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.tag = ""
        self.phase = ""
        self.spans: list[tuple] = []
        self.time = defaultdict(float)  # (tag, phase, name) -> inclusive seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(float)  # (tag, phase, name) -> summed observation
        self.root_time = defaultdict(float)  # tag -> seconds in outermost calls
        self.fit_start: dict = {}  # span id of a train() call -> start of its fit phase
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """Wrap `fn` in a span; `observe(tracer, key, args, result)` runs
        after the span has ended, so its cost is not timed."""

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            key = (self.tag, self.phase, name)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self._account(key, end - start, end - start - frame[1])
                self.spans.append((sid, name, key[0], key[1], start, end, parent, end - start - frame[1]))
                if observe is not None and result is not None:
                    observe(self, key, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._account((self.tag, self.phase, name), dur, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[(self.tag, self.phase, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _account(self, key, dur: float, self_s: float) -> None:
        self.time[key] += dur
        self.self_time[key] += self_s
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_time[key[0]] += dur

    # -- installation -----------------------------------------------------

    @contextmanager
    def install(self, patches):
        """patches: (owner, attribute, wrapper factory) triples; the factory
        maps the original function to its replacement."""
        saved = []
        try:
            for owner, attr, make in patches:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(make(original.__func__)))
                else:
                    setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def total(self, table, tag, phase, *names) -> float:
        return sum(table[(tag, phase, n)] for n in names)

    def self_sum_error(self) -> float:
        """Largest relative gap, over tags, between the outermost calls'
        time and the sum of every traced call's self time under them."""
        worst = 0.0
        for tag, root in self.root_time.items():
            if root <= 0:
                continue
            selfs = sum(v for (t, _, _), v in self.self_time.items() if t == tag)
            worst = max(worst, abs(selfs - root) / root)
        return worst

    def dump(self, path) -> None:
        fields = ("id", "name", "tag", "phase", "start", "end", "parent", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def train_markers(tracer: Tracer, trainer_module, nn_core_module):
    """Patches that keep `tracer.phase` on the part of `train()` in progress.

    - "prep": from the start of the call until the optimizer state exists
      (split, distinct-item count, BPR pair index, validation batches);
    - "fit": training-mode forward passes and everything until the next
      serving-mode pass;
    - "val": validation-mode forward passes and the losses computed on them.
    """

    def mark_train(fn):
        span = tracer.span("trainer.train", fn)

        def wrapper(*args, **kwargs):
            tracer.phase = "prep"
            try:
                return span(*args, **kwargs)
            finally:
                tracer.phase = ""

        return wrapper

    def mark_fit(fn):
        def wrapper(cls, *args, **kwargs):
            tracer.fit_start[tracer._stack[-1][0]] = perf_counter()
            tracer.phase = "fit"
            return fn(cls, *args, **kwargs)

        return wrapper

    def mark_forward(fn):
        span = tracer.span("nn_core.encoder_forward", fn)

        def wrapper(layers, x, dropout_rate=0.0, rng=None, training=False):
            if tracer.phase != "prep":
                tracer.phase = "fit" if training else "val"
            return span(layers, x, dropout_rate, rng, training)

        return wrapper

    return [
        (trainer_module, "train", mark_train),
        (nn_core_module.AdamState, "for_params", mark_fit),
        (trainer_module, "encoder_forward", mark_forward),
    ]
