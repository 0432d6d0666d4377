"""Measurement hooks that wrap the program's public functions from outside.

Nothing here edits the program. Each hook replaces a module or class
attribute for the length of a `with` block and puts the original back on
exit. The program looks these attributes up at call time (`tasnet.separate`,
`nt.bilstm_batched`, `optimizer.step`, `tape.backward`, ...), so a wrapper
sees every call made on the path a user runs.

- `Probe` takes what the end-to-end metrics and the correctness checks need:
  a few clock reads per optimizer step or `separate` call.
- `SpanTracer` records one span per call of each layer's public function and
  the self time of each span (its duration minus that of its child spans).
- `MemoryTracer` runs tracemalloc through a `train_loop` call and reads the
  bytes live when backward starts and the peak during backward. It slows the
  traced code about threefold, so it runs in a call of its own.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import time
import tracemalloc
from collections import Counter, defaultdict


class SetupReached(Exception):
    """Raised at the first timed operation when only set-up is measured."""


@contextlib.contextmanager
def patched(pairs):
    """Install `make_wrapper(original)` at each `(owner, attr, make_wrapper)`."""
    originals = []
    try:
        for owner, attr, make_wrapper in pairs:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


class Probe:
    """Untraced hooks: step and call times, losses, and first-step inputs."""

    def __init__(self, dp, stop_at_first_op=False):
        self.dp = dp
        self.stop_at_first_op = stop_at_first_op
        self.first_op_at = None  # time.monotonic() at the first timed operation
        self.train_calls = []  # per train_loop call: seconds, examples, steps
        self.step_seconds = []  # zero_grads -> end of Adam.step
        self.losses = []  # batch loss at each backward
        self.nodes = []  # len(tape) at each backward
        self.separate_seconds = []  # every tasnet.separate call
        self.separate_rtf = []  # the same, per second of audio
        self.outputs = []  # (mixture, estimate) arrays of those calls, if kept
        self.rss_mb = []  # peak RSS after each CLI call
        self.keep_outputs = False
        self.initial_model = None  # the first train_loop's model before training
        self.train_set = None
        self.first_batch = []  # mixtures of the separate calls before the first backward
        self._step_started = None

    def _first_op(self):
        if self.first_op_at is None:
            self.first_op_at = time.monotonic()
            if self.stop_at_first_op:
                raise SetupReached()

    def hooks(self):
        dp = self.dp
        return patched([
            (dp.training, "train_loop", self._train_loop),
            (dp.optim.Adam, "zero_grads", self._zero_grads),
            (dp.optim.Adam, "step", self._step),
            (dp.GradTape, "backward", self._backward),
            (dp.tasnet, "separate", self._separate),
        ])

    def _train_loop(self, original):
        def train_loop(model, train_set, *args, **kwargs):
            self._first_op()
            if self.initial_model is None:
                self.initial_model = copy.deepcopy(model)
                self.train_set = train_set
            started = time.perf_counter()
            result = original(model, train_set, *args, **kwargs)
            self.train_calls.append({
                "seconds": time.perf_counter() - started,
                "examples": result.epochs_run * len(train_set),
                "steps": result.steps_run,
            })
            return result
        return train_loop

    def _zero_grads(self, original):
        def zero_grads(optimizer):
            self._step_started = time.perf_counter()
            return original(optimizer)
        return zero_grads

    def _step(self, original):
        def step(optimizer, lr):
            result = original(optimizer, lr)
            self.step_seconds.append(time.perf_counter() - self._step_started)
            return result
        return step

    def _backward(self, original):
        def backward(tape, loss):
            self.losses.append(float(loss.data))
            self.nodes.append(len(tape))
            return original(tape, loss)
        return backward

    def _separate(self, original):
        def separate(mixture, model):
            self._first_op()
            if self.train_set is not None and not self.losses:
                self.first_batch.append(mixture.data.copy())
            started = time.perf_counter()
            est = original(mixture, model)
            seconds = time.perf_counter() - started
            self.separate_seconds.append(seconds)
            self.separate_rtf.append(seconds * model.sample_rate / mixture.shape[-1])
            if self.keep_outputs:
                self.outputs.append((mixture.data.copy(), est.data.copy()))
            return est
        return separate


def _bilstm_name(parent):
    if parent == "dualpath.intra":
        return "rnn.bilstm_intra"
    if parent == "dualpath.inter":
        return "rnn.bilstm_inter"
    return "rnn.bilstm"


def traced_functions(dp):
    """(owner, attribute, span name) for each layer's public entry point."""
    return [
        (dp.training, "train_loop", "loop.train_loop"),
        (dp.loop, "validate_si_snri", "loop.validate"),
        (dp.loop, "upit_loss", "loss.upit"),
        (dp.loop, "clip_grad_norm", "optim.clip"),
        (dp.optim.Adam, "step", "optim.adam"),
        (dp.GradTape, "backward", "tape.backward"),
        (dp.tasnet, "separate", "tasnet.separate"),
        (dp.tasnet, "encode", "tasnet.encode"),
        (dp.tasnet, "estimate_masks", "tasnet.mask_head"),
        (dp.tasnet, "apply_masks", "tasnet.apply_masks"),
        (dp.tasnet, "decode", "tasnet.decode"),
        (dp.tasnet, "save_model", "checkpoint.save"),
        (dp.tasnet, "load_model", "checkpoint.load"),
        (dp.dualpath, "segment", "dualpath.segment"),
        (dp.dualpath, "overlap_add", "dualpath.overlap_add"),
        (dp.dualpath, "intra_chunk_pass", "dualpath.intra"),
        (dp.dualpath, "inter_chunk_pass", "dualpath.inter"),
        (dp.dualpath, "global_layer_norm", "dualpath.gln"),
        (dp.numerics, "bilstm_batched", _bilstm_name),
        (dp.data, "make_dataset", "data.make_dataset"),
        (dp.data, "read_wav", "data.read_wav"),
        (dp.data, "write_wav", "data.write_wav"),
    ]


class SpanTracer:
    """Nested spans with self time, kept in memory until the run ends."""

    def __init__(self, dp):
        self.dp = dp
        self.spans = []  # [name, start, end, parent index or None]
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self._open = []  # (span index, seconds covered by child spans)

    def hooks(self):
        return patched(
            (owner, attr, self._wrapper(name))
            for owner, attr, name in traced_functions(self.dp)
        )

    def _wrapper(self, name):
        def make(original):
            def traced(*args, **kwargs):
                parent = self._open[-1][0] if self._open else None
                span_name = name
                if callable(name):
                    span_name = name(self.spans[parent][0] if parent is not None else None)
                index = len(self.spans)
                self.spans.append([span_name, None, None, parent])
                self._open.append([index, 0.0])
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    ended = time.perf_counter()
                    _, child_seconds = self._open.pop()
                    self.spans[index][1:3] = started, ended
                    self.self_seconds[span_name] += ended - started - child_seconds
                    self.calls[span_name] += 1
                    if self._open:
                        self._open[-1][1] += ended - started
            return traced
        return make


class MemoryTracer:
    """Bytes tracemalloc sees live at each backward, and its peak during it."""

    def __init__(self, dp):
        self.dp = dp
        self.live_bytes = []
        self.peak_bytes = []

    def hooks(self):
        dp = self.dp
        return patched([
            (dp.training, "train_loop", self._train_loop),
            (dp.GradTape, "backward", self._backward),
        ])

    def _train_loop(self, original):
        def train_loop(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                tracemalloc.stop()
        return train_loop

    def _backward(self, original):
        def backward(tape, loss):
            self.live_bytes.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            try:
                return original(tape, loss)
            finally:
                self.peak_bytes.append(tracemalloc.get_traced_memory()[1])
        return backward
