"""In-memory span recorder and the wrappers that feed it from outside ``src/``.

The traced run wraps public functions and methods of the program at each
layer boundary (:data:`HOOKS`); nothing inside ``src/`` knows it is being
traced.  Spans live in memory until :meth:`SpanRecorder.write` dumps them
at the end of the run; :func:`self_times` turns them into per-layer busy
time (duration minus the part of the interval its children cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call at a layer boundary.

    ``trace`` groups the spans of one request or run; ``parent`` is the
    id of the enclosing span on the same thread (``None`` at the root).
    ``attrs`` carries counts measured at the same boundary.
    """

    name: str
    start: float
    end: float
    span_id: int
    parent: "int | None"
    trace: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self, trace: str = "run") -> None:
        self.spans: list[Span] = []
        self.trace = trace
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(entry[1] == name for entry in self._stack())

    @contextmanager
    def span(self, name: str, trace: "str | None" = None) -> Iterator[dict]:
        """Record one span; the yielded dict becomes its ``attrs``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent[2] if parent else self.trace
        with self._lock:
            span_id = next(self._ids)
        attrs: dict = {}
        stack.append((span_id, name, trace))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(name, start, end, span_id, parent[0] if parent else None,
                          trace, attrs)
            with self._lock:
                self.spans.append(record)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: "str | Path") -> Path:
        """Dump every span as one JSON list (called once, at the end of a run)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps([asdict(span) for span in self.spans]))
        return target


def covered_length(intervals: "list[tuple[float, float]]", lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: "list[Span]") -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        covered = covered_length(children.get(span.span_id, []), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals


# --------------------------------------------------------------------- #
# counts measured at the boundaries
# --------------------------------------------------------------------- #

_F32 = 4


def _conv_counts(layer, args, out) -> dict:
    x = args[0]
    kh, kw = layer.kernel_size
    n, cout, oh, ow = out.shape
    return {
        "flop": 2.0 * n * cout * oh * ow * layer.in_channels * kh * kw,
        "bytes": float(x.size + layer.weight.data.size + out.size) * _F32,
    }


def _pool_counts(layer, args, out) -> dict:
    kh, kw = layer.kernel_size
    return {
        "flop": float(out.size * kh * kw),
        "bytes": float(args[0].size + out.size) * _F32,
    }


def _linear_counts(layer, args, out) -> dict:
    x = args[0]
    return {
        "flop": 2.0 * out.size * layer.weight.data.shape[1],
        "bytes": float(x.size + layer.weight.data.size + out.size) * _F32,
    }


def _elementwise_counts(layer, args, out) -> dict:
    return {"flop": float(out.size), "bytes": float(args[0].size + out.size) * _F32}


def _faults(injector, args, out) -> dict:
    return {"faults": float(len(args[0].bit_indices))}


def _plane(args, out) -> dict:
    units = out.ref.units
    end = max((max([u.stream[1]] + [b[1] for b in u.buffers]) for u in units), default=0)
    return {"bytes": float(end)}


# (module, qualified attribute, span name, counts-fn or None).  A
# counts-fn receives (self, args, result) for methods and (args, result)
# for module functions.
HOOKS: "list[tuple[str, str, str, Callable | None]]" = [
    ("repro.nn.conv", "Conv2d.forward", "nn.conv2d", _conv_counts),
    ("repro.nn.pooling", "MaxPool2d.forward", "nn.maxpool2d", _pool_counts),
    ("repro.nn.linear", "Linear.forward", "nn.linear", _linear_counts),
    ("repro.nn.activations", "ReLU.forward", "nn.activation", _elementwise_counts),
    ("repro.nn.activations", "ReLU6.forward", "nn.activation", _elementwise_counts),
    ("repro.core.clipped", "ClippedReLU.forward", "nn.activation", _elementwise_counts),
    ("repro.core.metrics", "evaluate_accuracy_arrays", "metrics.evaluate", None),
    ("repro.core.suffix", "SuffixForwardEngine.build", "suffix.clean_pass", None),
    ("repro.core.campaign", "RandomBitFlipSampler.__call__", "hw.sample", None),
    ("repro.core.baselines", "FilterSampler.__call__", "hw.sample", None),
    ("repro.scenarios.faults", "SpecFaultSampler.__call__", "hw.sample", None),
    ("repro.hw.quant", "QuantizedWeightMemory.sample_bitflips", "hw.sample", None),
    ("repro.hw.injector", "FaultInjector.inject", "hw.inject", _faults),
    ("repro.hw.injector", "FaultInjector.restore", "hw.restore", None),
    ("repro.hw.actfaults", "flip_activation_bits", "hw.actfault", None),
    ("repro.core.batched", "BatchedSuffixKernel.run_family", "batched.run_family", None),
    ("repro.core.executor", "CampaignExecutor.run_tasks", "executor.run_tasks", None),
    ("repro.core.executor", "InjectionCellRunner.run_cell", "executor.cell", None),
    ("repro.core.executor", "InjectionCellRunner.run_cells", "executor.cell", None),
    ("repro.core.quantized", "_QuantizedCellRunner.run_cell", "executor.cell", None),
    ("repro.core.quantized", "_QuantizedCellRunner.run_cells", "executor.cell", None),
    ("repro.hw.actfaults", "_ActivationCellRunner.run_cell", "executor.cell", None),
    ("repro.core.batched", "_AdaptiveFamilyRunner.run_cell", "executor.cell", None),
    ("repro.utils.shm", "pack_object", "shm.pack", None),
    ("repro.utils.shm", "ship_units", "shm.ship", _plane),
    ("repro.core.profiling", "profile_activations", "profiling.profile", None),
    ("repro.core.finetune", "LayerAUCEvaluator.evaluate_many", "finetune.evaluate_many", None),
    ("repro.core.finetune", "ThresholdFineTuner.tune_layer", "finetune.tune_layer", None),
    ("repro.scenarios.spec", "parse_suite", "scenarios.parse", None),
    ("repro.scenarios.compile", "compile_spec", "scenarios.compile", None),
    ("repro.models.zoo", "get_pretrained", "models.bundle_load", None),
    ("repro.experiments", "prepare_campaign_variant", "experiments.prepare", None),
    ("repro.results.store", "SegmentRecorder.cell", "results.segment_cell", None),
    ("repro.scenarios.compile", "write_results", "results.write", None),
    ("repro.results.report", "write_report", "results.report", None),
    ("repro.service.keys", "campaign_key", "service.key", None),
]


def _wrap(recorder: SpanRecorder, fn: Callable, name: str,
          counts: "Callable | None", method: bool) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # Re-entrant calls (an adaptive family looping its inner runner)
        # belong to the outer span.
        if recorder.active(name):
            return fn(*args, **kwargs)
        with recorder.span(name) as attrs:
            result = fn(*args, **kwargs)
            if counts is not None:
                if method:
                    attrs.update(counts(args[0], args[1:], result))
                else:
                    attrs.update(counts(args, result))
            return result

    return traced


@contextmanager
def instrument(recorder: SpanRecorder, cuts: "SuffixCuts | None" = None) -> Iterator[None]:
    """Install every hook in :data:`HOOKS`; restore the originals on exit.

    A module-level function is replaced wherever a loaded ``repro``
    module bound it by name (``from ... import f``), so callers that
    imported it early see the wrapper too.  ``cuts``, when given,
    classifies every weight-fault cell's suffix cut point.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, qualname, name, counts in HOOKS:
            if cuts is not None and name == "suffix.clean_pass":
                counts = cuts.built
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(recorder, raw.__func__, name, counts, True))
                else:
                    wrapped = _wrap(recorder, raw, name, counts, True)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = _wrap(recorder, original, name, counts, False)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        loaded.__dict__.get(qualname) is original:
                    undo.append((loaded, qualname, original))
                    setattr(loaded, qualname, wrapped)
        if cuts is not None:
            _watch_suffix_cuts(cuts, undo)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class SuffixCuts:
    """Classifies each weight-fault cell by where its suffix forward starts.

    A cell whose fault set touches no layer replays the cached clean
    logits; one whose first faulted layer has no cached boundary above
    it runs the full forward; every other cell skips ``start`` top-level
    children.  The engine consulted is the last one built.
    """

    def __init__(self) -> None:
        self.engine = None
        self.replay = 0
        self.full = 0
        self.depths: list[int] = []

    def built(self, cls, args, engine) -> dict:
        """Counts-fn of the ``suffix.clean_pass`` hook: remember the engine."""
        self.engine = engine
        return {}

    def observe(self, affected: "list[str]") -> None:
        if not affected:
            self.replay += 1
            return
        start = None if self.engine is None else self.engine.start_index_for(affected)
        if start is None:
            self.full += 1
        else:
            self.depths.append(int(start))

    @property
    def cells(self) -> int:
        return self.replay + self.full + len(self.depths)


def _watch_suffix_cuts(cuts: SuffixCuts, undo: list) -> None:
    from repro.hw.injector import FaultInjector
    from repro.hw.quant import QuantizedWeightMemory

    for owner in (FaultInjector, QuantizedWeightMemory):
        original = owner.__dict__["affected_layers"]

        def affected(self, faults, _original=original):
            layers = _original(self, faults)
            cuts.observe(list(layers))
            return layers

        undo.append((owner, "affected_layers", original))
        owner.affected_layers = functools.wraps(original)(affected)
