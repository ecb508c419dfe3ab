"""Parallel campaign execution: deterministic fan-out of (rate, trial) cells.

:class:`CampaignExecutor` is the single execution substrate for every
Monte-Carlo sweep in this codebase.  A sweep is described by one or more
*cell tasks* — picklable objects implementing :class:`CampaignCellTask` —
whose grid of ``(rate index, trial index)`` cells the executor evaluates
either in-process (``workers=1``, exactly the historical serial loops) or
across a :class:`concurrent.futures.ProcessPoolExecutor` worker pool.

Weight-fault campaigns (:class:`WeightFaultCellTask`, here), quantized
int8 campaigns (:class:`~repro.core.quantized.QuantizedCellTask`),
activation-fault campaigns
(:class:`~repro.hw.actfaults.ActivationFaultCellTask`) and the
vector-valued outcome/per-class analyses all speak this protocol, and
:meth:`CampaignExecutor.run_tasks` schedules cells from *several* tasks
(layerwise layers, mitigation variants, Algorithm-1 boundary thresholds)
into one shared pool instead of running campaigns back-to-back.

Design
------

**Cell protocol.**  A task is a picklable description of one campaign:
``task.make_runner()`` builds the mutable per-process machinery (fault
injector, quantized deployment, activation hooks), and
``runner.run_cell(rate_index, trial)`` evaluates one cell.  The serial
path builds the runner over the caller's live objects; a worker builds it
over its own deserialized copy — the *same code* runs in both, so
determinism holds by construction rather than by keeping loops in sync.

**Zero-copy weight shipping.**  Each task packs once into a
:class:`~repro.utils.shm.PackedUnit` — an in-band pickle stream plus
out-of-band tensor buffers (pickle protocol 5) — whose combined bytes
feed the checkpoint fingerprint's CRC; callers that already hold a
task's ``PackedUnit`` pass it through ``run_tasks(payloads=...)`` so no
model snapshot is serialized twice.  All units are laid out in one
shared-memory **tensor plane** per sweep generation (a region table over
one :mod:`multiprocessing.shared_memory` segment, see
:mod:`repro.utils.shm`): workers attach once per generation and map
every model tensor as a *read-only numpy view* instead of deserializing
a private weight copy.  Mutation is copy-on-write — injection privatizes
only the regions its fault set touches
(:meth:`repro.hw.memory.WeightMemory.materialize`).  The plane degrades
to inline bytes when shared memory is unavailable, and
``REPRO_NO_SHM_VIEWS=1`` restores the historical private-copy
deserialization; either way results are bit-identical.  Workers load
tasks lazily, keeping one live runner at a time.

**Cross-worker suffix cache.**  Before fan-out the parent runs each
pending task's clean pass once (by building and closing a throwaway
runner) and publishes the suffix engine's activation cache into the same
plane (region ``suffix/<task>``); every worker's engine then attaches
those read-only views via :func:`repro.core.suffix.shared_cache` instead
of re-running the clean pass per worker — one clean pass per host per
task, bit-identical by construction.

**Warm pools.**  ``persistent=True`` keeps the worker pool alive across
:meth:`CampaignExecutor.run_tasks` calls; because payloads travel per
generation rather than through the pool initializer, iterative drivers —
Algorithm 1's per-iteration boundary batches — reuse one pool instead of
constructing one per iteration.

**Suffix re-execution.**  :class:`InjectionCellRunner` (and its
quantized/activation siblings) owns a
:class:`~repro.core.suffix.SuffixForwardEngine`: one clean forward pass
caches the tensor entering every faultable layer, and each cell
re-executes only from the first layer its fault set touches — the
injector's cut-point report (`FaultInjector.affected_layers`) scopes the
cut, and the skipped prefix is bit-identical by construction.

**Determinism.**  The per-cell seed depends only on
``(campaign seed, rate index, trial index)`` via
:class:`~repro.utils.rng.SeedTree` (path ``rate/<i>/trial/<j>``), never on
which worker evaluates the cell, which task the cell belongs to, or in
which order cells complete.  Worker state is a bit-exact copy of the
parent's and evaluation is pure single-threaded NumPy, so parallel and
cross-campaign runs produce results *bit-identical* to running each
campaign's serial loop back-to-back — the common-random-numbers contract
of ``campaign.py`` survives any scheduling.

**Dispatch.**  Cells are enumerated task-major, rate-major (the serial
order), split into contiguous single-task chunks of ``chunk_size``
(default: about four chunks per worker across all tasks) and submitted
eagerly; results are written back into each task's
``(n_rates, n_trials)`` value grid by index, so completion order is
irrelevant.

**Streaming and resume.**  An optional per-cell ``progress`` callback
receives a :class:`CellResult` as each value lands, and an optional
``checkpoint`` JSON file records completed cells so an interrupted sweep
restarted with the same configuration re-runs only the missing cells.
The checkpoint fingerprint covers each task's kind (a quantized
checkpoint can never resume a weight-fault sweep), config grid and a CRC
of its pickled content.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

import numpy as np

from repro.core.chaos import ChaosPolicy
from repro.core.metrics import ResilienceCurve, evaluate_accuracy_arrays
from repro.utils.blas import blas_threads, set_blas_threads
from repro.utils.rng import SeedTree
from repro.utils.shm import PackedUnit, ShippedPlane, pack_object, ship_units

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.campaign import CampaignConfig, FaultInjectionCampaign, FaultSampler

__all__ = [
    "CellResult",
    "CellTimeoutError",
    "ProgressCallback",
    "CellRecorder",
    "CellRunner",
    "CampaignCellTask",
    "InjectionCellRunner",
    "WeightFaultCellTask",
    "CampaignExecutor",
    "SupervisionPolicy",
    "ON_CELL_ERROR_CHOICES",
    "FAILURE_REASONS",
    "FAILED_CELL_FIELDS",
    "payload_state",
    "resolve_workers",
    "cell_seed_path",
]

# v3: the campaign CRC fingerprint became PackedUnit.crc32() (in-band
# stream + out-of-band tensor buffers) when the tensor plane landed; v2
# checkpoints carry a CRC of the old in-band pickle and cannot resume.
_CHECKPOINT_VERSION = 3


def cell_seed_path(rate_index: int, trial: int) -> str:
    """The :class:`SeedTree` path of one campaign cell.

    This string is the determinism contract between the serial loop and
    the worker pool: both derive the cell's generator from it.
    """
    return f"rate/{rate_index}/trial/{trial}"


def resolve_workers(workers: int) -> int:
    """Normalize a worker count: ``0`` means one worker per CPU core."""
    if not isinstance(workers, (int, np.integer)):
        raise TypeError(f"workers must be an int, got {type(workers).__name__}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = cpu_count), got {workers}")
    if workers == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1
    return int(workers)


# What to do when a cell's evaluation raises an exception (worker deaths
# and timeouts are infrastructure faults and are always retried first):
#   abort      - re-raise immediately (the historical behavior, default)
#   retry      - retry up to max_retries times, then quarantine
#   quarantine - mark the cell failed on the first blamed error
ON_CELL_ERROR_CHOICES = ("retry", "quarantine", "abort")

# Why a cell was quarantined.
FAILURE_REASONS = ("exception", "timeout", "worker-death")

# Schema of one quarantined-cell record (CampaignExecutor.quarantined,
# scenario "failed_cells" payloads, shard partial "failed" lists).  The
# failure-outcome table in docs/FAULT_TOLERANCE.md mirrors these fields
# and tests/test_docs_consistency.py enforces the match both directions.
FAILED_CELL_FIELDS = {
    "task": "label (or kind) of the owning campaign task",
    "task_index": "position of the task in the scheduling pass",
    "rate_index": "rate index of the quarantined cell",
    "trial": "trial index of the quarantined cell",
    "reason": "one of the FAILURE_REASONS: exception, timeout, worker-death",
    "attempts": "dispatch attempts consumed before the cell was given up",
    "error": "rendering of the last error ('' for timeouts without one)",
}


class CellTimeoutError(RuntimeError):
    """A cell dispatch exceeded the supervision policy's cell timeout."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the executor reacts to failing cells, workers and stalls.

    ``max_retries`` bounds the blamed failures a single cell may
    accumulate (infrastructure faults — worker deaths, timeouts — are
    always retried up to this bound regardless of ``on_cell_error``).
    ``cell_timeout`` is the per-cell wall-clock budget of a dispatch
    (``None`` disables timeouts; enforced on the worker pool only —
    in-process execution cannot be preempted).  ``on_cell_error`` picks
    the exception policy from :data:`ON_CELL_ERROR_CHOICES`; the
    default ``"abort"`` preserves the historical raise-on-first-error
    contract.  ``retry_backoff`` seeds the deterministic exponential
    backoff (no jitter — determinism extends to scheduling decisions),
    and ``max_pool_rebuilds`` caps pool reconstructions before the
    executor degrades to serial in-process execution.
    """

    max_retries: int = 2
    cell_timeout: "float | None" = None
    on_cell_error: str = "abort"
    retry_backoff: float = 0.05
    max_pool_rebuilds: int = 8

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        object.__setattr__(self, "max_retries", int(self.max_retries))
        if self.cell_timeout is not None:
            timeout = float(self.cell_timeout)
            if timeout <= 0:
                raise ValueError(
                    f"cell_timeout must be positive (or None), got {timeout}"
                )
            object.__setattr__(self, "cell_timeout", timeout)
        if self.on_cell_error not in ON_CELL_ERROR_CHOICES:
            raise ValueError(
                f"on_cell_error must be one of {ON_CELL_ERROR_CHOICES}, "
                f"got {self.on_cell_error!r}"
            )
        if float(self.retry_backoff) < 0:
            raise ValueError("retry_backoff must be >= 0")
        object.__setattr__(self, "retry_backoff", float(self.retry_backoff))
        if int(self.max_pool_rebuilds) < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        object.__setattr__(
            self, "max_pool_rebuilds", int(self.max_pool_rebuilds)
        )

    @classmethod
    def from_env(
        cls,
        max_retries: "int | None" = None,
        cell_timeout: "float | None" = None,
        on_cell_error: "str | None" = None,
    ) -> "SupervisionPolicy":
        """Resolve a policy: explicit argument > environment > default.

        The environment knobs (``REPRO_MAX_RETRIES``,
        ``REPRO_CELL_TIMEOUT``, ``REPRO_ON_CELL_ERROR``) configure runs
        whose call sites don't thread the parameters — benchmarks,
        examples, hardening sub-campaigns.
        """
        if max_retries is None:
            raw = os.environ.get("REPRO_MAX_RETRIES", "").strip()
            max_retries = int(raw) if raw else cls.max_retries
        if cell_timeout is None:
            raw = os.environ.get("REPRO_CELL_TIMEOUT", "").strip()
            cell_timeout = float(raw) if raw else None
        if on_cell_error is None:
            raw = os.environ.get("REPRO_ON_CELL_ERROR", "").strip()
            on_cell_error = raw if raw else cls.on_cell_error
        return cls(
            max_retries=max_retries,
            cell_timeout=cell_timeout,
            on_cell_error=on_cell_error,
        )

    def backoff_seconds(self, failures: int) -> float:
        """Deterministic exponential backoff after the n-th blamed failure."""
        if failures <= 0 or self.retry_backoff <= 0:
            return 0.0
        return self.retry_backoff * (2.0 ** min(failures - 1, 5))


@dataclass(frozen=True)
class CellResult:
    """One completed (rate, trial) cell, streamed to progress callbacks.

    ``accuracy`` is the cell's primary scalar (the accuracy for curve
    campaigns, the first component for vector-valued analyses, whose full
    vector arrives in ``values``).  ``campaign_index`` / ``campaign_label``
    identify the owning task in a cross-campaign sweep.
    """

    rate_index: int
    trial: int
    fault_rate: float
    accuracy: float
    completed: int  # cells finished so far (including checkpointed ones)
    total: int  # total cells across all tasks in the sweep
    from_checkpoint: bool = False
    campaign_index: int = 0
    campaign_label: str = ""
    values: "tuple[float, ...] | None" = None
    # True for a quarantined cell: the accuracy is NaN and the full
    # failure record lands in CampaignExecutor.quarantined.
    failed: bool = False


ProgressCallback = Callable[[CellResult], None]


class CellRecorder(Protocol):
    """A sink for per-cell records (the result-store hook).

    Unlike a progress callback (presentation), a recorder is part of
    the result path: it sees every completed cell — including
    checkpoint-replayed ones — via :meth:`cell`, and every quarantined
    cell's full :data:`FAILED_CELL_FIELDS` record via :meth:`failure`
    (the matching ``failed=True`` :class:`CellResult` still flows
    through :meth:`cell`, so implementations that only want executed
    cells should skip results with ``failed`` set).
    :class:`repro.results.SegmentRecorder` streams these into the
    append-only per-cell store (see ``docs/RESULTS.md``).
    """

    def cell(self, result: CellResult) -> None: ...

    def failure(self, record: dict) -> None: ...


# --------------------------------------------------------------------- #
# the cell protocol
# --------------------------------------------------------------------- #


class CellRunner(Protocol):
    """Per-process campaign machinery built by a task's :meth:`make_runner`."""

    def run_cell(self, rate_index: int, trial: int) -> "float | Sequence[float]":
        """Evaluate one cell; must depend only on (seed, rate, trial)."""

    def close(self) -> None:
        """Tear down (restore weights, remove hooks); idempotent."""


class CampaignCellTask(Protocol):
    """A picklable description of one campaign's cell grid.

    ``kind`` discriminates campaign types in checkpoint fingerprints;
    ``cell_width`` is the number of scalars per cell (1 for accuracy
    curves).  ``build_result`` turns the assembled
    ``(n_rates, n_trials[, cell_width])`` value grid into the campaign's
    result object (usually a :class:`ResilienceCurve`).
    """

    kind: str
    label: str
    config: "CampaignConfig"
    cell_width: int

    def make_runner(self) -> CellRunner: ...

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> Any: ...


def payload_state(task: CampaignCellTask) -> dict:
    """The ``__getstate__`` shared by every cell task.

    Drops parent-side presentation (``label``), caches (``_clean``) and
    execution details (``suffix`` — results are bit-identical with the
    engine on or off) from the pickled payload, so the payload bytes —
    and hence the checkpoint CRC — depend only on the campaign's
    scientific content: a checkpoint written with the suffix engine on
    resumes a run with it off, and vice versa.  Worker processes thus
    always run with the engine enabled; ``REPRO_NO_SUFFIX=1`` (inherited
    by workers) is the everywhere-off switch.
    """
    state = dict(task.__dict__)
    state["label"] = ""
    if "_clean" in state:
        state["_clean"] = None
    if "suffix" in state:
        state["suffix"] = True
    return state


def _accuracy_from_logits(
    current: "float | None",
    logits_batches: "Sequence[np.ndarray]",
    labels: np.ndarray,
) -> "float | None":
    """Top-1 accuracy from per-batch logits, mirroring
    :func:`~repro.core.metrics.evaluate_accuracy_arrays` exactly
    (per-batch argmax, concatenated, compared to the labels).  Returns
    ``current`` unchanged when it is already set or the batches do not
    cover the evaluation set.
    """
    if current is not None or not logits_batches:
        return current
    predictions = np.concatenate(
        [np.argmax(batch, axis=1) for batch in logits_batches]
    )
    if predictions.shape[0] != labels.shape[0]:  # pragma: no cover - defensive
        return current
    return float((predictions == labels).mean())


class InjectionCellRunner:
    """Injector + seed tree over one (possibly worker-local) model copy.

    The shared scaffold for every task that samples a weight-fault set
    and measures the model under injection — the accuracy campaign, the
    outcome taxonomy and the per-class analysis differ only in what
    ``task.measure()`` computes while the faults are applied.

    The runner owns a :class:`~repro.core.suffix.SuffixForwardEngine`
    (one clean pass over the eval set, cached prefix activations): each
    cell's fault set is located *before* injection and only the layers
    from the first faulted one onward are re-executed — bit-identical to
    the full forward, since the skipped prefix is untouched.  Cells whose
    fault set is empty replay the cached clean logits outright.
    """

    def __init__(self, task):
        from repro.core.batched import BatchedSuffixKernel
        from repro.core.suffix import SuffixForwardEngine
        from repro.hw.injector import FaultInjector

        self.task = task
        self.injector = FaultInjector(task.memory)
        self.tree = SeedTree(task.config.seed)
        self.engine = SuffixForwardEngine.build(
            task.model,
            task.images,
            task.config.batch_size,
            scope_layers=task.memory.layer_names(),
            enabled=getattr(task, "suffix", True),
        )
        self.kernel = BatchedSuffixKernel(self.injector, self.engine)

    def _fault_set(self, rate_index: int, trial: int):
        """The cell's fault draw on its deterministic seed path."""
        task = self.task
        rate = float(task.config.fault_rates[rate_index])
        rng = self.tree.generator(cell_seed_path(rate_index, trial))
        return task.sampler(task.memory, rate, rng)

    def _measure(self, forward) -> "float | Sequence[float]":
        return self.task.measure(forward=forward)

    def run_cell(self, rate_index: int, trial: int) -> "float | Sequence[float]":
        return self.kernel.evaluate(
            self._fault_set(rate_index, trial), self._measure
        )

    def run_cells(
        self, cells: Sequence[tuple[int, int]]
    ) -> "list[float | Sequence[float]]":
        """:meth:`run_cell` over a chunk of cells, in order."""
        return self.run_fault_sets(
            [self._fault_set(rate_index, trial) for rate_index, trial in cells]
        )

    def run_fault_sets(self, fault_sets) -> "list[float | Sequence[float]]":
        """Measure the model under each pre-drawn fault set (in order)."""
        return self.kernel.run_family(fault_sets, self._measure)

    def close(self) -> None:
        # Injection restores per cell; only the activation cache remains.
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class WeightFaultCellTask:
    """The paper's campaign: sample weight faults, inject, evaluate, restore.

    Built either from a live :class:`~repro.core.campaign.FaultInjectionCampaign`
    (serial path / pickling source) or directly from its parts.  The
    ``label`` and lazily-cached clean accuracy are parent-side and excluded
    from the pickled payload, so the payload bytes — and hence the
    checkpoint CRC — depend only on the campaign's scientific content.
    """

    kind = "weight-fault"
    cell_width = 1

    def __init__(
        self,
        model,
        memory,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
        sampler: "FaultSampler | None" = None,
        label: str = "",
        clean_accuracy: "float | None" = None,
        suffix: bool = True,
    ):
        from repro.core.campaign import CampaignConfig, random_bitflip_sampler

        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.sampler = sampler if sampler is not None else random_bitflip_sampler()
        self.label = label
        self._clean = None if clean_accuracy is None else float(clean_accuracy)
        self.suffix = bool(suffix)

    def __getstate__(self) -> dict:
        return payload_state(self)

    def clean_accuracy(self) -> float:
        """Fault-free accuracy on the evaluation set (computed lazily)."""
        if self._clean is None:
            self._clean = evaluate_accuracy_arrays(
                self.model, self.images, self.labels, self.config.batch_size
            )
        return self._clean

    def absorb_clean_logits(self, logits_batches) -> None:
        """Seed the lazy clean accuracy from an engine's clean pass.

        ``logits_batches`` are a suffix engine's cached clean logits
        over this task's evaluation set — their argmax agreement with
        the labels is exactly what :meth:`clean_accuracy` would
        recompute with another full forward (bit-identical logits), so
        the executor feeds the parent-side export back instead of
        paying that forward twice.
        """
        self._clean = _accuracy_from_logits(
            self._clean, logits_batches, self.labels
        )

    def measure(self, forward=None) -> float:
        """Accuracy of the (currently fault-injected) model."""
        return evaluate_accuracy_arrays(
            self.model, self.images, self.labels, self.config.batch_size,
            forward=forward,
        )

    def make_runner(self) -> InjectionCellRunner:
        return InjectionCellRunner(self)

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> ResilienceCurve:
        return ResilienceCurve(
            fault_rates=rates,
            accuracies=values,
            clean_accuracy=self.clean_accuracy(),
            label=self.label,
        )


# --------------------------------------------------------------------- #
# worker-side machinery
# --------------------------------------------------------------------- #

# Per-process sweep state, set once by _init_worker, which also pins the
# worker's OpenBLAS to cpus // workers threads (2 workers x 2 BLAS
# threads on 2 cores oversubscribed them; the pool ran 0.65x of serial).
# Plain module globals: ProcessPoolExecutor workers are single-threaded
# and each process serves exactly one sweep *generation* at a time.  A
# warm pool outlives individual sweeps (Algorithm-1 iterations reuse one
# pool), so the payload travels with each chunk call — a tiny
# tensor-plane address (segment name + region table), attached once per
# worker per generation — instead of the pool initializer.  Tasks load
# lazily (zero-copy views by default) and only one runner stays live per
# worker; under copy-on-write that runner privatizes only the weight
# regions its fault sets actually write.
_WORKER_STATE: "dict | None" = None

# Parent-side generation ids: one per run_tasks scheduling pass, so a
# worker can tell a fresh region table from the one it already attached.
_GENERATION = iter(range(1, 2**62))


def _init_worker(workers: int = 1) -> None:
    """Pool initializer: empty slots, filled by the first chunk call.

    Also pins this worker's OpenBLAS to ``cpus // workers`` threads
    (``cpus`` is the affinity-aware ``resolve_workers(0)``), never
    raising the count it inherited, so a user's ``OPENBLAS_NUM_THREADS``
    still wins.  Unpinned, 2 workers each ran a 2-thread sgemm on 2
    cores: the threads oversubscribed the cores and the pool ran at
    0.65x of serial.  Results do not depend on the thread count.
    """
    global _WORKER_STATE
    inherited = blas_threads()
    if inherited is not None:
        target = max(1, resolve_workers(0) // workers)
        if target < inherited:
            set_blas_threads(target)
    _WORKER_STATE = {
        "generation": None,
        "view": None,
        "task_index": None,
        "runner": None,
    }


def _worker_state(plane: ShippedPlane, generation: "tuple[int, int]") -> dict:
    """Attach this worker to ``plane``'s segment (once per generation).

    Teardown order matters under zero-copy: the runner (whose model
    arrays may be views into the old generation's segment) is released
    *before* the old plane view detaches, so the unmap never invalidates
    a live array.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive: initializer always ran
        raise RuntimeError("campaign worker used before initialization")
    if state["generation"] != generation:
        if state["runner"] is not None:
            state["runner"].close()
            state["runner"] = None
        state["task_index"] = None
        if state["view"] is not None:
            state["view"].close()
        state["view"] = plane.open()
        state["generation"] = generation
    return state


def _task_runner(state: dict, task_index: int):
    """The worker's runner for ``task_index``, (re)built on task switch.

    Loading ``task/<i>`` maps the task's tensors as read-only views
    (private copies under ``REPRO_NO_SHM_VIEWS=1``); if the parent
    published the task's clean pass (region ``suffix/<i>``), the
    runner's engine attaches it through the shared-cache offer instead
    of re-running the clean forward in this worker.
    """
    if state["task_index"] != task_index:
        from repro.core.suffix import shared_cache

        if state["runner"] is not None:
            state["runner"].close()
            state["runner"] = None
            state["task_index"] = None
        view = state["view"]
        task = view.load(f"task/{task_index}")
        cache_name = f"suffix/{task_index}"
        cache = view.load(cache_name) if cache_name in view else None
        with shared_cache(cache):
            state["runner"] = task.make_runner()
        state["task_index"] = task_index
    return state["runner"]


def _run_task_cells(
    plane: ShippedPlane,
    generation: "tuple[int, int]",
    task_index: int,
    cells: Sequence[Sequence[int]],
) -> "list[tuple[int, int, int, float | Sequence[float]]]":
    """Evaluate a chunk of one task's cells in this worker.

    Each cell is ``(rate_index, trial)`` or — from the supervised
    dispatch loop — ``(rate_index, trial, attempt)``, where ``attempt``
    counts earlier dispatches of the same cell and keys the chaos
    harness (:mod:`repro.core.chaos`): with the default
    ``attempts=1`` gate a re-dispatched cell is never disturbed twice,
    so recovery converges.  Chaos fires *before* the runner is touched,
    leaving retried dispatches clean state to evaluate from.
    """
    normalized = [(int(cell[0]), int(cell[1])) for cell in cells]
    policy = ChaosPolicy.from_env()
    if policy is not None:
        attempts = [
            int(cell[2]) if len(cell) > 2 else 0 for cell in cells
        ]
        policy.disturb(task_index, normalized, attempts)
    runner = _task_runner(_worker_state(plane, generation), task_index)
    return [
        (task_index, rate_index, trial, runner.run_cell(rate_index, trial))
        for rate_index, trial in normalized
    ]


# --------------------------------------------------------------------- #
# checkpoint file
# --------------------------------------------------------------------- #


def _pack_task(
    task: CampaignCellTask,
) -> "tuple[PackedUnit | None, Exception | None]":
    """Serialize one task (model, memory, eval set, sampler) once.

    Packs with the tensor plane's out-of-band format
    (:func:`repro.utils.shm.pack_object`): the unit's stream + buffers
    feed both the checkpoint fingerprint (CRC) and the worker-pool
    payload, so large models are serialized exactly once per run — and
    the tensor buffers still reference the live arrays, so nothing is
    copied until the plane is laid out.  Returns ``(None, error)`` when
    the task is unpicklable (e.g. a closure sampler): serial runs then
    fall back to config-level checkpoint validation, and parallel runs
    raise a clear error.
    """
    try:
        return pack_object(task), None
    except Exception as error:
        return None, error


def _export_suffix_caches(
    tasks: Sequence[CampaignCellTask],
    pending: "list[list[tuple[int, int]]]",
) -> "dict[int, PackedUnit]":
    """Run each pending task's clean pass once and pack its cache.

    Builds (and immediately closes) a parent-side runner per task purely
    to populate its :class:`~repro.core.suffix.SuffixForwardEngine`;
    the exported :class:`~repro.core.suffix.SharedSuffixCache` ships in
    the same tensor plane as the weights, so every worker attaches the
    activations read-only instead of recomputing them — one clean pass
    per host per task.  Tasks whose engine declines to build (suffix
    disabled, unsupported model, empty scope) simply publish nothing and
    workers fall back to their own clean pass, which is bit-identical.
    Runner lifecycle is parent-safe by contract: every runner's
    ``close()`` restores the live model exactly (undoes int8
    deployment, removes hooks), and construction failures unwind their
    own partial side effects before propagating — a task whose runner
    cannot be built here could not be run serially or in a worker
    either, so the error surfaces now rather than after the fan-out.
    """
    from repro.core.suffix import suffix_globally_disabled

    caches: "dict[int, PackedUnit]" = {}
    if suffix_globally_disabled():
        return caches
    for index, task in enumerate(tasks):
        if not pending[index]:
            continue
        runner = task.make_runner()
        try:
            engine = getattr(runner, "engine", None)
            cache = engine.export_cache() if engine is not None else None
        finally:
            runner.close()
        if cache is not None:
            # The cache's clean logits double as the task's clean
            # accuracy (bit-identical argmax), sparing build_result a
            # second full forward over the evaluation set.
            absorb = getattr(task, "absorb_clean_logits", None)
            if absorb is not None:
                absorb(cache.clean_logits)
            caches[index] = pack_object(cache)
    return caches


class _Checkpoint:
    """A JSON record of completed cells, validated against the sweep.

    The file stores a fingerprint per task — its kind, config grid
    (seed, trials, fault rates) and a CRC of its pickled content — so a
    checkpoint can never silently resume a *different* sweep (different
    campaign type, model, mitigation variant, sampler or evaluation
    set).  Single-task sweeps keep the historical flat layout with cells
    keyed ``rate/trial``; cross-campaign sweeps nest per-task
    fingerprints and key cells ``task/rate/trial``.
    """

    def __init__(
        self,
        path: "str | Path",
        tasks: Sequence[CampaignCellTask],
        crcs: Sequence["str | None"],
        extra: "dict | None" = None,
    ):
        self.path = Path(path)
        self._single = len(tasks) == 1

        def task_fingerprint(task: CampaignCellTask, crc: "str | None") -> dict:
            return {
                "kind": task.kind,
                "seed": int(task.config.seed),
                "trials": int(task.config.trials),
                "batch_size": int(task.config.batch_size),
                "fault_rates": [float(r) for r in task.config.fault_rates],
                "campaign_crc": crc,
            }

        if self._single:
            self._fingerprint = {
                "version": _CHECKPOINT_VERSION,
                **task_fingerprint(tasks[0], crcs[0]),
            }
        else:
            self._fingerprint = {
                "version": _CHECKPOINT_VERSION,
                "campaigns": [
                    task_fingerprint(task, crc) for task, crc in zip(tasks, crcs)
                ],
            }
        if extra:
            # Caller-supplied identity (e.g. a shard's index/count and the
            # suite hash) joins the fingerprint: a checkpoint written as
            # shard i/N can never resume as j/N or i/M.
            collisions = set(extra) & set(self._fingerprint)
            if collisions:
                raise ValueError(
                    f"checkpoint extra keys collide with the fingerprint: "
                    f"{sorted(collisions)}"
                )
            self._fingerprint.update(json.loads(json.dumps(extra)))
        self.cells: "dict[tuple[int, int, int], float | list[float]]" = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        payload = json.loads(self.path.read_text())
        stored = {key: payload.get(key) for key in self._fingerprint}
        if stored != self._fingerprint:
            raise ValueError(
                f"checkpoint {self.path} was written by a different campaign "
                f"type or configuration; delete it or use a fresh path "
                f"(stored {stored}, expected {self._fingerprint})"
            )
        for key, value in payload.get("cells", {}).items():
            parts = [int(part) for part in key.split("/")]
            if len(parts) == 2:  # single-task layout: rate/trial
                parts = [0, *parts]
            task_index, rate_index, trial = parts
            self.cells[(task_index, rate_index, trial)] = value

    def record(
        self, task_index: int, rate_index: int, trial: int, value
    ) -> None:
        if np.ndim(value) == 0:
            stored: "float | list[float]" = float(value)
        else:
            stored = [float(v) for v in np.asarray(value).reshape(-1)]
        self.cells[(task_index, rate_index, trial)] = stored

    def flush(self) -> None:
        """Atomically rewrite the checkpoint file."""
        payload = dict(self._fingerprint)
        payload["cells"] = {
            (
                f"{rate_index}/{trial}"
                if self._single
                else f"{task_index}/{rate_index}/{trial}"
            ): value
            for (task_index, rate_index, trial), value in sorted(self.cells.items())
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        os.replace(tmp, self.path)


# --------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------- #


class CampaignExecutor:
    """Runs one or more campaigns' (rates x trials) grids, serially or in parallel.

    Parameters
    ----------
    workers:
        ``1`` (default) runs in-process over the caller's live objects —
        the historical serial path.  ``N > 1`` fans cells across ``N``
        worker processes.  ``0`` means one worker per CPU core.
    chunk_size:
        Cells per dispatched task; ``0`` picks roughly four chunks per
        worker.  Larger chunks amortize dispatch overhead, smaller chunks
        stream progress sooner and balance load better.
    progress:
        Optional callback receiving a :class:`CellResult` per completed
        cell (checkpointed cells are replayed with
        ``from_checkpoint=True`` at the start of a resumed run).
    checkpoint:
        Optional JSON file path.  Completed cells are appended as they
        finish; re-running with the same configuration skips them.
    checkpoint_extra:
        Optional JSON-serializable mapping merged into the checkpoint
        fingerprint.  Callers that scope a checkpoint to an execution
        identity beyond the campaign content — e.g. a shard's
        ``{"shard": {"index", "count", "suite_hash"}}`` — record it here
        so a checkpoint written under one identity refuses to resume
        under another.  Keys must not collide with the built-in
        fingerprint fields.
    mp_context:
        Optional :mod:`multiprocessing` start-method name (``"fork"``,
        ``"spawn"``, ``"forkserver"``); default lets the platform choose.
    persistent:
        Keep the worker pool alive between :meth:`run_tasks` calls (a
        *warm pool*).  Repeated sweeps — Algorithm 1's per-iteration
        boundary batches — then skip pool construction and worker
        start-up entirely; each sweep ships its payload through a fresh
        shared-memory generation.  Call :meth:`close` (or use the
        executor as a context manager) when done.  Trade-off: a worker
        releases its previous runner (model copy plus any suffix
        activation cache) when it first touches a *newer* generation,
        so workers idle between sweeps retain the last sweep's state
        until the next sweep or :meth:`close` — size
        ``REPRO_SUFFIX_BUDGET_MB`` accordingly on wide warm pools.
    max_retries / cell_timeout / on_cell_error:
        Shorthand for the matching :class:`SupervisionPolicy` fields;
        unset knobs resolve through the ``REPRO_MAX_RETRIES`` /
        ``REPRO_CELL_TIMEOUT`` / ``REPRO_ON_CELL_ERROR`` environment and
        fall back to the policy defaults (2 retries, no timeout, abort).
    supervision:
        A complete :class:`SupervisionPolicy` (mutually exclusive with
        the shorthand knobs) for callers that also tune the backoff or
        the pool-rebuild budget.
    recorder:
        Optional :class:`CellRecorder` receiving every completed cell
        (``cell``) and every quarantined cell's failure record
        (``failure``) — the hook behind the append-only per-cell
        result store (``repro.results``, ``docs/RESULTS.md``).

    After each :meth:`run_grids` pass, :attr:`quarantined` holds one
    record per cell that exhausted its retries (schema:
    :data:`FAILED_CELL_FIELDS`); quarantined cells stay ``nan`` in the
    value grids and are *not* checkpointed, so a resumed run retries
    them.  See ``docs/FAULT_TOLERANCE.md``.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int = 0,
        progress: "ProgressCallback | None" = None,
        checkpoint: "str | Path | None" = None,
        mp_context: "str | None" = None,
        persistent: bool = False,
        checkpoint_extra: "dict | None" = None,
        max_retries: "int | None" = None,
        cell_timeout: "float | None" = None,
        on_cell_error: "str | None" = None,
        supervision: "SupervisionPolicy | None" = None,
        recorder: "CellRecorder | None" = None,
    ):
        self.workers = resolve_workers(workers)
        self.recorder = recorder
        if chunk_size < 0:
            raise ValueError(f"chunk_size must be >= 0 (0 = auto), got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self.progress = progress
        self.checkpoint_path = checkpoint
        self.checkpoint_extra = dict(checkpoint_extra) if checkpoint_extra else None
        self.mp_context = mp_context
        self.persistent = bool(persistent)
        if supervision is not None and (
            max_retries is not None
            or cell_timeout is not None
            or on_cell_error is not None
        ):
            raise ValueError(
                "pass either a SupervisionPolicy or the individual "
                "max_retries/cell_timeout/on_cell_error knobs, not both"
            )
        self.supervision = (
            supervision
            if supervision is not None
            else SupervisionPolicy.from_env(
                max_retries=max_retries,
                cell_timeout=cell_timeout,
                on_cell_error=on_cell_error,
            )
        )
        # Failure records of the most recent run_grids pass, one dict
        # per quarantined cell (schema: FAILED_CELL_FIELDS).
        self.quarantined: "list[dict]" = []
        self._pool: "ProcessPoolExecutor | None" = None

    def close(self) -> None:
        """Shut down the warm pool, if one is alive (idempotent)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown()

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reconfigure(
        self,
        progress: "ProgressCallback | None" = None,
        checkpoint: "str | Path | None" = None,
        checkpoint_extra: "dict | None" = None,
        recorder: "CellRecorder | None" = None,
    ) -> "CampaignExecutor":
        """Repoint the per-run hooks of a long-lived executor.

        A persistent executor (``persistent=True``) keeps its warm
        worker pool across ``run_tasks`` passes; the progress callback,
        checkpoint file and cell recorder, by contrast, belong to one
        run.  Callers that reuse an executor across runs (the service's
        slot workers) swap them here between passes — ``run_grids``
        reads all four freshly on every call, so no pool restart is
        involved.  Returns ``self`` for chaining.
        """
        self.progress = progress
        self.checkpoint_path = checkpoint
        self.checkpoint_extra = dict(checkpoint_extra) if checkpoint_extra else None
        self.recorder = recorder
        return self

    # ------------------------------------------------------------------ #

    def run(
        self,
        campaign: "FaultInjectionCampaign",
        sampler: "FaultSampler | None" = None,
        label: str = "",
        suffix: bool = True,
    ) -> ResilienceCurve:
        """Execute one weight-fault campaign's sweep and build its curve."""
        task = WeightFaultCellTask(
            campaign.model,
            campaign.memory,
            campaign.images,
            campaign.labels,
            config=campaign.config,
            sampler=sampler,
            label=label,
            clean_accuracy=campaign.clean_accuracy,
            suffix=suffix,
        )
        return self.run_tasks([task])[0]

    def run_tasks(
        self,
        tasks: Sequence[CampaignCellTask],
        payloads: "Sequence[PackedUnit | None] | None" = None,
    ) -> list[Any]:
        """Execute several campaigns' cells through one scheduling pass.

        With ``workers > 1`` every task's pending cells share a single
        worker pool (the cross-campaign fan-out); with ``workers=1`` the
        tasks run back-to-back in task order, rate-major — exactly the
        historical sequential loops.  Either way each task's result is
        bit-identical, and the returned list is parallel to ``tasks``.

        ``payloads`` optionally supplies a pre-serialized form per task
        (parallel to ``tasks``; ``None`` entries are packed here).  A
        caller that already serialized a task to snapshot it — e.g.
        :meth:`~repro.core.finetune.LayerAUCEvaluator.evaluate_many` —
        passes the same :class:`~repro.utils.shm.PackedUnit` (its tensors
        ship zero-copy) instead of paying a second serialization of the
        model; the entry must describe an object equivalent to the
        corresponding task.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        rates_list, grids = self.run_grids(tasks, payloads=payloads)
        return [
            task.build_result(rates_list[index], grids[index])
            for index, task in enumerate(tasks)
        ]

    def run_grids(
        self,
        tasks: Sequence[CampaignCellTask],
        payloads: "Sequence[PackedUnit | None] | None" = None,
        cells: "Sequence[Sequence[tuple[int, int]]] | None" = None,
    ) -> "tuple[list[np.ndarray], list[np.ndarray]]":
        """Execute (a subset of) each task's cells; return raw value grids.

        The engine behind :meth:`run_tasks`, for callers that assemble
        results themselves — shard runs execute disjoint cell subsets on
        independent hosts and merge the grids later.  Returns
        ``(rates, grids)``, both parallel to ``tasks``; each grid is the
        task's ``(n_rates, n_trials[, cell_width])`` float64 array with
        executed cells filled in and everything else ``nan``.

        ``cells`` optionally restricts execution to a per-task subset of
        ``(rate_index, trial)`` cells (parallel to ``tasks``).  Subset
        cells run in the serial enumeration order (rate-major), with the
        same per-cell seed paths as a full run — a cell's value is
        bit-identical no matter which subset, host or worker evaluates
        it.  Checkpointed cells outside the subset are ignored, and
        progress totals count only the subset.
        """
        tasks = list(tasks)
        self.quarantined = []
        if not tasks:
            return [], []
        if payloads is not None and len(payloads) != len(tasks):
            raise ValueError(
                f"payloads ({len(payloads)}) must parallel tasks ({len(tasks)})"
            )

        rates_list: list[np.ndarray] = []
        grids: list[np.ndarray] = []
        for task in tasks:
            rates = np.asarray(task.config.fault_rates, dtype=np.float64)
            width = int(getattr(task, "cell_width", 1))
            shape: "tuple[int, ...]" = (rates.size, task.config.trials)
            if width != 1:
                shape = (*shape, width)
            rates_list.append(rates)
            grids.append(np.full(shape, np.nan, dtype=np.float64))
        subset = self._resolve_cells(tasks, grids, cells)
        total = (
            sum(len(chosen) for chosen in subset)
            if subset is not None
            else sum(grid.shape[0] * grid.shape[1] for grid in grids)
        )

        # One serialization per task serves both the checkpoint
        # fingerprint and the worker payload; pre-packed payloads are
        # reused verbatim, so those tasks are never serialized here.
        units: "list[PackedUnit | None]" = (
            list(payloads) if payloads is not None else [None] * len(tasks)
        )
        errors: "list[Exception | None]" = [None] * len(tasks)
        if self.checkpoint_path is not None or self.workers > 1:
            for index, task in enumerate(tasks):
                if units[index] is None:
                    units[index], errors[index] = _pack_task(task)

        checkpoint = None
        if self.checkpoint_path is not None:
            if any(unit is None for unit in units):
                first_error = next(e for e in errors if e is not None)
                warnings.warn(
                    "campaign state is not picklable; the checkpoint can "
                    "validate only the config grid, not the model/sampler/"
                    "eval set — resuming against different campaign content "
                    f"would go undetected ({first_error})",
                    RuntimeWarning,
                    stacklevel=2,
                )
            crcs = [
                f"{unit.crc32():08x}" if unit is not None else None
                for unit in units
            ]
            checkpoint = _Checkpoint(
                self.checkpoint_path, tasks, crcs, extra=self.checkpoint_extra
            )

        subset_sets = (
            None if subset is None else [set(chosen) for chosen in subset]
        )
        completed = 0
        if checkpoint is not None:
            for (task_index, rate_index, trial), value in sorted(
                checkpoint.cells.items()
            ):
                if (
                    task_index < len(tasks)
                    and rate_index < grids[task_index].shape[0]
                    and trial < grids[task_index].shape[1]
                    and (
                        subset_sets is None
                        or (rate_index, trial) in subset_sets[task_index]
                    )
                ):
                    grids[task_index][rate_index, trial] = value
                    completed += 1
                    self._emit(
                        tasks[task_index], task_index, rate_index, trial,
                        rates_list[task_index], grids[task_index][rate_index, trial],
                        completed, total, from_checkpoint=True,
                    )

        if subset is None:
            pending = [
                [
                    (rate_index, trial)
                    for rate_index in range(grid.shape[0])
                    for trial in range(grid.shape[1])
                    if not np.all(np.isfinite(grid[rate_index, trial]))
                ]
                for grid in grids
            ]
        else:
            pending = [
                [
                    (rate_index, trial)
                    for rate_index, trial in chosen
                    if not np.all(np.isfinite(grids[index][rate_index, trial]))
                ]
                for index, chosen in enumerate(subset)
            ]

        if any(pending):
            try:
                self._run_pending(
                    tasks, units, errors, pending, rates_list, grids,
                    completed, total, checkpoint,
                )
            except BaseException:
                # A KeyboardInterrupt (or any other abort) mid-sweep
                # must not lose cells already recorded but not yet
                # flushed: persist the checkpoint before re-raising, so
                # Ctrl-C loses at most the in-flight window.
                if checkpoint is not None:
                    checkpoint.flush()
                raise

        return rates_list, grids

    def _run_pending(
        self,
        tasks: Sequence[CampaignCellTask],
        units: "list[PackedUnit | None]",
        errors: "list[Exception | None]",
        pending: "list[list[tuple[int, int]]]",
        rates_list: list[np.ndarray],
        grids: list[np.ndarray],
        completed: int,
        total: int,
        checkpoint: "_Checkpoint | None",
    ) -> None:
        """Dispatch the pending cells serially or across the pool."""
        if self.workers == 1:
            self._run_serial(
                tasks, pending, rates_list, grids, completed, total, checkpoint
            )
            return
        for task, unit, error in zip(tasks, units, errors):
            if unit is None:
                raise ValueError(
                    f"campaign state of {task.label or task.kind!r} must "
                    "be picklable for workers > 1; use a picklable "
                    "sampler (e.g. random_bitflip_sampler(), "
                    "ecc_sampler()) instead of a lambda/closure, or "
                    f"run with workers=1 ({error})"
                ) from error
        # One clean pass per host: publish each task's suffix
        # activation cache alongside its weights (skipped on the
        # inline transport, where the cache bytes would be
        # copied into every chunk call instead of mapped once).
        # The writability probe, not mere importability, gates
        # the export so a full /dev/shm doesn't waste one clean
        # forward per task on caches that could never ship.
        from repro.utils.shm import shared_memory_writable

        suffix_units: "dict[int, PackedUnit]" = (
            _export_suffix_caches(tasks, pending)
            if shared_memory_writable()
            else {}
        )
        task_units = [
            (f"task/{index}", unit) for index, unit in enumerate(units)
        ]
        cache_units = [
            (f"suffix/{index}", unit)
            for index, unit in sorted(suffix_units.items())
        ]
        shipment = ship_units(task_units + cache_units)
        if cache_units and not shipment.ref.via_shared_memory:
            # Segment creation failed at runtime (e.g. /dev/shm
            # full): the inline transport re-pickles the plane
            # into every chunk call, so carrying the activation
            # caches there would multiply the copy cost the
            # publication exists to avoid.  Re-ship tasks only;
            # workers rebuild their clean passes locally.
            shipment.release()
            shipment = ship_units(task_units)
        # The segment (or the inline ref) now owns the only
        # payload copy; drop the per-task units so a large
        # multi-model sweep doesn't hold the streams twice.
        del task_units, cache_units, suffix_units
        units.clear()
        try:
            self._run_parallel(
                tasks, shipment.ref, pending, rates_list,
                grids, completed, total, checkpoint,
            )
        finally:
            shipment.release()

    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_cells(
        tasks: Sequence[CampaignCellTask],
        grids: list[np.ndarray],
        cells: "Sequence[Sequence[tuple[int, int]]] | None",
    ) -> "list[list[tuple[int, int]]] | None":
        """Validate and canonicalize a per-task cell subset.

        Each task's subset is deduplicated-checked, bounds-checked
        against its grid, and sorted into the serial enumeration order
        (rate-major), so a subset run visits its cells in the same
        relative order as the full run.
        """
        if cells is None:
            return None
        cells = list(cells)
        if len(cells) != len(tasks):
            raise ValueError(
                f"cells ({len(cells)}) must parallel tasks ({len(tasks)})"
            )
        subset: "list[list[tuple[int, int]]]" = []
        for task, grid, wanted in zip(tasks, grids, cells):
            name = task.label or task.kind
            chosen: "set[tuple[int, int]]" = set()
            for rate_index, trial in wanted:
                cell = (int(rate_index), int(trial))
                if not (
                    0 <= cell[0] < grid.shape[0] and 0 <= cell[1] < grid.shape[1]
                ):
                    raise ValueError(
                        f"cell {cell} lies outside the "
                        f"{grid.shape[0]}x{grid.shape[1]} grid of task {name!r}"
                    )
                if cell in chosen:
                    raise ValueError(f"duplicate cell {cell} for task {name!r}")
                chosen.add(cell)
            subset.append(sorted(chosen))
        return subset

    def _emit(
        self,
        task: CampaignCellTask,
        task_index: int,
        rate_index: int,
        trial: int,
        rates: np.ndarray,
        value,
        completed: int,
        total: int,
        from_checkpoint: bool = False,
        failed: bool = False,
    ) -> None:
        if self.progress is None and self.recorder is None:
            return
        scalars = np.atleast_1d(np.asarray(value, dtype=np.float64))
        result = CellResult(
            rate_index=rate_index,
            trial=trial,
            fault_rate=float(rates[rate_index]),
            accuracy=float(scalars[0]),
            completed=completed,
            total=total,
            from_checkpoint=from_checkpoint,
            campaign_index=task_index,
            campaign_label=task.label,
            values=(
                tuple(float(v) for v in scalars) if scalars.size > 1 else None
            ),
            failed=failed,
        )
        if self.recorder is not None:
            self.recorder.cell(result)
        if self.progress is not None:
            self.progress(result)

    def _quarantine(
        self,
        task: CampaignCellTask,
        task_index: int,
        rate_index: int,
        trial: int,
        rates: np.ndarray,
        completed: int,
        total: int,
        reason: str,
        attempts: int,
        error: "BaseException | None",
    ) -> None:
        """Record one cell as a ``failed`` outcome instead of aborting.

        The cell's grid entry stays NaN (so a checkpoint resume retries
        it), a :data:`FAILED_CELL_FIELDS` record lands on
        ``self.quarantined`` for results/summary surfacing, and the
        progress stream sees a ``failed=True`` :class:`CellResult`.
        """
        self.quarantined.append(
            {
                "task": task.label or task.kind,
                "task_index": int(task_index),
                "rate_index": int(rate_index),
                "trial": int(trial),
                "reason": reason,
                "attempts": int(attempts),
                "error": "" if error is None else f"{type(error).__name__}: {error}",
            }
        )
        if self.recorder is not None:
            self.recorder.failure(self.quarantined[-1])
        self._emit(
            task, task_index, rate_index, trial, rates,
            float("nan"), completed, total, failed=True,
        )

    def _run_serial(
        self,
        tasks: Sequence[CampaignCellTask],
        pending: "list[list[tuple[int, int]]]",
        rates_list: list[np.ndarray],
        grids: list[np.ndarray],
        completed: int,
        total: int,
        checkpoint: "_Checkpoint | None",
    ) -> None:
        """The in-process loops: task-major, rate-major, supervised."""
        chaos = ChaosPolicy.from_env()
        for task_index, task in enumerate(tasks):
            if not pending[task_index]:
                continue
            runner = task.make_runner()
            try:
                completed = self._run_serial_task(
                    runner, task, task_index, pending[task_index],
                    rates_list, grids, completed, total, checkpoint, chaos,
                )
            finally:
                runner.close()

    def _run_serial_task(
        self,
        runner: CellRunner,
        task: CampaignCellTask,
        task_index: int,
        cells: "Sequence[tuple[int, int]]",
        rates_list: list[np.ndarray],
        grids: list[np.ndarray],
        completed: int,
        total: int,
        checkpoint: "_Checkpoint | None",
        chaos: "ChaosPolicy | None",
    ) -> int:
        """Evaluate one task's cells in-process under supervision.

        Cell exceptions follow ``self.supervision.on_cell_error``:
        ``abort`` re-raises (the historical behaviour), ``retry``
        re-evaluates up to ``max_retries`` times with deterministic
        backoff before quarantining, ``quarantine`` gives up on the
        first failure.  Worker death cannot happen here (the "worker"
        is this process), so chaos ``kill`` decisions are skipped by
        :meth:`ChaosPolicy.disturb` via ``in_process=True``.  Returns
        the updated completed-cell count.
        """
        policy = self.supervision
        for rate_index, trial in cells:
            # Every dispatch before a success failed, so the dispatch
            # count is both the chaos attempt key and the retry count.
            for attempts in itertools.count(1):
                try:
                    if chaos is not None:
                        chaos.disturb(
                            task_index, [(rate_index, trial)], [attempts - 1],
                            in_process=True,
                        )
                    value = runner.run_cell(rate_index, trial)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    if policy.on_cell_error == "abort":
                        raise
                    if (
                        policy.on_cell_error == "quarantine"
                        or attempts > policy.max_retries
                    ):
                        completed += 1
                        self._quarantine(
                            task, task_index, rate_index, trial,
                            rates_list[task_index], completed, total,
                            "exception", attempts, error,
                        )
                        break
                    time.sleep(policy.backoff_seconds(attempts))
                    continue
                grids[task_index][rate_index, trial] = value
                completed += 1
                if checkpoint is not None:
                    checkpoint.record(task_index, rate_index, trial, value)
                self._emit(
                    task, task_index, rate_index, trial,
                    rates_list[task_index],
                    grids[task_index][rate_index, trial], completed, total,
                )
                if checkpoint is not None:
                    checkpoint.flush()
                break
        return completed

    def _run_parallel(
        self,
        tasks: Sequence[CampaignCellTask],
        payload: ShippedPlane,
        pending: "list[list[tuple[int, int]]]",
        rates_list: list[np.ndarray],
        grids: list[np.ndarray],
        completed: int,
        total: int,
        checkpoint: "_Checkpoint | None",
    ) -> None:
        """Fan every task's pending cells over one supervised pool.

        A persistent executor reuses its warm pool across calls; the
        plane address then travels with each chunk under a fresh
        generation id (workers re-attach once per generation).  A
        one-shot executor builds a right-sized pool and tears it down
        afterwards.

        Supervision on top of the historical fan-out:

        * **Worker death** (``BrokenProcessPool``) discards the broken
          pool, harvests any chunks that still finished, rebuilds a
          fresh pool, issues a fresh generation id against the *same*
          shipment (the parent owns the segment, so re-shipping is an
          id bump — workers re-attach on first touch), and re-dispatches
          only the chunks that were in flight.  Suspect cells re-enter
          through a *probe lane* where they run strictly alone, so the
          next death is attributable to one cell.
        * **Per-cell timeouts** (``policy.cell_timeout``) give each
          in-flight chunk a wall-clock deadline; an expired chunk's
          workers are killed with the pool (a running cell cannot be
          cancelled remotely) and its cells are retried or quarantined.
        * **Cell exceptions** follow ``policy.on_cell_error`` exactly as
          in the serial loop; multi-cell chunks are first split into
          singletons so the blame lands on one cell.
        * After ``policy.max_pool_rebuilds`` consecutive pool losses the
          executor **degrades to serial in-process execution** for the
          remaining cells instead of thrashing.

        Because cells are pure functions of ``(seed, rate, trial)``,
        every recovery path yields bit-identical grids.
        """
        policy = self.supervision
        n_pending = sum(len(cells) for cells in pending)
        workers = (
            self.workers if self.persistent else min(self.workers, n_pending)
        )
        chunk_size = self.chunk_size or max(1, n_pending // (workers * 4))
        if not payload.via_shared_memory:
            # Inline transport re-pickles the whole payload into every
            # chunk's call item; coarsen to about one chunk per worker so
            # the copy count matches the old initializer-based shipping.
            chunk_size = max(chunk_size, -(-n_pending // workers))
        normal: "deque[tuple[int, list[tuple[int, int]]]]" = deque()
        for task_index, cells in enumerate(pending):
            for start in range(0, len(cells), chunk_size):
                normal.append((task_index, list(cells[start : start + chunk_size])))
        probe: "deque[tuple[int, list[tuple[int, int]]]]" = deque()
        dispatches: "dict[tuple[int, int, int], int]" = {}
        failures: "dict[tuple[int, int, int], int]" = {}
        in_flight: "dict[Any, tuple[int, list[tuple[int, int]], float | None, bool]]" = {}
        rebuilds = 0
        backoff = 0.0
        degrade = False

        generation = (os.getpid(), next(_GENERATION))
        pool = self._acquire_pool(workers)

        def submit_chunk(
            task_index: int, cells: "list[tuple[int, int]]", probed: bool
        ) -> None:
            shipped = [
                (rate_index, trial,
                 dispatches.get((task_index, rate_index, trial), 0))
                for rate_index, trial in cells
            ]
            future = pool.submit(
                _run_task_cells, payload, generation, task_index, shipped
            )
            for rate_index, trial in cells:
                key = (task_index, rate_index, trial)
                dispatches[key] = dispatches.get(key, 0) + 1
            deadline = (
                time.monotonic() + policy.cell_timeout * len(cells)
                if policy.cell_timeout is not None
                else None
            )
            in_flight[future] = (task_index, list(cells), deadline, probed)

        def harvest(results) -> None:
            nonlocal completed
            for task_index, rate_index, trial, value in results:
                grids[task_index][rate_index, trial] = value
                completed += 1
                if checkpoint is not None:
                    checkpoint.record(task_index, rate_index, trial, value)
                self._emit(
                    tasks[task_index], task_index, rate_index, trial,
                    rates_list[task_index],
                    grids[task_index][rate_index, trial],
                    completed, total,
                )
            if checkpoint is not None:
                checkpoint.flush()

        def give_up(
            task_index: int,
            cell: "tuple[int, int]",
            reason: str,
            error: "BaseException | None",
        ) -> None:
            nonlocal completed
            completed += 1
            self._quarantine(
                tasks[task_index], task_index, cell[0], cell[1],
                rates_list[task_index], completed, total,
                reason, dispatches.get((task_index, *cell), 0), error,
            )

        def settle_failure(
            task_index: int,
            cells: "list[tuple[int, int]]",
            reason: str,
            error: BaseException,
            blamed: bool,
        ) -> None:
            nonlocal backoff
            if reason == "exception" and policy.on_cell_error == "abort":
                raise error
            if not blamed or len(cells) != 1:
                # The blame cannot land on one cell: split into
                # singletons.  Death suspects go through the probe lane
                # (strictly alone in flight, so the next death convicts
                # exactly one cell); everything else requeues normally.
                lane = probe if reason == "worker-death" else normal
                for cell in cells:
                    lane.append((task_index, [cell]))
                return
            cell = cells[0]
            key = (task_index, *cell)
            failures[key] = failures.get(key, 0) + 1
            if reason == "exception":
                if (
                    policy.on_cell_error == "quarantine"
                    or failures[key] > policy.max_retries
                ):
                    give_up(task_index, cell, reason, error)
                else:
                    backoff = max(backoff, policy.backoff_seconds(failures[key]))
                    normal.append((task_index, [cell]))
                return
            # Infrastructure faults (timeout, worker-death) are retried
            # regardless of on_cell_error; the policy only decides what
            # happens once the retry budget is spent.
            if failures[key] > policy.max_retries:
                if policy.on_cell_error == "abort":
                    raise error
                give_up(task_index, cell, reason, error)
                return
            backoff = max(backoff, policy.backoff_seconds(failures[key]))
            lane = probe if reason == "worker-death" else normal
            lane.append((task_index, [cell]))

        def breakdown(error: BaseException) -> None:
            nonlocal pool, generation, rebuilds, degrade
            survivors = list(in_flight.items())
            in_flight.clear()
            self._discard_pool(pool)
            for future, (task_index, cells, _deadline, probed) in survivors:
                if not future.done() or future.cancelled():
                    settle_failure(
                        task_index, cells, "worker-death", error, blamed=probed
                    )
                    continue
                exc = future.exception()
                if exc is None:
                    harvest(future.result())
                elif isinstance(exc, BrokenExecutor):
                    settle_failure(
                        task_index, cells, "worker-death", error, blamed=probed
                    )
                else:
                    settle_failure(
                        task_index, cells, "exception", exc,
                        blamed=len(cells) == 1,
                    )
            rebuilds += 1
            if rebuilds > policy.max_pool_rebuilds:
                degrade = True
                return
            # Fresh generation against the SAME shipment: the parent
            # owns the segment, so "re-shipping" the plane is an id
            # bump — rebuilt workers re-attach on their first chunk.
            generation = (os.getpid(), next(_GENERATION))
            pool = self._acquire_pool(workers)

        try:
            while normal or probe or in_flight:
                if degrade:
                    break
                try:
                    if probe:
                        if not in_flight:
                            task_index, cells = probe[0]
                            submit_chunk(task_index, cells, probed=True)
                            probe.popleft()
                    else:
                        while normal and len(in_flight) < 2 * workers:
                            task_index, cells = normal[0]
                            submit_chunk(task_index, cells, probed=False)
                            normal.popleft()
                except BrokenExecutor as error:
                    breakdown(error)
                    continue
                if backoff:
                    time.sleep(backoff)
                    backoff = 0.0
                if not in_flight:
                    continue
                deadlines = [
                    entry[2]
                    for entry in in_flight.values()
                    if entry[2] is not None
                ]
                timeout = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines
                    else None
                )
                done, _ = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken: "BaseException | None" = None
                for future in done:
                    task_index, cells, _deadline, probed = in_flight.pop(future)
                    try:
                        harvest(future.result())
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BrokenExecutor as error:
                        broken = error
                        settle_failure(
                            task_index, cells, "worker-death", error,
                            blamed=probed,
                        )
                    except Exception as error:
                        settle_failure(
                            task_index, cells, "exception", error,
                            blamed=len(cells) == 1,
                        )
                now = time.monotonic()
                expired = [
                    future
                    for future, entry in in_flight.items()
                    if entry[2] is not None
                    and entry[2] <= now
                    and not future.done()
                ]
                for future in expired:
                    task_index, cells, _deadline, probed = in_flight.pop(future)
                    future.cancel()
                    error = CellTimeoutError(
                        f"chunk of {len(cells)} cell(s) of task {task_index} "
                        f"exceeded its {policy.cell_timeout:g}s-per-cell "
                        "wall-clock budget"
                    )
                    # A running cell cannot be cancelled remotely; the
                    # stuck worker goes down with the pool below.
                    broken = broken or error
                    settle_failure(
                        task_index, cells, "timeout", error,
                        blamed=len(cells) == 1,
                    )
                if broken is not None:
                    breakdown(broken)
        finally:
            if not self.persistent:
                pool.shutdown(cancel_futures=True)

        if degrade:
            warnings.warn(
                f"process pool broke {rebuilds} times "
                f"(max_pool_rebuilds={policy.max_pool_rebuilds}); degrading "
                "to serial in-process execution for the remaining cells",
                RuntimeWarning,
                stacklevel=2,
            )
            leftovers: "dict[int, set[tuple[int, int]]]" = {}
            for task_index, cells in [*probe, *normal]:
                leftovers.setdefault(task_index, set()).update(
                    (int(rate_index), int(trial)) for rate_index, trial in cells
                )
            for task_index in sorted(leftovers):
                task = tasks[task_index]
                runner = task.make_runner()
                try:
                    # The fallback exists to finish the campaign, so it
                    # runs chaos-free: injected disturbances had their
                    # shot at the pool that just collapsed.
                    completed = self._run_serial_task(
                        runner, task, task_index,
                        sorted(leftovers[task_index]),
                        rates_list, grids, completed, total, checkpoint,
                        chaos=None,
                    )
                finally:
                    runner.close()

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly broken, possibly stuck) pool down hard.

        Worker processes are SIGKILLed first: a stuck cell would
        otherwise keep ``shutdown(wait=True)`` from returning, and after
        a breakage every in-flight chunk is re-dispatched elsewhere
        anyway.  Killed workers release their shared-memory mappings on
        exit; the parent still owns (and later unlinks) the segments.
        """
        if self._pool is pool:
            self._pool = None
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-reaped worker
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """The warm pool (created once) or a fresh one-shot pool."""
        import multiprocessing

        if self.persistent and self._pool is not None:
            return self._pool
        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(workers,),
        )
        if self.persistent:
            self._pool = pool
        return pool
