"""Transient bit flips in activation memory (feature-map buffers).

The paper injects faults into the *weight* memory; accelerators also
buffer intermediate feature maps in on-chip SRAM, and frameworks like
Ares study upsets there too.  This module adds that fault surface: while
armed, every computational layer's output tensor has random bits flipped
at a per-bit rate before it flows into the following activation function
— so the paper's clipped activations naturally bound this corruption as
well, which the activation-fault benchmark demonstrates.

Activation faults are transient by construction (each forward pass
allocates fresh output buffers), so no undo machinery is needed.

:func:`run_activation_campaign` sweeps activation-fault rates through the
shared :class:`~repro.core.executor.CampaignExecutor` substrate — the
same ``rate/<i>/trial/<j>`` seed derivation, ``workers=`` fan-out
(bit-identical to serial), progress streaming and checkpoint resume as
the weight-fault campaigns; declarative scenarios reach it via
``campaign: activation`` (only the ``random_bitflip`` fault model —
corruption is sampled per layer output inside the forward pass, so
position-addressed models have no meaning on this surface).  Activation faults never write to weight
arrays, so under the zero-copy tensor plane (``docs/MEMORY_MODEL.md``)
this campaign's workers keep the *entire* network mapped read-only —
no copy-on-write ever fires — and share the parent's published clean
pass for the suffix cut at the first hooked layer.  Imports from
:mod:`repro.core` stay inside functions: the hw layer otherwise does
not depend on core.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro import nn
from repro.hw.bits import WORD_BITS, flip_bits_in_words
from repro.models.registry import computational_layers
from repro.utils.rng import SeedTree, as_generator
from repro.utils.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hw->core cycle
    from repro.core.campaign import CampaignConfig
    from repro.core.metrics import ResilienceCurve

__all__ = [
    "ActivationFaultInjector",
    "ActivationFaultCellTask",
    "flip_activation_bits",
    "run_activation_campaign",
]


def flip_activation_bits(
    values: np.ndarray, fault_rate: float, rng: np.random.Generator
) -> int:
    """Flip random bits of a float32 activation tensor in place.

    Returns the number of flipped bits.  The tensor must be contiguous
    float32 (which all layer outputs in this framework are).
    """
    check_probability("fault_rate", fault_rate)
    if values.dtype != np.float32:
        raise ValueError(f"activations must be float32, got {values.dtype}")
    if not values.flags["C_CONTIGUOUS"]:
        # reshape(-1) would silently copy and the faults would be lost.
        raise ValueError("activations must be C-contiguous for in-place faults")
    flat = values.reshape(-1)
    total_bits = flat.size * WORD_BITS
    count = int(rng.binomial(total_bits, fault_rate))
    if count == 0:
        return 0
    if count >= total_bits:
        bits = np.arange(total_bits, dtype=np.int64)
    else:
        bits = rng.choice(total_bits, size=count, replace=False).astype(np.int64)
    flip_bits_in_words(flat, bits // WORD_BITS, bits % WORD_BITS)
    return count


class ActivationFaultInjector:
    """Arms forward hooks that corrupt computational-layer outputs.

    Hooks are installed on every CONV/FC layer (or a named subset) at
    construction but stay dormant; faults fire only inside an
    :meth:`armed` block, at the rate given there.
    """

    def __init__(self, model: nn.Module, layers: "list[str] | None" = None):
        self.model = model
        pairs = computational_layers(model)
        if layers is not None:
            known = {name for name, _ in pairs}
            unknown = set(layers) - known
            if unknown:
                raise ValueError(
                    f"unknown layer names {sorted(unknown)!r}; model has "
                    f"{sorted(known)!r}"
                )
            pairs = [(name, module) for name, module in pairs if name in layers]
        if not pairs:
            raise ValueError("no computational layers selected")
        self.layer_names = [name for name, _ in pairs]
        self._rate: "float | None" = None
        self._rng: "np.random.Generator | None" = None
        self._flips_this_session = 0
        self._handles = [
            module.register_forward_hook(self._hook) for _, module in pairs
        ]

    def _hook(self, module: nn.Module, inputs: np.ndarray, output: np.ndarray) -> None:
        if self._rate is None or self._rng is None:
            return
        self._flips_this_session += flip_activation_bits(output, self._rate, self._rng)

    @property
    def armed(self) -> bool:
        """Whether faults are currently firing."""
        return self._rate is not None

    @contextmanager
    def session(
        self, fault_rate: float, rng: "int | np.random.Generator"
    ) -> Iterator["ActivationFaultInjector"]:
        """Fire faults at ``fault_rate`` for every forward in the block."""
        check_probability("fault_rate", fault_rate)
        if self.armed:
            raise RuntimeError("activation fault session already active")
        self._rate = float(fault_rate)
        self._rng = as_generator(rng)
        self._flips_this_session = 0
        try:
            yield self
        finally:
            self._rate = None
            self._rng = None

    @property
    def flips_this_session(self) -> int:
        """Bits flipped since the current/most recent session started."""
        return self._flips_this_session

    def remove(self) -> None:
        """Detach all hooks (the injector becomes inert)."""
        for handle in self._handles:
            handle.remove()
        self._handles.clear()

    def __enter__(self) -> "ActivationFaultInjector":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


class ActivationFaultCellTask:
    """Cell protocol for the activation-fault campaign.

    Picklable by construction: the task carries only the (hook-free)
    model and arrays; the :class:`ActivationFaultInjector` — whose hook
    handles do not survive pickling — is built per process by
    :meth:`make_runner`.
    """

    kind = "activation-fault"
    cell_width = 1

    def __init__(
        self,
        model: nn.Module,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
        layers: "list[str] | None" = None,
        label: str = "actfault",
        suffix: bool = True,
    ):
        from repro.core.campaign import CampaignConfig

        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.layers = list(layers) if layers is not None else None
        self.label = label
        self._clean: "float | None" = None
        self.suffix = bool(suffix)

    def __getstate__(self) -> dict:
        from repro.core.executor import payload_state

        return payload_state(self)

    def clean_accuracy(self) -> float:
        """Fault-free accuracy (hooks dormant or absent; computed lazily)."""
        if self._clean is None:
            from repro.core.metrics import evaluate_accuracy_arrays

            self._clean = evaluate_accuracy_arrays(
                self.model, self.images, self.labels, self.config.batch_size
            )
        return self._clean

    def absorb_clean_logits(self, logits_batches) -> None:
        """Seed the lazy clean accuracy from an engine's clean pass.

        The runner's engine runs its clean forward while the hooks are
        dormant, so its logits match :meth:`clean_accuracy` exactly.
        """
        from repro.core.executor import _accuracy_from_logits

        self._clean = _accuracy_from_logits(
            self._clean, logits_batches, self.labels
        )

    def make_runner(self) -> "_ActivationCellRunner":
        return _ActivationCellRunner(self)

    def build_result(
        self, rates: np.ndarray, values: np.ndarray
    ) -> "ResilienceCurve":
        from repro.core.metrics import ResilienceCurve

        return ResilienceCurve(
            fault_rates=rates,
            accuracies=values,
            clean_accuracy=self.clean_accuracy(),
            label=self.label,
        )


class _ActivationCellRunner:
    """Armed hooks + seed tree over one (possibly worker-local) model copy.

    :meth:`close` detaches the hooks — essential on the serial path,
    where the runner instruments the *caller's* model.

    The suffix cut point is *static* here: faults fire in the hooked
    layers' outputs during the forward itself, so every cell re-executes
    from the first hooked layer (its input is untouched by construction —
    upstream layers carry no hooks and clean weights).  The engine's
    clean pass runs while the hooks are dormant.  No empty-fault-set
    shortcut exists (corruption is sampled per layer inside the forward),
    so the engine is skipped entirely when the first hooked layer has no
    usable prefix.
    """

    def __init__(self, task: ActivationFaultCellTask):
        from repro.core.suffix import SuffixForwardEngine

        self.task = task
        self.injector = ActivationFaultInjector(task.model, layers=task.layers)
        self.engine = None
        self._forward = None
        try:
            self.tree = SeedTree(task.config.seed)
            # layer_names is in forward order; every cell cuts at the
            # first hooked layer, so only that boundary is worth caching.
            self.engine = SuffixForwardEngine.build(
                task.model,
                task.images,
                task.config.batch_size,
                scope_layers=self.injector.layer_names[:1],
                clean_shortcut=False,
                enabled=getattr(task, "suffix", True),
            )
            self._forward = (
                None
                if self.engine is None
                else self.engine.forward_fn(self.injector.layer_names)
            )
        except BaseException:
            # Construction must not leave hooks on the caller's model.
            self.close()
            raise

    def run_cell(self, rate_index: int, trial: int) -> float:
        from repro.core.executor import cell_seed_path
        from repro.core.metrics import evaluate_accuracy_arrays

        task = self.task
        rate = float(task.config.fault_rates[rate_index])
        rng = self.tree.generator(cell_seed_path(rate_index, trial))
        with self.injector.session(rate, rng):
            return evaluate_accuracy_arrays(
                task.model, task.images, task.labels, task.config.batch_size,
                forward=self._forward,
            )

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
            self._forward = None
        self.injector.remove()


def run_activation_campaign(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    config: "CampaignConfig | None" = None,
    layers: "list[str] | None" = None,
    label: str = "actfault",
    workers: int = 1,
    progress: "Callable | None" = None,
    checkpoint: "str | None" = None,
    suffix: bool = True,
) -> "ResilienceCurve":
    """Rate sweep x trials with transient faults in activation memory.

    ``layers`` restricts the corrupted layer outputs (default: every
    CONV/FC layer).  ``workers`` fans the grid across a process pool
    (``0`` = one per CPU core) with curves bit-identical to serial;
    ``progress``/``checkpoint`` behave exactly as on the weight-fault
    campaigns.  The model's hooks are removed before returning.
    ``suffix`` toggles suffix re-execution from the first corrupted
    layer on the serial path (bit-identical either way; workers always
    run with the engine on — ``REPRO_NO_SUFFIX=1`` disables it
    everywhere).
    """
    from repro.core.executor import CampaignExecutor

    task = ActivationFaultCellTask(
        model, images, labels, config=config, layers=layers, label=label,
        suffix=suffix,
    )
    executor = CampaignExecutor(
        workers=workers, progress=progress, checkpoint=checkpoint
    )
    return executor.run_tasks([task])[0]
