"""The benchmark's workloads: inputs from a seed, set-up, one operation, output checks.

Every workload is a closed loop of operations by one caller, except
``serve_lenet`` (two callers, see :mod:`serve`).  Inputs are a pure
function of the workload seed; the program only ever sees the generated
suite payloads and configs.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

# Cells re-computed through the plain path per scenario and operation.
CHECK_CELLS = 1


def derived_seed(seed: int, *path: int) -> int:
    """A 31-bit seed that depends only on ``(seed, *path)``."""
    return int(np.random.default_rng([seed, *path]).integers(2**31))


def fill_cache(cache) -> None:
    """Train both networks and tune their FT-ClipAct thresholds into ``cache``."""
    from repro.experiments import default_harden_config, experiment_bundle, hardened_clone

    for model in ("lenet5", "alexnet"):
        bundle = experiment_bundle(model, cache=cache)
        hardened_clone(bundle, default_harden_config(workers=1), cache=cache)


# --------------------------------------------------------------------- #
# scenario-suite workloads
# --------------------------------------------------------------------- #


def fig7_suite(seed: int, op: int = 0) -> dict:
    """Paper Fig. 7 on AlexNet: unprotected vs FT-ClipAct over the paper grid."""
    return {
        "name": "fig7_alexnet",
        "defaults": {
            "model": "alexnet",
            "campaign": "weight",
            "fault_model": "random_bitflip",
            "trials": 2,
            "seed": derived_seed(seed, op),
            "eval_images": 100,
        },
        "scenarios": [{"name": "fig7", "grid": {"variant": ["unprotected", "ftclipact"]}}],
    }


def lenet_kinds_suite(seed: int, op: int = 0) -> dict:
    """Every campaign kind and execution mode on LeNet-5."""
    return {
        "name": "lenet_kinds",
        "defaults": {
            "model": "lenet5",
            "trials": 2,
            "seed": derived_seed(seed, op),
            "eval_images": 128,
        },
        "scenarios": [
            {"name": "weight", "grid": {"variant": ["unprotected", "ecc", "tmr"]}},
            {
                "name": "int8",
                "campaign": "quantized",
                "grid": {
                    "fault_model": [
                        {"name": "burst", "burst_length": 4},
                        {"name": "stuck_at", "value": 1},
                    ]
                },
            },
            {"name": "act", "campaign": "activation",
             "grid": {"variant": ["unprotected", "ftclipact"]}},
            {"name": "targeted", "fault_model": {"name": "targeted_bit", "bit": "exponent_msb"}},
            {"name": "adaptive", "mode": "adaptive", "batch_k": 4, "trials": 16,
             "ci_halfwidth": 0.05},
        ],
    }


@dataclass
class SuiteState:
    context: Any


@dataclass
class SuiteOutput:
    """One suite run: its results plus the bytes every rerun must reproduce."""

    results: list
    summary: bytes
    store: bytes
    store_mb: float

    @property
    def cells(self) -> int:
        total = 0
        for result in self.results:
            if result.adaptive is not None:
                total += result.adaptive.cells_executed
            else:
                total += len(result.spec.rates) * result.spec.trials
        return total

    @property
    def failed(self) -> int:
        return sum(len(result.failed) for result in self.results)

    def identity(self) -> tuple:
        return (self.summary, self.store)


class SuiteWorkload:
    """A scenario suite run through ``run_scenarios`` with the result store on."""

    def __init__(self, make_suite, workers: int, cache, scratch: Path):
        self.make_suite = make_suite
        self.workers = workers
        self.cache = cache
        self.scratch = scratch
        self._runs = 0

    def inputs(self, seed: int, op: int) -> dict:
        """Operation ``op`` runs the suite on its own campaign seed."""
        return self.make_suite(seed, op)

    def setup(self, payload: dict) -> SuiteState:
        from repro.scenarios import ScenarioContext, compile_spec

        state = SuiteState(ScenarioContext(cache=self.cache))
        for spec in self.prepare(state, payload).specs:
            compile_spec(spec, state.context)
        return state

    def prepare(self, state: SuiteState, payload: dict):
        from repro.scenarios import parse_suite

        return parse_suite(payload, name=payload["name"])

    def op(self, state: SuiteState, suite, workers: "int | None" = None) -> SuiteOutput:
        from repro.scenarios import run_scenarios

        self._runs += 1
        out_dir = self.scratch / f"run-{self._runs}"
        results = run_scenarios(
            suite,
            workers=self.workers if workers is None else workers,
            out_dir=out_dir,
            context=state.context,
        )
        store = (out_dir / "store" / "cells.rcs").read_bytes()
        output = SuiteOutput(
            results=results,
            summary=(out_dir / "summary.json").read_bytes(),
            store=store,
            store_mb=len(store) / 1e6,
        )
        shutil.rmtree(out_dir)
        return output

    def check(self, state: SuiteState, output: SuiteOutput, seed: int) -> None:
        """Recompute a seeded sample of cells per scenario through the plain path."""
        rng = np.random.default_rng([seed, 1])
        for result in output.results:
            spec = result.spec
            if result.adaptive is not None:
                executed = result.adaptive.executed
                rows = [i for i in range(len(spec.rates)) if executed[i] > 0]
                picks = [(i, int(rng.integers(executed[i])))
                         for i in rng.choice(rows, size=CHECK_CELLS)]
                grid = result.adaptive.accuracies
            else:
                picks = [(int(rng.integers(len(spec.rates))), int(rng.integers(spec.trials)))
                         for _ in range(CHECK_CELLS)]
                grid = result.curve.accuracies
            for rate_index, trial in picks:
                expected = plain_cell(spec, state.context, int(rate_index), trial)
                got = float(grid[rate_index, trial])
                if got != expected:
                    raise CheckFailed(
                        f"{spec.name} cell (rate {rate_index}, trial {trial}): "
                        f"run gave {got!r}, plain path gives {expected!r}"
                    )


class CheckFailed(AssertionError):
    """An output disagreed with its reference."""


def plain_cell(spec, context, rate_index: int, trial: int) -> float:
    """One cell through the plain public path: no suffix engine, batching or pool.

    A fresh clone of the scenario's prepared model, the scenario's sampler
    on the cell's seed path, the injector (or int8 memory, or activation
    hooks) applied, and a full ``evaluate_accuracy_arrays``.
    """
    from repro.core.campaign import random_bitflip_sampler
    from repro.core.executor import cell_seed_path
    from repro.core.metrics import evaluate_accuracy_arrays
    from repro.experiments import prepare_campaign_variant
    from repro.hw.memory import WeightMemory
    from repro.scenarios import REDUNDANCY_VARIANTS, SpecFaultSampler
    from repro.utils.rng import SeedTree

    bundle = context.bundle(spec.model)
    split = bundle.test_set if spec.split == "test" else bundle.val_set
    images, labels = split.arrays()
    images, labels = images[: spec.eval_images], labels[: spec.eval_images]
    model, variant_sampler = prepare_campaign_variant(bundle, spec.variant, cache=context.cache)
    rate = float(spec.rates[rate_index])
    rng = SeedTree(spec.seed).generator(cell_seed_path(rate_index, trial))
    sampler = None
    if spec.fault_model.name != "random_bitflip":
        sampler = SpecFaultSampler(spec.fault_model.name, spec.fault_model.params)

    def evaluate() -> float:
        return evaluate_accuracy_arrays(model, images, labels, spec.batch_size)

    if spec.campaign == "weight":
        from repro.hw.injector import FaultInjector

        if spec.variant in REDUNDANCY_VARIANTS:
            sampler = variant_sampler
        memory = WeightMemory.from_model(model)
        faults = (sampler or random_bitflip_sampler())(memory, rate, rng)
        with FaultInjector(memory).apply(faults):
            return evaluate()
    if spec.campaign == "quantized":
        from repro.hw.quant import QuantizedWeightMemory

        quantized = QuantizedWeightMemory(WeightMemory.from_model(model))
        with quantized.deployed():
            faults = (sampler(quantized, rate, rng) if sampler is not None
                      else quantized.sample_bitflips(rate, rng))
            with quantized.apply(faults):
                return evaluate()
    from repro.hw.actfaults import ActivationFaultInjector

    with ActivationFaultInjector(model, layers=spec.layers) as injector:
        with injector.session(rate, rng):
            return evaluate()


# --------------------------------------------------------------------- #
# hardening workload
# --------------------------------------------------------------------- #


@dataclass
class HardenState:
    bundle: Any


@dataclass
class HardenOutput:
    thresholds: dict
    act_max: dict
    cells: int
    iterations: int

    failed = 0

    def identity(self) -> tuple:
        return tuple(sorted(self.thresholds.items()))


class HardenWorkload:
    """``harden_model`` on LeNet-5, called directly so no threshold cache is hit."""

    def __init__(self, workers: int, cache):
        self.workers = workers
        self.cache = cache

    def inputs(self, seed: int, op: int) -> dict:
        """Every operation repeats the same inputs: their thresholds must agree."""
        return {"model": "lenet5", "harden_seed": derived_seed(seed, 0)}

    def setup(self, payload: dict) -> HardenState:
        from repro.experiments import experiment_bundle

        return HardenState(experiment_bundle(payload["model"], cache=self.cache))

    def prepare(self, state: HardenState, payload: dict):
        from repro.experiments import default_harden_config

        return default_harden_config(seed=payload["harden_seed"], workers=self.workers)

    def op(self, state: HardenState, config, workers: "int | None" = None) -> HardenOutput:
        from dataclasses import replace

        from repro.core.pipeline import harden_model
        from repro.experiments import clone_model

        if workers is not None:
            config = replace(config, workers=workers)
        report = harden_model(clone_model(state.bundle), state.bundle.val_set, config)
        per_eval = len(config.fault_rates) * config.trials
        results = report.finetune_results.values()
        return HardenOutput(
            thresholds=dict(report.thresholds),
            act_max=dict(report.act_max),
            cells=per_eval * sum(result.evaluations for result in results),
            iterations=sum(result.iterations for result in results),
        )

    def check(self, state: HardenState, output: HardenOutput, seed: int) -> None:
        if set(output.thresholds) != set(output.act_max) or not output.thresholds:
            raise CheckFailed("hardening did not tune every profiled layer")
        for layer, threshold in output.thresholds.items():
            bound = output.act_max[layer]
            if not (math.isfinite(threshold) and 0.0 < threshold <= bound):
                raise CheckFailed(f"{layer}: threshold {threshold!r} outside (0, {bound!r}]")
