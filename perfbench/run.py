"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload fig7_alexnet_w2 --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same inputs untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  The first run in a checkout trains the
two networks and tunes their thresholds into ``.bench_build/perfbench/cache``
(the one-off build); later runs see that cache warm.  See README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from measure import (Tally, cpu_seconds, environment, host_probe_s, peak_rss_mb,
                     proc_cpu_seconds, tail)
from workloads import derived_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUPS = 7  # set-ups per run; setup_s is their median
MIN_OPS = 3  # timed operations per run at least, however long they take

WORKLOADS = ("fig7_alexnet_w2", "lenet_kinds_serial", "harden_lenet5_w2", "serve_lenet")
NN_LAYERS = ("conv2d", "maxpool2d", "linear", "activation")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ensure_cache(cache_dir: Path) -> bool:
    """The one-off build: fill the artifact cache once per checkout, under a lock.

    The fill runs in a child process and returns True when it ran, so the
    caller can measure in a fresh process whose peak RSS never saw training.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    marker = cache_dir / ".filled"
    with open(cache_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if marker.exists():
            return False
        subprocess.run([sys.executable, __file__, "--fill-cache"], check=True)
        marker.write_text("ok\n")
    return True


def fill_cache() -> int:
    sys.path.insert(0, str(SRC))
    from repro.utils.cache import ArtifactCache
    from workloads import fill_cache as fill

    fill(ArtifactCache(BUILD / "cache"))
    return 0


def build_workload(name: str, cache, scratch: Path):
    from workloads import HardenWorkload, SuiteWorkload, fig7_suite, lenet_kinds_suite

    if name == "fig7_alexnet_w2":
        return SuiteWorkload(fig7_suite, 2, cache, scratch)
    if name == "lenet_kinds_serial":
        return SuiteWorkload(lenet_kinds_suite, 1, cache, scratch)
    if name == "harden_lenet5_w2":
        return HardenWorkload(2, cache)
    raise ValueError(name)


def same_output(output, reference, what: str) -> None:
    from workloads import CheckFailed

    if output.identity() != reference.identity():
        raise CheckFailed(f"{what} differs from the first run of the same inputs")


# --------------------------------------------------------------------- #
# campaign and hardening workloads
# --------------------------------------------------------------------- #


def run_ops(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Set up ``SETUPS`` times, warm up once, then time operations for ``seconds``.

    Operation ``k`` runs inputs ``workload.inputs(seed, k)`` (operation 0 is
    the untimed warm-up); every output is checked, and outputs of repeated
    inputs must be identical.
    """
    setups, state = [], None
    for _ in range(SETUPS):
        state = None
        gc.collect()  # the previous set-up's garbage is not this one's cost
        start = time.perf_counter()
        state = workload.setup(workload.inputs(seed, 0))
        setups.append(time.perf_counter() - start)
    seen: dict = {}

    def operation(index: int):
        payload = workload.inputs(seed, index)
        job = workload.prepare(state, payload)
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        output = workload.op(state, job)
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
        tally.add(output.cells, output.failed)
        key = json.dumps(payload, sort_keys=True)
        if key in seen:
            same_output(output, seen[key], "a repeated run")
        else:
            seen[key] = output
            workload.check(state, output, derived_seed(seed, index))
        return output, wall, cpu

    operation(0)  # warms lazy imports and first-call paths; not timed
    walls, cpus, cells = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        output, wall, cpu = operation(len(walls) + 1)
        walls.append(wall)
        cpus.append(cpu)
        cells.append(output.cells)
    # Medians over the operations: the host's noise comes in bursts that
    # slow one operation or two, and a median does not follow them.
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "cells_per_s": (median(c / w for c, w in zip(cells, walls)), "1/s"),
            "cpu_s": (median(cpus), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {"ops": len(walls), "walls_s": walls, "cpus_s": cpus,
                   "cells": cells, "setups_s": setups},
    }


def trace_ops(workload, seed: int, tally: Tally, spans_dir: Path) -> dict:
    """Untraced and traced runs of one input; for 2 workers, also both at 1 worker."""
    from tracing import SpanRecorder, SuffixCuts, instrument

    payload = workload.inputs(seed, 1)
    state = workload.setup(payload)
    job = workload.prepare(state, payload)
    reference = workload.op(state, job)
    workload.check(state, reference, derived_seed(seed, 1))
    start = time.perf_counter()
    untraced = workload.op(state, job)
    wall_untraced = time.perf_counter() - start
    same_output(untraced, reference, "a repeated run")

    parent, parent_cuts = SpanRecorder("parent"), SuffixCuts()
    with instrument(parent, parent_cuts):
        traced_state = workload.setup(payload)
        children0 = _children_cpu()
        start = time.perf_counter()
        traced = workload.op(traced_state, workload.prepare(traced_state, payload))
        wall_traced = time.perf_counter() - start
        worker_cpu = _children_cpu() - children0
    same_output(traced, reference, "the traced run")
    compute, cuts = parent, parent_cuts
    detail = {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced}
    outputs = [reference, untraced, traced]
    if workload.workers != 1:
        start = time.perf_counter()
        serial = workload.op(state, job, workers=1)
        # Untraced 1-worker time: the serial baseline the pool should beat.
        detail["wall_untraced_1worker_s"] = time.perf_counter() - start
        same_output(serial, reference, "the 1-worker run")
        compute, cuts = SpanRecorder("compute"), SuffixCuts()
        with instrument(compute, cuts):
            replay = workload.op(traced_state, job, workers=1)
        same_output(replay, reference, "the traced 1-worker replay")
        outputs += [serial, replay]
    for output in outputs:
        tally.add(output.cells, output.failed)
    parent.write(spans_dir / "parent.json")
    if compute is not parent:
        compute.write(spans_dir / "compute.json")

    extras = {"executor.worker_cpu_s": worker_cpu,
              "trace.overhead_s": wall_traced - wall_untraced}
    results = getattr(reference, "results", [])
    adaptive = [r.adaptive for r in results if r.adaptive is not None]
    extras["adaptive.cells_executed"] = sum(a.cells_executed for a in adaptive)
    extras["adaptive.cells_ceiling"] = sum(a.cells_total for a in adaptive)
    extras["results.store_mb"] = getattr(reference, "store_mb", 0.0)
    extras["finetune.iterations"] = getattr(reference, "iterations", 0)
    return {
        "metrics": layer_metrics(parent, compute, cuts, extras),
        "detail": dict(detail, self_s=_self_times(parent, compute)),
    }


def _children_cpu() -> float:
    times = os.times()
    return times.children_user + times.children_system


def _self_times(parent, compute) -> dict:
    from tracing import self_times

    return {"parent": self_times(parent.spans), "compute": self_times(compute.spans)}


# --------------------------------------------------------------------- #
# serve workload
# --------------------------------------------------------------------- #


def serve_summary(requests, wall: float) -> dict:
    """Hit/miss latency order statistics and throughput of one client phase."""
    ok = [r for r in requests if r.ok]
    hits = [r.latency_s * 1e3 for r in ok if r.kind == "hit"]
    misses = [r.latency_s for r in ok if r.kind == "miss"]
    summary = {"requests": len(requests), "ok": len(ok), "hits": len(hits),
               "misses": len(misses), "requests_per_s": len(ok) / wall,
               "miss_s_mean": sum(misses) / len(misses) if misses else None}
    for name, values in (("hit_ms", hits), ("miss_s", misses)):
        summary[f"{name}_p50"] = median(values) if values else None
        found = tail(values)
        if found is None:  # too few samples: fall back to the maximum
            found = (max(values), 100.0, len(values)) if values else (None, None, 0)
        summary[f"{name}_tail"], summary[f"{name}_tail_percentile"], \
            summary[f"{name}_count"] = found
    return summary


def run_serve(seed: int, seconds: float, tally: Tally, cache_dir: Path, scratch: Path) -> dict:
    from repro.service import ServiceClient
    from serve import CELLS_PER_SUITE, Daemon, check_requests, run_clients, warm_up

    setups, daemon = [], None
    try:
        for index in range(SETUPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            start = time.perf_counter()
            daemon = Daemon(scratch / f"root-{index}", SRC, cache_dir,
                            scratch / f"daemon-{index}.log")
            warm_up(daemon.url, seed)
            setups.append(time.perf_counter() - start)
        cpu0, daemon_cpu0 = cpu_seconds(), proc_cpu_seconds(daemon.process.pid)
        requests, wall = run_clients(daemon.url, seed, seconds)
        cpu = cpu_seconds() - cpu0 + proc_cpu_seconds(daemon.process.pid) - daemon_cpu0
        executions = ServiceClient(daemon.url).stats()["executions"]
    finally:
        if daemon is not None:
            daemon.stop()
    tally.add(len(requests), sum(not r.ok for r in requests))
    check_requests(requests, executions, extra_ids=1)
    summary = serve_summary(requests, wall)
    delivered = summary["ok"] * CELLS_PER_SUITE
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            # The mean, not the p50: a miss either runs alone or waits for
            # the other client's miss, and the median flips between the two.
            "wall_s": (summary["miss_s_mean"], "s"),
            "cells_per_s": (delivered / wall, "1/s"),
            "cpu_s": (cpu / summary["misses"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {"setups_s": setups, "serve": summary},
    }


def trace_serve(seed: int, seconds: float, tally: Tally, cache, cache_dir: Path,
                scratch: Path, spans_dir: Path) -> dict:
    """Clients against the daemon subprocess, then against in-process services.

    The daemon phase gives the client-side ``service.*`` latencies.  Two
    in-process ``CampaignService`` + ``serve()`` phases, untraced and then
    traced, on fresh roots, give the server-side spans and the tracing
    overhead, so the overhead compares like with like.
    """
    from repro.service import ServiceClient
    from serve import Daemon, check_requests, in_process_service, run_clients, warm_up
    from tracing import SpanRecorder, SuffixCuts, instrument
    from workloads import CheckFailed

    clients = SpanRecorder("clients")
    daemon = Daemon(scratch / "root-daemon", SRC, cache_dir, scratch / "daemon.log")
    try:
        warm_up(daemon.url, seed)
        untraced, wall_u = run_clients(daemon.url, seed, seconds / 2, recorder=clients)
        executions_u = ServiceClient(daemon.url).stats()["executions"]
    finally:
        daemon.stop()
    check_requests(untraced, executions_u, extra_ids=1)

    with in_process_service(scratch / "root-untraced", cache) as (service, url):
        warm_up(url, seed)
        plain, wall_p = run_clients(url, seed, seconds / 2)
        executions_p = service.stats()["executions"]
    check_requests(plain, executions_p, extra_ids=1)

    recorder, cuts = SpanRecorder("service"), SuffixCuts()
    with in_process_service(scratch / "root-traced", cache) as (service, url):
        warm_up(url, seed)
        with instrument(recorder, cuts):
            traced, wall_t = run_clients(url, seed, seconds / 2)
        stats = service.stats()
    check_requests(traced, stats["executions"], extra_ids=1)
    by_id = {r.run_id: r for r in untraced + plain if r.ok}
    for request in traced:
        twin = by_id.get(request.run_id)
        if request.ok and twin is not None and (twin.files, twin.store) != (request.files, request.store):
            raise CheckFailed(f"run {request.run_id}: traced service returned other bytes")
    every = untraced + plain + traced
    tally.add(len(every), sum(not r.ok for r in every))
    recorder.write(spans_dir / "service.json")
    clients.write(spans_dir / "clients.json")

    summary_u, summary_t = serve_summary(untraced, wall_u), serve_summary(traced, wall_t)
    summary_p = serve_summary(plain, wall_p)
    ok = [r for r in untraced if r.ok]
    waits = [r.queue_wait_s for r in ok if r.queue_wait_s is not None]
    keys = recorder.named("service.key")
    extras = {
        "service.submit_ms": median([r.submit_s * 1e3 for r in ok]),
        "service.queue_wait_s": median(waits) if waits else 0.0,
        "service.fetch_ms": median([r.fetch_s * 1e3 for r in ok]),
        "service.polls_per_request": sum(r.polls for r in ok) / len(ok),
        "service.key_ms": 1e3 * sum(s.duration for s in keys) / max(len(keys), 1),
        "service.hit_ratio": stats["hits"] / max(stats["submissions"], 1),
        "service.executions": stats["executions"],
        "service.hit_ms_p50": summary_u["hit_ms_p50"],
        "service.hit_ms_tail": summary_u["hit_ms_tail"],
        "service.miss_s_p50": summary_u["miss_s_p50"],
        "service.miss_s_tail": summary_u["miss_s_tail"],
        "service.requests_per_s": summary_u["requests_per_s"],
        "trace.overhead_s": summary_t["miss_s_mean"] - summary_p["miss_s_mean"],
    }
    return {
        "metrics": layer_metrics(recorder, recorder, cuts, extras),
        "detail": {"serve_daemon": summary_u, "serve_in_process_untraced": summary_p,
                   "serve_in_process_traced": summary_t,
                   "self_s": _self_times(recorder, recorder)},
    }


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #

# Units of the per-layer metrics; names absent from a workload's trace read 0.
LAYER_UNITS = {
    **{f"nn.{layer}.{what}": unit for layer in NN_LAYERS
       for what, unit in (("self_s", "s"), ("calls", "count"), ("gflop", "GFLOP"),
                          ("mb_moved", "MB"))},
    "metrics.evaluate_s": "s", "metrics.evaluate_calls": "count",
    "suffix.clean_pass_s": "s", "suffix.replay_ratio": "ratio",
    "suffix.full_forward_ratio": "ratio", "suffix.skipped_depth_mean": "layers",
    "hw.sample_s": "s", "hw.faults_per_cell": "count", "hw.inject_s": "s",
    "hw.restore_s": "s", "hw.actfault_s": "s",
    "batched.run_family_s": "s", "batched.run_family_calls": "count",
    "adaptive.cells_executed": "count", "adaptive.cells_ceiling": "count",
    "executor.run_tasks_s": "s", "executor.generations": "count", "executor.cell_s": "s",
    "executor.overhead_s": "s", "executor.worker_cpu_s": "s",
    "shm.pack_s": "s", "shm.ship_s": "s", "shm.plane_mb": "MB",
    "profiling.profile_s": "s", "finetune.evaluate_many_s": "s",
    "finetune.evaluate_many_calls": "count", "finetune.iterations": "count",
    "finetune.tune_layer_s": "s",
    "scenarios.parse_s": "s", "scenarios.compile_s": "s", "models.bundle_load_s": "s",
    "experiments.prepare_s": "s",
    "results.segment_cell_s": "s", "results.segment_cell_calls": "count",
    "results.write_s": "s", "results.store_mb": "MB", "results.report_s": "s",
    "service.submit_ms": "ms", "service.queue_wait_s": "s", "service.fetch_ms": "ms",
    "service.polls_per_request": "count", "service.key_ms": "ms", "service.hit_ratio": "ratio",
    "service.executions": "count", "service.hit_ms_p50": "ms", "service.hit_ms_tail": "ms",
    "service.miss_s_p50": "s", "service.miss_s_tail": "s", "service.requests_per_s": "1/s",
    "trace.overhead_s": "s",
}


def layer_metrics(parent, compute, cuts, extras: dict) -> dict:
    """Per-layer metrics: compute layers from ``compute``, orchestration from ``parent``."""
    from tracing import self_times

    def total(recorder, name):
        return sum(span.duration for span in recorder.named(name))

    def calls(recorder, name):
        return len(recorder.named(name))

    def attr(recorder, name, key):
        return sum(span.attrs.get(key, 0.0) for span in recorder.named(name))

    own = self_times(compute.spans)
    values: dict = {}
    for layer in NN_LAYERS:
        name = f"nn.{layer}"
        values[f"{name}.self_s"] = own.get(name, 0.0)
        values[f"{name}.calls"] = calls(compute, name)
        values[f"{name}.gflop"] = attr(compute, name, "flop") / 1e9
        values[f"{name}.mb_moved"] = attr(compute, name, "bytes") / 1e6
    injects = calls(compute, "hw.inject")
    cells = total(compute, "executor.cell")
    values.update({
        "metrics.evaluate_s": total(compute, "metrics.evaluate"),
        "metrics.evaluate_calls": calls(compute, "metrics.evaluate"),
        "suffix.clean_pass_s": total(compute, "suffix.clean_pass"),
        "suffix.replay_ratio": cuts.replay / cuts.cells if cuts.cells else 0.0,
        "suffix.full_forward_ratio": cuts.full / cuts.cells if cuts.cells else 0.0,
        "suffix.skipped_depth_mean": (sum(cuts.depths) / len(cuts.depths)
                                      if cuts.depths else 0.0),
        "hw.sample_s": total(compute, "hw.sample"),
        "hw.faults_per_cell": attr(compute, "hw.inject", "faults") / injects if injects else 0.0,
        "hw.inject_s": total(compute, "hw.inject"),
        "hw.restore_s": total(compute, "hw.restore"),
        "hw.actfault_s": total(compute, "hw.actfault"),
        "batched.run_family_s": total(compute, "batched.run_family"),
        "batched.run_family_calls": calls(compute, "batched.run_family"),
        "executor.run_tasks_s": total(parent, "executor.run_tasks"),
        "executor.generations": calls(parent, "executor.run_tasks"),
        "executor.cell_s": cells,
        "executor.overhead_s": total(compute, "executor.run_tasks") - cells,
        "shm.pack_s": total(parent, "shm.pack"),
        "shm.ship_s": total(parent, "shm.ship"),
        "shm.plane_mb": attr(parent, "shm.ship", "bytes") / 1e6,
        "profiling.profile_s": total(parent, "profiling.profile"),
        "finetune.evaluate_many_s": total(parent, "finetune.evaluate_many"),
        "finetune.evaluate_many_calls": calls(parent, "finetune.evaluate_many"),
        "finetune.tune_layer_s": total(parent, "finetune.tune_layer"),
        "scenarios.parse_s": total(parent, "scenarios.parse"),
        "scenarios.compile_s": total(parent, "scenarios.compile"),
        "models.bundle_load_s": total(parent, "models.bundle_load"),
        "experiments.prepare_s": total(parent, "experiments.prepare"),
        "results.segment_cell_s": total(parent, "results.segment_cell"),
        "results.segment_cell_calls": calls(parent, "results.segment_cell"),
        "results.write_s": total(parent, "results.write"),
        "results.report_s": total(parent, "results.report"),
    })
    values.update(extras)
    return {name: (float(values.get(name) or 0.0), unit) for name, unit in LAYER_UNITS.items()}


# --------------------------------------------------------------------- #


PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 10.0  # how long leftover processes may take to end before SIGKILL


def supervise(argv) -> int:
    """Measure in a child process, then reap every process the run left behind.

    This process becomes a child subreaper, so a process orphaned by the
    measurement (the multiprocessing resource tracker, a pool worker, a
    daemon) is re-parented here rather than to init, and is waited for
    before the benchmark exits.  Parsing happens in the child, so its exit
    code and result line are the benchmark's.
    """
    become_subreaper()
    child = subprocess.Popen([sys.executable, __file__, "--measure", *argv])

    def forward(signum, _frame):
        if child.poll() is None:
            child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        reap_children()


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux prctl)."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_children() -> None:
    """Wait for every child of this process; SIGKILL those left after the grace."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _children(parent: int) -> "list[int]":
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            found.append(int(entry))
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--fill-cache"]:
        return fill_cache()
    if argv[:1] != ["--measure"]:
        return supervise(argv)
    argv = argv[1:]
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    cache_dir = BUILD / "cache"
    if ensure_cache(cache_dir):
        return subprocess.run([sys.executable, __file__, "--measure", *argv]).returncode
    sys.path.insert(0, str(SRC))
    from repro.utils.cache import ArtifactCache
    from workloads import CheckFailed

    cache = ArtifactCache(cache_dir)
    env = environment(ROOT, args.seed)
    print(json.dumps({"environment": env}), flush=True)

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = BUILD / "scratch" / f"{run_name}-{os.getpid()}"
    spans_dir = BUILD / "spans" / run_name
    scratch.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    probe = host_probe_s()
    try:
        if args.workload == "serve_lenet":
            if args.trace:
                outcome = trace_serve(args.seed, args.seconds, tally, cache, cache_dir,
                                      scratch, spans_dir)
            else:
                outcome = run_serve(args.seed, args.seconds, tally, cache_dir, scratch)
        else:
            workload = build_workload(args.workload, cache, scratch)
            if args.trace:
                outcome = trace_ops(workload, args.seed, tally, spans_dir)
            else:
                outcome = run_ops(workload, args.seed, args.seconds, tally)
    except CheckFailed as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcome["detail"]["host_probe_s"] = [probe, host_probe_s()]  # before, after
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome["metrics"].items()}
    result = {"correct": True, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  failed_ratio=tally.failed_ratio, environment=env, detail=outcome["detail"])
    records = BUILD / "results"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run_name}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"detail": outcome["detail"]}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
