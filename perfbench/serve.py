"""The ``serve_lenet`` workload: a ``repro serve`` daemon and two closed-loop clients.

Each client submits a seeded sequence of small LeNet-5 suites.  In every
block of ``BLOCK`` submissions, ``REPEATS_PER_BLOCK`` repeat content that
client has already fetched, so they are cache hits; the others are new
content, so they are misses that execute.  The order inside a block is
seeded, so the two clients' misses do not lock into a fixed phase (always
colliding on the one slot, or never).  A client sends its next request
only after fetching the previous one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from workloads import CheckFailed, derived_seed

CLIENTS = 2
BLOCK = 4
REPEATS_PER_BLOCK = 2  # a 50% share of repeated content
POLL_S = 0.005
SUITE_RATES = (1e-6, 1e-5, 1e-4)
SUITE_TRIALS = 2
START_TIMEOUT_S = 60.0
MAX_STEPS = 10_000  # per client; the deadline ends the loop long before


def content(seed: int, client: int, index: int) -> dict:
    """The ``index``-th new suite of one client; distinct across clients."""
    return {
        "name": f"serve-c{client}-{index}",
        "scenarios": [{
            "name": "weight",
            "model": "lenet5",
            "campaign": "weight",
            "variant": "unprotected",
            "rates": list(SUITE_RATES),
            "trials": SUITE_TRIALS,
            "seed": derived_seed(seed, client, index),
            "eval_images": 64,
        }],
    }


CELLS_PER_SUITE = len(SUITE_RATES) * SUITE_TRIALS


def client_plan(seed: int, client: int, steps: int) -> list[tuple[str, int]]:
    """The first ``steps`` submissions of one client as ``(kind, content index)``.

    A repeat drawn before the client has fetched anything becomes new
    content, so only the first block can hold one repeat fewer.
    """
    rng = np.random.default_rng([seed, client, 99])
    kinds: list[str] = []
    while len(kinds) < steps:
        block = ["hit"] * REPEATS_PER_BLOCK + ["miss"] * (BLOCK - REPEATS_PER_BLOCK)
        rng.shuffle(block)
        kinds += block
    plan: list[tuple[str, int]] = []
    fresh = 0
    for kind in kinds[:steps]:
        if kind == "hit" and fresh:
            plan.append(("hit", int(rng.integers(fresh))))
        else:
            plan.append(("miss", fresh))
            fresh += 1
    return plan


@dataclass
class Request:
    client: int
    kind: str
    index: int
    ok: bool = False
    run_id: str = ""
    latency_s: float = 0.0
    submit_s: float = 0.0
    queue_wait_s: "float | None" = None
    fetch_s: float = 0.0
    polls: int = 0
    files: dict = field(default_factory=dict)
    store: bytes = b""
    error: str = ""


def one_request(client, payload: dict, request: Request, recorder=None) -> Request:
    """Submit, poll until complete, then fetch results and store."""
    from repro.service import ServiceClientError

    start = time.perf_counter()
    trace = f"c{request.client}-{request.kind}-{request.index}-{start:.6f}"
    try:
        with _span(recorder, "service.request", trace):
            response = client.submit(payload)
            request.submit_s = time.perf_counter() - start
            request.run_id = response["id"]
            state = response["state"]
            while state not in ("complete", "failed"):
                time.sleep(POLL_S)
                state = client.status(request.run_id)["state"]
                request.polls += 1
                if state != "queued" and request.queue_wait_s is None:
                    request.queue_wait_s = time.perf_counter() - start
            if state != "complete":
                raise ServiceClientError(500, f"campaign {request.run_id} failed")
            fetched = time.perf_counter()
            request.files = client.results(request.run_id)["files"]
            request.store = client.store(request.run_id)
            request.fetch_s = time.perf_counter() - fetched
        request.ok = True
    except (ServiceClientError, OSError, ValueError, KeyError) as error:
        request.error = f"{type(error).__name__}: {error}"
    request.latency_s = time.perf_counter() - start
    return request


def _span(recorder, name, trace):
    from contextlib import nullcontext

    return nullcontext() if recorder is None else recorder.span(name, trace=trace)


def run_clients(url: str, seed: int, seconds: float,
                recorder=None) -> tuple[list[Request], float]:
    """Run the closed-loop clients until ``seconds`` pass; returns requests and wall."""
    from repro.service import ServiceClient

    requests: list[Request] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def loop(client_id: int) -> None:
        client = ServiceClient(url, timeout=120.0)
        try:
            for kind, index in client_plan(seed, client_id, MAX_STEPS):
                if time.perf_counter() >= deadline:
                    break
                request = one_request(
                    client, content(seed, client_id, index),
                    Request(client_id, kind, index), recorder,
                )
                with lock:
                    requests.append(request)
        except BaseException as error:  # re-raised by the caller after join
            errors.append(error)

    start = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(c,)) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return requests, time.perf_counter() - start


def check_requests(requests: list[Request], executions: int, extra_ids: int = 0) -> None:
    """Hits equal their miss byte for byte; one execution per distinct id."""
    first: dict[str, Request] = {}
    for request in requests:
        if not request.ok:
            continue
        reference = first.setdefault(request.run_id, request)
        if (request.files, request.store) != (reference.files, reference.store):
            raise CheckFailed(f"run {request.run_id}: repeated fetch returned other bytes")
    misses = {r.run_id for r in requests if r.ok and r.kind == "miss"}
    hits = {r.run_id for r in requests if r.ok and r.kind == "hit"}
    if not hits <= misses:
        raise CheckFailed("a repeated submission got an id no earlier submission had")
    distinct = len(misses) + extra_ids
    if executions != distinct:
        raise CheckFailed(f"daemon executed {executions} campaigns for {distinct} distinct ids")


class Daemon:
    """A ``python -m repro serve`` subprocess on a fresh root."""

    def __init__(self, root: Path, src: Path, cache_dir: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        log.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root), "--port", "0",
             "--workers", "1", "--slots", "1"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
        )
        self.url = self._read_url()

    def _read_url(self) -> str:
        found: list[str] = []
        reader = threading.Thread(target=lambda: found.append(self.process.stdout.readline()))
        reader.start()
        reader.join(START_TIMEOUT_S)
        line = found[0] if found else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"daemon did not start (got {line!r})")
        return line.split("serving on ", 1)[1].strip()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


@contextmanager
def in_process_service(root: Path, cache) -> Iterator[tuple[Any, str]]:
    """A ``CampaignService`` + ``serve()`` in this process; yields it and its URL."""
    from repro.scenarios import ScenarioContext
    from repro.service import CampaignService, serve

    service = CampaignService(root, context=ScenarioContext(cache=cache), workers=1, slots=1)
    server = serve(service, port=0)
    pump = threading.Thread(target=server.serve_forever)
    pump.start()
    try:
        yield service, "http://127.0.0.1:%d" % server.server_address[1]
    finally:
        server.shutdown()
        pump.join()
        server.server_close()
        service.close()


def warm_up(url: str, seed: int) -> None:
    """One untimed miss, so the daemon has loaded its bundle before timing."""
    from repro.service import ServiceClient

    request = one_request(ServiceClient(url, timeout=120.0), content(seed, CLIENTS, 0),
                          Request(CLIENTS, "miss", 0))
    if not request.ok:
        raise RuntimeError(f"warm-up submission failed: {request.error}")
