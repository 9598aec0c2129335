"""The ``served`` workload: a ``python -m repro serve`` subprocess (thread
isolation, 2 workers, fsync on) driven over HTTP by one closed-loop
client."""

from __future__ import annotations

import itertools
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple
from urllib.error import URLError
from urllib.request import urlopen

import numpy as np

from common import (
    Problem,
    Sample,
    make_grid,
    peak_rss_mb_pid,
    seed_base,
    sweep_and_check,
)
from tracing import Tracer

__all__ = ["run_served", "jobstore_timings", "CLIENTS"]

#: tiny jobs, so the service path (HTTP + JSON, journal fsyncs, queue,
#: lease, seal, base64 codec) is a large share of each request
SERVED_MIX = (
    Problem("heat1d", (4000,), 16, 4),
    Problem("heat2d", (64, 64), 8, 4),
)
#: one closed-loop client: a second one added no throughput (the server
#: is bound by the interpreter lock) and doubled the run-to-run spread
CLIENTS = 1
WORKERS = 2
#: fixed status-poll interval of every client
POLL_S = 0.01
#: one submission in this many replays a completed job
REPLAY_EVERY = 5
_START_TIMEOUT_S = 60.0
_JOB_TIMEOUT_S = 60.0
_TERMINAL = ("done", "failed", "cancelled")

# input streams of seed_base
_WARMUP_STREAM = 100
_CLIENT_STREAM = 20


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, src_dir: str, store: str):
        self.store = store
        shutil.rmtree(store, ignore_errors=True)
        os.makedirs(store)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                       if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, "-m", "repro", "serve", "--root",
               os.path.join(store, "root"), "--port", "0",
               "--workers", str(WORKERS), "--isolation", "thread"]
        self._log = open(os.path.join(store, "serve.log"), "wb")
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.url = self._await_url()
            self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_url(self) -> str:
        deadline = time.monotonic() + _START_TIMEOUT_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.1)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            for line in buf.decode(errors="replace").splitlines():
                if line.startswith("serving on "):
                    return line.split()[2]
        raise RuntimeError(f"repro serve did not start: {buf[-500:]!r}")

    def _await_health(self) -> None:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                with urlopen(f"{self.url}/healthz", timeout=5) as resp:
                    if resp.status == 200:
                        return
            except (URLError, OSError):
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never reported healthy")

    def stop(self) -> None:
        """SIGTERM (clean drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc.stdout is not None:
            self.proc.communicate()
        self._log.close()
        shutil.rmtree(self.store, ignore_errors=True)


def _job_config(problem: Problem, grid_seed: int) -> Dict:
    return problem.run_config(seed=int(grid_seed)).normalized().to_json()


def _run_job(url: str, problem: Problem, config: Dict, span) -> Tuple:
    """Submit, poll at ``POLL_S`` until terminal, fetch the result.

    Returns ``(response, timings, polls)``; raises on refusal or on a
    job that ends in any state but ``done``.
    """
    from repro.service import job_result, job_status, submit_job

    t0 = time.perf_counter()
    with span("service.submit"):
        sub = submit_job(url, problem.kernel, config)
    t1 = time.perf_counter()
    polls = 0
    state = sub["state"]
    with span("service.wait"):
        deadline = t1 + _JOB_TIMEOUT_S
        while state not in _TERMINAL:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"job {sub['job_id']} still {state}")
            time.sleep(POLL_S)
            state = job_status(url, sub["job_id"])["state"]
            polls += 1
    t2 = time.perf_counter()
    if state != "done":
        raise RuntimeError(f"job {sub['job_id']} ended {state}")
    with span("service.result_fetch"):
        res = job_result(url, sub["job_id"])
    t3 = time.perf_counter()
    return res, (t1 - t0, t2 - t1, t3 - t2, t3 - t0), polls


def _client(c: int, url: str, seed: int, stop_at: float,
            tracer: Optional[Tracer], out: List[Sample],
            lock: threading.Lock):
    from repro import get_stencil

    rng = np.random.default_rng([int(seed), 10 + c])
    grid_seed = seed_base(seed, _CLIENT_STREAM + c)
    specs = {p.kernel: get_stencil(p.kernel) for p in SERVED_MIX}
    completed: List[Tuple[Problem, Dict, int]] = []
    replay_slot = 0
    for i in itertools.count():
        # every config runs at least once, so counts exist at any length
        if i >= len(SERVED_MIX) and time.perf_counter() >= stop_at:
            break
        if i % REPLAY_EVERY == 0:
            replay_slot = int(rng.integers(REPLAY_EVERY))
        replay = i % REPLAY_EVERY == replay_slot and bool(completed)
        if replay:
            problem, config, used_seed = completed[
                int(rng.integers(len(completed)))]
        else:
            problem = SERVED_MIX[(i + c) % len(SERVED_MIX)]
            used_seed = grid_seed
            grid_seed += 1
            config = _job_config(problem, used_seed)
        # trace every other pair of submissions: a pair holds both
        # configs, so traced and untraced requests see the same mix
        traced = tracer is not None and (i // len(SERVED_MIX)) % 2 == 0
        rid = f"c{c}-{i}"
        span = tracer.span if traced else (lambda name: nullcontext())
        sample = Sample(label=problem.label, wall=0.0, traced=traced,
                        request_id=rid,
                        updates=0 if replay else problem.updates)
        sample.extra["replay"] = float(replay)
        try:
            with (tracer.span("request", request=rid) if traced
                  else nullcontext()):
                res, (sub_s, wait_s, fetch_s, wall), polls = _run_job(
                    url, problem, config, span)
            stats = res.get("stats") or {}
            phases = {k: float(v)
                      for k, v in (stats.get("phases") or {}).items()}
            cache = stats.get("cache") or {}
            sched = stats.get("schedule") or {}
            sample.wall = wall
            sample.phases = phases
            sample.cache_hits = int(cache.get("hits", 0))
            sample.cache_misses = int(cache.get("misses", 0))
            sample.extra.update({
                "submit_s": sub_s, "wait_s": wait_s, "fetch_s": fetch_s,
                "polls": float(polls),
                "tasks": float(sched.get("tasks", 0)),
                "groups": float(sched.get("groups", 0)),
            })
        except Exception as exc:  # refusals and failed jobs are data
            sample.ok = False
            sample.error = f"{type(exc).__name__}: {exc}"
        if sample.ok:
            # checked between this client's requests, outside its timed
            # region, so the sweeps sample the same host state as the
            # requests they are compared with
            spec = specs[problem.kernel]
            snap = make_grid(spec, problem.shape, used_seed)
            sweep, same = sweep_and_check(spec, snap, problem.steps,
                                          res["interior"])
            if not replay:
                sample.sweep = sweep
                completed.append((problem, config, used_seed))
            if not same:
                sample.ok = False
                sample.error = "output differs from reference_sweep"
        with lock:
            out.append(sample)


def _warm_up(url: str, seed: int, repeat: int) -> None:
    base = seed_base(seed, _WARMUP_STREAM + repeat)
    for i, p in enumerate(SERVED_MIX):
        _run_job(url, p, _job_config(p, base + i),
                 lambda name: nullcontext())


def _store_metrics(url: str) -> Dict[str, float]:
    from repro.service import server_metrics

    return dict(server_metrics(url).get("store", {}))


def run_served(seed: int, seconds: float, tracer: Optional[Tracer],
               src_dir: str, work_dir: str, setup_repeats: int):
    """Run the served workload.

    Returns ``(samples, setup seconds, counts, extra)`` where ``extra``
    holds the server's peak RSS and journal deltas.
    """
    setups: List[float] = []
    server = None
    try:
        for r in range(setup_repeats):
            if server is not None:
                server.stop()
                server = None
            t0 = time.perf_counter()
            server = Server(src_dir, os.path.join(
                work_dir, f"serve-{os.getpid()}-{r}"))
            _warm_up(server.url, seed, r)
            setups.append(time.perf_counter() - t0)

        before = _store_metrics(server.url)
        samples: List[Sample] = []
        lock = threading.Lock()
        start = time.perf_counter()
        threads = [threading.Thread(
            target=_client,
            args=(c, server.url, seed, start + seconds, tracer, samples,
                  lock))
            for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        after = _store_metrics(server.url)
        rss = peak_rss_mb_pid(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    fresh = [s for s in samples if s.ok and not s.extra["replay"]]
    n_fresh = max(1, len(fresh))
    counts: Dict[str, float] = {
        "service.http_requests_per_job": 2.0,
        "service.journal_records_per_job":
            (after.get("journal_records", 0)
             - before.get("journal_records", 0)) / n_fresh,
    }
    first = {}
    for s in fresh:
        first.setdefault(s.label, s)
    counts["core.tasks"] = sum(s.extra["tasks"] for s in first.values())
    counts["core.groups"] = sum(s.extra["groups"] for s in first.values())
    counts["work.cell_updates"] = sum(s.updates for s in first.values())
    extra = {
        "elapsed": elapsed,
        "peak_rss_mb": rss,
        "journal_bytes_per_job": (after.get("journal_bytes", 0)
                                  - before.get("journal_bytes", 0))
        / n_fresh,
        "dedup_hits": after.get("dedup_hits", 0)
        - before.get("dedup_hits", 0),
    }
    return samples, setups, counts, extra


def jobstore_timings(work_dir: str, seed: int, jobs: int = 20
                     ) -> Dict[str, float]:
    """Mean seconds of direct ``JobStore`` calls on a scratch store,
    fsync on like the server's: ``submit``, ``record_result`` and
    ``load_result``."""
    from repro.service.jobstore import ADMITTED, RUNNING, JobStore

    root = os.path.join(work_dir, f"jobstore-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    rng = np.random.default_rng([int(seed), 30])
    problem = SERVED_MIX[1]
    base = seed_base(seed, 31)
    times = {"submit": [], "record_result": [], "load_result": []}
    store = JobStore(root, fsync=True)
    try:
        for i in range(jobs):
            config = _job_config(problem, base + i)
            interior = rng.random(problem.shape)
            t0 = time.perf_counter()
            job, _ = store.submit(problem.kernel, config)
            times["submit"].append(time.perf_counter() - t0)
            store.transition(job.job_id, ADMITTED)
            store.transition(job.job_id, RUNNING)
            t0 = time.perf_counter()
            store.record_result(job.job_id, interior, {"phases": {}})
            times["record_result"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            arr, _ = store.load_result(job.job_id)
            times["load_result"].append(time.perf_counter() - t0)
            if arr.tobytes() != interior.tobytes():
                raise RuntimeError("JobStore returned a different result")
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)
    return {k: float(np.mean(v)) for k, v in times.items()}
