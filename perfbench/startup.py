"""Set-up time: from process start until the first request can be served.

The parent side starts a fresh interpreter (or the ``repro-sched serve``
service) and times it until it reports being ready; the child side
(``python3 -m perfbench.startup MODE CACHE_DIR``) imports the library,
serves one tiny request the way the workload will, and prints ``ready``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import List

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 7
#: How long a child may take to become ready before the run fails.
READY_TIMEOUT = 60.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def _probe_once(root: str, mode: str, cache_dir: str) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.startup", mode, cache_dir],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe {mode!r} failed: {line!r}")
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=READY_TIMEOUT) != 0:
            raise RuntimeError(f"set-up probe {mode!r} exited with {proc.returncode}")
    return elapsed


def library_setup_s(ctx, mode: str) -> float:
    """Median set-up time of a fresh library process in ``mode``."""
    return statistics.median(
        _probe_once(ctx.root, mode, ctx.work.fresh("setup"))
        for _ in range(SETUP_REPEATS)
    )


class Wedged(RuntimeError):
    """The service stopped answering: a job never finished."""


class Server:
    """A ``repro-sched serve`` child process on an ephemeral port."""

    def __init__(self, root: str, cache_dir: str, workers: int) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--backend", "process",
                "--cache-dir", cache_dir,
                "serve",
                "--workers", str(workers),
                "--port", "0",
                "--db", os.path.join(cache_dir, "jobs.db"),
            ],
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=10) as response:
            return json.loads(response.read().decode("utf-8"))

    def wait_healthy(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            try:
                if self.get("/healthz").get("status") == "ok":
                    return
            except (urllib.error.URLError, OSError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.005)

    def wait_drained(self, timeout: float) -> bool:
        """Poll ``/healthz`` until no job is queued or running."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.get("/healthz")["pending"] == 0:
                return True
            time.sleep(0.005)
        return False

    def stop(self) -> None:
        """Graceful drain (SIGTERM), escalating to a kill of the whole tree.

        A worker stuck on a lock never reads its pipe again, so it would
        outlive its server: every descendant still alive after the drain
        is killed, and the call returns only when all of them are gone.
        """
        from .common import descendants  # not at import: the child side stays lean

        tree = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        for pid in tree:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        deadline = time.perf_counter() + 10
        while any(os.path.exists(f"/proc/{pid}") for pid in tree):
            if time.perf_counter() > deadline:
                break
            time.sleep(0.01)


def start_server(ctx, first_job, verify=None) -> "tuple[Server, float]":
    """Start a server with a fresh cache; it is set up once ``first_job`` is served.

    ``first_job`` and ``verify`` raise :class:`Wedged` when the server
    stops answering; the server is then stopped and the error re-raised.
    """
    server = Server(ctx.root, ctx.work.fresh("service"), ctx.workers)
    try:
        server.wait_healthy()
        first_job(server)
        elapsed = time.perf_counter() - server.started
        if verify is not None:
            verify(server)
    except BaseException:
        server.stop()
        raise
    return server, elapsed


def start_verified_server(
    ctx, first_job, verify, on_wedge, attempts: int = SETUP_REPEATS
) -> "tuple[Server, float]":
    """:func:`start_server`, retried when a server wedges (each wedge is reported)."""
    for _attempt in range(attempts):
        try:
            return start_server(ctx, first_job, verify)
        except Wedged as exc:
            on_wedge(str(exc))
    raise Wedged(f"all {attempts} service starts wedged")


def service_setup_s(ctx, first_job, verify, on_wedge) -> "tuple[Server, float]":
    """Median set-up time of the service; the last server started is kept."""
    times: List[float] = []
    for _attempt in range(SETUP_REPEATS - 1):
        try:
            server, elapsed = start_server(ctx, first_job)
        except Wedged as exc:
            on_wedge(str(exc))
            continue
        server.stop()
        times.append(elapsed)
    server, elapsed = start_verified_server(ctx, first_job, verify, on_wedge)
    return server, statistics.median(times + [elapsed])


# ---------------------------------------------------------------------------
# the child side
# ---------------------------------------------------------------------------
def _serve_one(mode: str, cache_dir: str) -> None:
    from repro.api import MultiprocessorInstance, Problem, solve
    from repro.runtime import configure_disk_cache, solve_stream

    configure_disk_cache(cache_dir)
    instance = MultiprocessorInstance.from_pairs([(0, 2), (1, 3), (1, 4), (6, 7)], 2)
    problem = Problem(objective="gaps", instance=instance)
    if mode == "exact":
        results = [solve(problem)]
    elif mode == "stream":
        other = Problem(objective="power", instance=instance, alpha=2.0)
        workers = len(os.sched_getaffinity(0))
        results = list(solve_stream([problem, other], backend="process", workers=workers))
    elif mode == "budget":
        results = [solve(Problem(objective="gaps", instance=instance.single_processor_view()), budget=0.25)]
    else:
        raise SystemExit(f"unknown set-up mode {mode!r}")
    if not all(result.feasible for result in results):
        raise SystemExit(f"set-up request failed: {results}")


if __name__ == "__main__":
    _serve_one(sys.argv[1], sys.argv[2])
    print("ready", flush=True)
