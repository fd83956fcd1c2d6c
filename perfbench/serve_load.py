"""One serve_mixed round: a fresh ``repro-serve`` process driven by a
closed loop of keep-alive clients.

The daemon runs with its default settings and a fresh on-disk cache
inside the benchmark's scratch directory.  Each client sends its next
request only after the previous answer arrived.  Client-observed
latency runs from writing the request to reading the whole answer.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any

DAEMON = "import sys; from repro.cli import serve_main; sys.exit(serve_main())"
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
LOOP_TIMEOUT_S = 150.0
DRAIN_TIMEOUT_S = 30.0


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _wait_ready(proc: subprocess.Popen, out_path: str) -> int:
    """The daemon's port once ``/readyz`` answered 200."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    port = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"repro-serve exited with {proc.returncode} during start")
        if port is None:
            with open(out_path) as fh:
                for line in fh:
                    if "listening on" in line:
                        port = int(line.rsplit(":", 1)[1])
        if port is not None:
            try:
                if _get(port, "/readyz")[0] == 200:
                    return port
            except OSError:
                pass
        time.sleep(0.002)
    raise RuntimeError("repro-serve not ready in time")


def _client(port: int, requests: list[dict[str, Any]], out: list) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        for req in requests:
            raw = json.dumps(req["body"]).encode()
            t0 = time.perf_counter()
            conn.request("POST", "/v1/analyze", body=raw,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = json.loads(resp.read())
            b = req["body"]
            out.append({
                "seconds": time.perf_counter() - t0, "status": resp.status,
                "key": (b["assembly"], b["arch"], b["backend"]),
                "value": body.get("cycles_per_iteration"), "cached": body.get("cached"),
                "expect_cached": req["expect_cached"],
            })
    finally:
        conn.close()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def serve_round(plan: list[list[dict[str, Any]]], src: str, scratch: str) -> dict[str, Any]:
    """Start a daemon, run every client's requests, drain the daemon."""
    os.makedirs(scratch)
    out_path = os.path.join(scratch, "daemon.out")
    env = dict(os.environ, PYTHONPATH=src)
    with open(out_path, "w") as out_fh, open(os.path.join(scratch, "daemon.err"), "w") as err_fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", DAEMON, "--port", "0",
             "--cache", os.path.join(scratch, "cache")],
            env=env, stdout=out_fh, stderr=err_fh, start_new_session=True,
        )
    try:
        port = _wait_ready(proc, out_path)
        setup_s = time.monotonic() - spawned

        results: list[list] = [[] for _ in plan]
        errors: list[BaseException] = []

        def run(i):
            try:
                _client(port, plan[i], results[i])
            except BaseException as exc:  # reported below; the round fails
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(plan))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(max(0.0, LOOP_TIMEOUT_S - (time.perf_counter() - t0)))
        loop_s = time.perf_counter() - t0
        if errors or any(t.is_alive() for t in threads):
            raise RuntimeError(f"client failed: {errors[:1] or 'timeout'}")

        stats = json.loads(_get(port, "/stats")[1])
        rss_mb = _peak_rss_mb(proc.pid)
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(DRAIN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:  # any pool worker the daemon left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    answers = [r for rs in results for r in rs]
    return {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "answers": answers,
        "stats": stats,
        "peak_rss_mb": rss_mb,
        "exit_code": rc,
    }
