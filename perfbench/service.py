"""The service side of the benchmark: a ``repro serve`` process and one
closed-loop client sending ECO resubmits of one design under one key.

The server runs in its own process with the default ``ServiceConfig``
(only the port is chosen free).  The client sends its next request only
after the previous answer arrived; each answer is checked with the
independent checker before the next request goes out, outside the
request's clock.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from checker import Layout, check_placement, displacement
from inputs import ROUND, eco_edit

HERE = os.path.dirname(os.path.abspath(__file__))
KEY = "eco"
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_SUMMARY_DISP = re.compile(r"disp=([0-9.]+) sites")


class ServerProcess:
    """One ``repro serve`` process (``traced_server.py`` when a dump file
    is given), started on a free port."""

    def __init__(self, env: Dict[str, str], log_path: str,
                 dump: Optional[str] = None) -> None:
        if dump is None:
            self.cmd = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            self.cmd = [sys.executable, os.path.join(HERE, "traced_server.py"),
                        "--dump", dump]
        self.cmd += ["--port", "0"]
        self.env = env
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.client = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; return the seconds from spawn until
        ``/healthz`` answers."""
        from repro.service import ServiceClient

        start = time.perf_counter()
        with open(self.log_path, "a") as log:
            self.proc = subprocess.Popen(
                self.cmd, env=self.env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        port = self._read_port(start + timeout)
        self.client = ServiceClient("127.0.0.1", port)
        while True:
            try:
                self.client.healthz()
                return time.perf_counter() - start
            except OSError:
                if time.perf_counter() > start + timeout:
                    raise
                time.sleep(0.005)

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            wait = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(wait, 0))
            if not ready:
                raise TimeoutError("server did not announce its port")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before listening"
                )
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, timeout: float = 60.0) -> None:
        """Ask for a graceful drain and wait for the process to end; a
        server that never got ready is killed."""
        if self.proc is None:
            return
        try:
            if self.client is None:
                self.proc.kill()
            elif self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=timeout)
        except Exception:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()


@dataclass
class Request:
    index: int
    latency: float
    problems: List[str] = field(default_factory=list)
    cache: str = ""
    iterations: int = 0
    #: The server's own time for the legalization (its stage spans).
    runtime: float = 0.0
    displacement_sites: float = 0.0
    max_displacement_sites: float = 0.0


def send(client, design, layout: Layout, index: int) -> Request:
    """Send the design as it stands, time the answer, and check it."""
    start = time.perf_counter()
    try:
        response = client.legalize(design, key=KEY)
    except Exception as exc:  # noqa: BLE001 - counted as a failed request
        return Request(index, time.perf_counter() - start,
                       [f"{type(exc).__name__}: {exc}"])
    req = Request(index, time.perf_counter() - start,
                  cache=response.cache, iterations=response.iterations,
                  runtime=response.runtime_seconds)
    problems = req.problems
    if not response.ok:
        problems.append(f"request failed: {response.error}")
        return req
    if not response.audit_clean:
        problems.append("program audit reports an illegal placement")
    names = [p["name"] for p in response.positions]
    if names != layout.names:
        problems.append("response positions do not list the design's cells")
        return req
    x = [p["x"] for p in response.positions]
    y = [p["y"] for p in response.positions]
    problems.extend(check_placement(layout, x, y))
    total, worst = displacement(layout, x, y)
    match = _SUMMARY_DISP.search(response.summary)
    # The summary rounds the total to whole sites.
    if match is None or abs(float(match.group(1)) - total) > 0.5 + 1e-6:
        problems.append(
            f"summary {response.summary!r} disagrees with the recomputed "
            f"displacement {total:.3f}"
        )
    req.displacement_sites = total
    req.max_displacement_sites = worst
    return req


def eco_session(client, design, layout: Layout, seed: int,
                min_rounds: int, seconds: float,
                before_send: Optional[Callable[[int], None]] = None,
                ) -> List[Request]:
    """Closed-loop ECO resubmits in whole rounds of ``ROUND`` requests,
    for at least *min_rounds* rounds and *seconds* seconds.  Request i
    applies edit i of the seed's stream to the GP of *layout*, which
    *design* holds between requests;
    ``before_send(i)`` runs before it is sent."""
    requests: List[Request] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_rounds * ROUND or time.perf_counter() < deadline:
        for _ in range(ROUND):
            cells, new_x = eco_edit(seed, index, layout)
            gp_x = layout.gp_x.copy()
            gp_x[cells] = new_x
            for i in cells:
                design.cells[i].gp_x = float(gp_x[i])
            if before_send is not None:
                before_send(index)
            requests.append(send(client, design, layout.with_gp(gp_x), index))
            for i in cells:
                design.cells[i].gp_x = float(layout.gp_x[i])
            index += 1
    return requests


def metrics_counters(client) -> Dict[str, float]:
    """The counters and gauges of ``/metrics`` by Prometheus name."""
    values = {}
    for line in client.metrics_text().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values
