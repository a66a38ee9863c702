#!/usr/bin/env python3
"""CrowdWeb's end-to-end benchmark: cold build, then hot or churning serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 20230701 --seconds 12 --trace 0

Each set-up of a run generates a ``bench`` city
(``SynthConfig(n_users=300, n_venues=2500)``), the first from ``--seed``
and the others from seeds drawn from it, and writes it with
``write_foursquare_tsv``.  It then cold-starts ``perfbench/server.py``,
which builds and serves that file on a loopback port.  The timed cold
start is ``read_foursquare_tsv -> run_pipeline -> CrowdWebApp -> warm()
-> first tile``.  Then one keep-alive client drives a closed loop:

``serve_hot``
    over keys that all stay in the response cache;
``serve_churn``
    over a long-tail key space, refreshing the cache after a fixed number
    of reads, so most reads render.

``--trace 0`` reports the end-to-end metrics, with every time scaled to
a reference host speed that is probed on the same CPU meanwhile (see
``hostspeed``); ``--trace 1`` is a separate run with ``repro.obs`` on that
reports the per-layer metrics as measured.  Outputs are
checked on every run.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host.  Exits non-zero, printing no result, when the source
tree is missing or a run cannot complete.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import checks
import client
import hostspeed
import schedules

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 20230701
#: Set-ups per untraced run, each on its own city (see ``city_seed``).
SETUP_REPEATS = 3
#: Requests in the one-connection replay that isolates ``http.server``.
OVERHEAD_REPLAY = 2000
#: Refresh-and-render rounds of the render probe.
RENDER_ROUNDS = 3
#: A whole run must finish well inside the 180 s the harness allows.
RUN_BUDGET_S = 165.0
#: Seconds a server may take from launch to ``READY``.
READY_TIMEOUT_S = 60.0
#: Seconds between two host-speed probes while a server builds.
BUILD_PROBE_S = 0.1
#: Seconds of load between two host-speed probes.
LOAD_WINDOW_S = 0.25
#: Requests a block of windows holds at least for its own p99, so that at
#: least 20 lie beyond it (see ``Load.p99``).
P99_BLOCK = 2000


class Plan(NamedTuple):
    """A load's request schedule and what its responses must match.

    The load runs on one connection: two connections on two cores put
    client and server threads into GIL convoys, so throughput drops and
    p99 swings 3x between runs.
    """

    schedule: List[client.Request]
    #: Body length per (route, gzip-encoded); None learns them on first sight.
    lengths: Optional[Dict[Tuple[str, bool], int]]
    #: The hot keys' ETags, which must not move while no refresh is sent.
    etags: Optional[Dict[str, str]]


class Load(NamedTuple):
    """A measured load, its times scaled to the reference host speed."""

    attempted: int
    failed: int
    #: Seconds of load at the reference speed (``hostspeed``).
    ref_s: float
    #: Per-request latencies in seconds at the reference speed, by window.
    windows: List[List[float]]
    wire_bytes: int
    #: The server's CPU seconds, as measured.
    cpu_s: float
    #: Wall seconds, as measured.
    wall_s: float

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def metrics(self) -> Dict[str, float]:
        return {
            "rps": self.completed / self.ref_s,
            "p50_ms": statistics.median(itertools.chain(*self.windows)) * 1e3,
            "p99_ms": self.p99() * 1e3,
            "wire_bytes_per_req": self.wire_bytes / max(1, self.completed),
        }

    def p99(self) -> float:
        """The median p99 of consecutive blocks of windows of ``P99_BLOCK`` requests or more.

        The host's hiccups come in bursts, and one burst puts a few hundred
        extra requests past the pooled p99 of a whole run.  Over five
        ``serve_hot`` runs the pooled p99 spread by 0.15 (quartile
        distance over median), the median over blocks by 0.07 to 0.10; on
        ``serve_churn`` the two agree.
        """
        blocks, block = [], []
        for latencies in self.windows:
            block += latencies
            if len(block) >= P99_BLOCK:
                blocks.append(_quantile(block, 0.99))
                block = []
        return statistics.median(blocks or [_quantile(block, 0.99)])


def _pool(loads: List[Load]) -> Load:
    """Several loads as one."""
    return Load(
        attempted=sum(load.attempted for load in loads),
        failed=sum(load.failed for load in loads),
        ref_s=sum(load.ref_s for load in loads),
        windows=[window for load in loads for window in load.windows],
        wire_bytes=sum(load.wire_bytes for load in loads),
        cpu_s=sum(load.cpu_s for load in loads),
        wall_s=sum(load.wall_s for load in loads),
    )


class BenchError(Exception):
    """The run cannot produce a result."""


def _load_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}: run from the root of a full checkout")
    sys.path.insert(0, str(SRC))


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------- setup


def city_seed(seed: int, k: int) -> int:
    """The seed of a run's ``k``-th city: ``seed`` itself, then ones drawn from it.

    The amount of data varies with the seed (59.5k to 72.6k check-ins over
    five seeds, and ``build_s`` with it), so a run averages its figures over
    several cities instead of betting them on one.
    """
    return seed if k == 0 else random.Random(f"{seed}/{k}").randrange(2 ** 31)


def _child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def make_city(seed: int, tsv: Path, timeout: float) -> Tuple[Dict, float]:
    """Generate a city and write it to ``tsv`` in ``perfbench/city.py``.

    The child runs on the server's CPU, whose speed is probed every
    ``BUILD_PROBE_S`` meanwhile.  Returns the child's timings and its wall
    time at the reference speed.
    """
    _client_cpus, cpus = _cpu_split()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "city.py"), "--seed", str(seed),
                             "--tsv", str(tsv)], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        if cpus:
            _pin(proc.pid, cpus)
        speeds = []
        while True:
            speeds.append(hostspeed.probe(cpus))
            try:
                proc.wait(timeout=BUILD_PROBE_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - start > timeout:
                    raise BenchError("city generation did not finish in time") from None
        wall = time.perf_counter() - start
        out = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"city generation failed with code {proc.returncode}")
    timings = json.loads(out)
    _log(f"city {seed}: {timings['checkins']} check-ins")
    return timings, wall * statistics.fmean(speeds) / hostspeed.REFERENCE


# -------------------------------------------------------------- server child


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _cpu_split():
    """(client CPUs, server CPUs): one CPU each, when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


#: A do-nothing loop at SCHED_IDLE priority.  A vCPU with nothing to run
#: halts, and the hypervisor then takes a variable while to wake it for
#: the next request; on a busy host that wake-up, not the server, set
#: serve_hot's p99 (0.5 ms instead of 0.25 ms).  Any runnable task
#: preempts a SCHED_IDLE one at once, so the loop only keeps the CPU awake.
_KEEP_AWAKE = ("import os\n"
               "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
               "while True:\n"
               "    pass\n")


@contextmanager
def _keep_awake(cpus):
    """Keep ``cpus`` from idling for the duration of a measured load."""
    if not cpus:
        yield
        return
    keeper = subprocess.Popen([sys.executable, "-c", _KEEP_AWAKE])
    try:
        os.sched_setaffinity(keeper.pid, cpus)
        yield
    finally:
        keeper.kill()
        keeper.wait()


def _pin(pid: int, cpus) -> None:
    """Pin every thread of a process; threads it starts later inherit."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return  # the process ended; its caller finds out on reading from it
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("VmHWM missing from /proc status")


class ServerChild:
    """``perfbench/server.py`` in a child process, always reaped on exit."""

    def __init__(self, tsv: Path, traced: bool) -> None:
        env = _child_env()
        command = [sys.executable, str(HERE / "server.py"), "--tsv", str(tsv)]
        if traced:
            command.append("--traced")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True, bufsize=1,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.client_cpus, self.cpus = _cpu_split()
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = 0
        self.ready: Dict = {}
        #: The child's peak resident memory up to READY: the timed path's.
        self.ready_peak_rss_mb = 0.0
        #: Mean host speed (``hostspeed.probe``) on the child's CPU while it built.
        self.build_speed = 0.0

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _expect(self, tag: str, timeout: float, tick=None):
        """The child's next line, which must be ``tag``; calls ``tick`` while waiting."""
        deadline = time.perf_counter() + timeout
        step = BUILD_PROBE_S if tick else timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.01, min(step, deadline - time.perf_counter())))
                break
            except queue.Empty:
                if tick is None or time.perf_counter() >= deadline:
                    raise BenchError(f"server sent no {tag} within {timeout:.0f} s") from None
                tick()
        if line is None:
            raise BenchError(f"server exited (code {self.proc.wait()}) before {tag}")
        got, _, payload = line.partition(" ")
        if got != tag:
            raise BenchError(f"server said {line!r}, expected {tag}")
        return json.loads(payload)

    def wait_ready(self, timeout: float) -> Dict:
        """Port, then readiness polled through the 503 window, then READY.

        Meanwhile the host speed on the child's CPU is probed every
        ``BUILD_PROBE_S``; each probe preempts the build for about 2 ms.
        """
        deadline = time.perf_counter() + timeout
        if self.cpus:
            # The build runs on the CPU whose speed is probed.
            _pin(self.proc.pid, self.cpus)
        speeds = []
        self.port = self._expect("PORT", timeout)
        while True:
            if time.perf_counter() > deadline:
                raise BenchError("server did not become ready in time")
            speeds.append(hostspeed.probe(self.cpus))
            try:
                response = client.get(self.port, "/api/cache")
            except (OSError, client.HttpError):
                time.sleep(BUILD_PROBE_S)
                continue
            if response.status == 200:
                break
            if response.status != 503:
                raise BenchError(f"server build failed: {response.body[:200]!r}")
            time.sleep(min(BUILD_PROBE_S, float(response.headers.get("retry-after", "1"))))
        self.ready = self._expect("READY", deadline - time.perf_counter(),
                                  tick=lambda: speeds.append(hostspeed.probe(self.cpus)))
        self.ready_peak_rss_mb = _proc_peak_rss_mb(self.proc.pid)
        self.build_speed = statistics.fmean(speeds)
        return self.ready

    def command(self, message: Dict, timeout: float = 60.0):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        reply = self._expect("RESULT", timeout)
        if "error" in reply:
            raise BenchError(f"server command {message['cmd']} failed: {reply['error']}")
        return reply["ok"]

    @contextmanager
    def under_load(self):
        """Pin the calling thread to the client's CPU and keep the server's awake."""
        saved = os.sched_getaffinity(0)
        if self.client_cpus:
            os.sched_setaffinity(0, self.client_cpus)  # this thread only
        try:
            with _keep_awake(self.cpus):
                yield
        finally:
            os.sched_setaffinity(0, saved)

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def close(self) -> None:
        """Ask the child to stop, then terminate or kill it; always reaps it."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self.proc.stdin.flush()
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self._reader.join(timeout=5)
            self.proc.stdout.close()


# ------------------------------------------------------------------- helpers


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """One benchmark invocation: its arguments, children and findings."""

    def __init__(self, args, stack: ExitStack) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.stack = stack
        self.started = time.perf_counter()
        self.tsv = WORK / f"checkins-{os.getpid()}.tsv"
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.checked_build = False

    def remaining(self) -> float:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def start_server(self, traced: bool) -> ServerChild:
        child = ServerChild(self.tsv, traced)
        self.stack.callback(child.close)
        try:
            child.wait_ready(min(READY_TIMEOUT_S, self.remaining()))
        except BaseException:
            child.close()
            raise
        return child

    # ------------------------------------------------------------- serving

    @staticmethod
    def key_space(port: int):
        """(crowd per window, patterns per user) of the served city."""
        with client.Connection(port) as conn:
            crowd = conn.request(client.Request("GET", "/api/crowd"))
            users = conn.request(client.Request("GET", "/api/users"))
        rows = sorted(json.loads(users.body)["users"], key=lambda row: row["user_id"])
        return ([w["n_users"] for w in json.loads(crowd.body)["windows"]],
                {row["user_id"]: row["n_patterns"] for row in rows})

    def hot_setup(self, port: int, seed: int) -> Plan:
        """The hot key set, verified and left cached, and its schedule."""
        crowd, users = self.key_space(port)
        keys = schedules.hot_keys(len(crowd), list(users))
        problems, etags, lengths = checks.verify_keys(port, keys)
        self.problems += problems
        return Plan(schedules.hot_schedule(keys, seed), lengths, etags)

    def churn_setup(self, port: int, seed: int) -> Plan:
        """The churn key space, its ETag behaviour checked, and its schedule."""
        crowd, users = self.key_space(port)
        families = schedules.churn_families(len(crowd), list(users))
        sample = [keys[i] for keys in families.values() for i in (0, len(keys) // 2)]
        self.problems += checks.refresh_changes_etags(port, sample
                                                      + list(schedules.CHURN_SINGLES))
        return Plan(schedules.churn_schedule(families, seed), None, None)

    def load(self, child: ServerChild, plan: Plan, seconds: float) -> Load:
        """``seconds`` of closed-loop load, in windows between host-speed probes.

        A request's time is spent on both CPUs: on the server's for the
        share of the load the server was busy (its CPU time over the wall
        time), on the client's for the rest.  Each window's host speed is
        that mix of the two CPUs' speeds, averaged over the probes before
        and after it.
        """
        windows = []
        with child.under_load(), client.ClosedLoop(child.port, plan.schedule,
                                                   plan.lengths) as loop:
            cpu0 = child.cpu_s()
            before = (hostspeed.probe(child.cpus), hostspeed.probe(child.client_cpus))
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                result = loop.window(min(LOAD_WINDOW_S, end - time.perf_counter()))
                after = (hostspeed.probe(child.cpus), hostspeed.probe(child.client_cpus))
                windows.append((result, [(a + b) / 2 for a, b in zip(before, after)]))
                before = after
            cpu = child.cpu_s() - cpu0
        wall = sum(result.wall_s for result, _speeds in windows)
        busy = min(1.0, cpu / wall)
        ref_s, scaled = 0.0, []
        for result, (server, client_) in windows:
            scale = (busy * server + (1 - busy) * client_) / hostspeed.REFERENCE
            ref_s += result.wall_s * scale
            scaled.append([latency * scale for latency in result.latencies])
            self.problems += result.mismatches
        return Load(
            attempted=sum(result.attempted for result, _speeds in windows),
            failed=sum(result.failed for result, _speeds in windows),
            ref_s=ref_s, windows=scaled,
            wire_bytes=sum(result.wire_bytes for result, _speeds in windows),
            cpu_s=cpu, wall_s=wall,
        )

    # --------------------------------------------------------------- layers

    def serving_layers(self, child: ServerChild, plan: Plan, seconds: float,
                       layers: Dict[str, float]) -> None:
        """Untraced and traced load windows, alternated to cancel drift.

        The untraced halves give CPU per request; the traced halves give
        the ``repro_web_*`` counters; their throughput ratio is the cost of
        tracing.
        """
        plains, traceds = [], []
        totals: Dict[str, float] = {}
        for _ in range(2):
            child.command({"cmd": "obs", "on": False})
            plains.append(self.load(child, plan, seconds / 4))
            child.command({"cmd": "obs", "on": True})
            traceds.append(self.load(child, plan, seconds / 4))
            counters = json.loads(client.get(child.port, "/metrics").body)["counters"]
            child.command({"cmd": "obs", "on": False})
            for name, series in counters.items():
                for label, value in series.items():
                    if label not in ("/api/refresh", "/metrics"):
                        totals[name] = totals.get(name, 0.0) + value
        plain, traced = _pool(plains), _pool(traceds)
        for result in (plain, traced):
            self.attempted += result.attempted
            self.failed += result.failed

        requests = max(1.0, totals.get("repro_web_requests_total", 0.0))
        layers["web.server.cpu_us_per_req"] = plain.cpu_s / max(1, plain.completed) * 1e6
        layers["web.cache.hit_ratio"] = 1.0 - totals.get("repro_web_renders_total", 0.0) / requests
        layers["web.not_modified_share"] = (
            totals.get("repro_web_not_modified_total", 0.0) / requests)
        layers["web.gzip_share"] = totals.get("repro_web_gzip_responses_total", 0.0) / requests
        layers["obs.overhead_ratio"] = traced.metrics()["rps"] / plain.metrics()["rps"]

    def probes(self, child: ServerChild, layers: Dict[str, float]) -> None:
        """``http.server`` overhead on a hot replay, then refresh and renders."""
        plan = self.hot_setup(child.port, self.seed)
        replay = plan.schedule[:OVERHEAD_REPLAY]
        with child.under_load(), client.ClosedLoop(child.port, replay, plan.lengths) as loop:
            replayed = loop.window(self.remaining(), once=True)
        self.problems += replayed.mismatches
        self.attempted += replayed.attempted
        self.failed += replayed.failed
        handled = child.command({"cmd": "handle",
                                 "requests": [[r.path, r.headers()] for r in replay]})
        layers["web.app.handle_us"] = handled["p50_us"]
        layers["web.http_overhead_us"] = (statistics.median(replayed.latencies) * 1e6
                                          - handled["p50_us"])

        crowd, users = self.key_space(child.port)
        uid = next((uid for uid, n in users.items() if n > 0), next(iter(users)))
        busiest = max(range(len(crowd)), key=crowd.__getitem__)
        renders = child.command({"cmd": "probe", "rounds": RENDER_ROUNDS, "paths": {
            "tile": f"/api/tiles/3/3/3?window={busiest}",
            "user_page": f"/user/{uid}",
            "user_metrics": f"/api/metrics/{uid}",
            "occupancy": "/api/occupancy",
            "communities": "/api/communities",
            "stats": "/api/stats",
        }})
        layers["web.refresh_ms"] = renders.pop("refresh")
        for name, ms in renders.items():
            layers[f"web.render.{name}_ms"] = ms

    def build_layers(self, ready: Dict, layers: Dict[str, float]) -> None:
        """Per-stage rows of a traced cold start, and what they miss."""
        for name, value in ready["rows"].items():
            if name == "web.first_tile_s":
                layers["web.first_tile_ms"] = value * 1e3
            else:
                layers[name] = value
        layers.update(ready["counts"])
        layers["web.warm_entries"] = ready["warm_entries"]
        covered = sum(ready["rows"].values())
        layers["build.unaccounted_s"] = ready["build_s"] - covered
        layers["build.coverage"] = covered / ready["build_s"]
        if layers["build.coverage"] < 0.95:
            self.problems.append(f"build rows cover {layers['build.coverage']:.1%} "
                                 "of build_s, under 95%")

    # ------------------------------------------------------------ workloads

    def plan(self, port: int, seed: int) -> Plan:
        setup = self.hot_setup if self.workload == "serve_hot" else self.churn_setup
        return setup(port, seed)

    def cold_start(self, traced: bool):
        """Cold-start a server on the run's current TSV; returns its time and the child.

        The first cold start of a run also checks what the server built.
        """
        start = time.perf_counter()
        child = self.start_server(traced)
        took = time.perf_counter() - start
        if not self.checked_build:
            self.checked_build = True
            self.problems += checks.build_checks(child.port, self.tsv)
        return took, child

    def run_untraced(self) -> None:
        """Set-ups on cities of their own, each followed by its share of the load.

        A set-up is the city's generation and TSV write plus one cold
        start; ``setup_s`` is the median set-up.  ``build_s`` is the mean
        of the cold starts' timed paths, and the serving metrics pool all
        the load windows.  All times are at the reference host speed (see
        ``hostspeed``).
        """
        setup_s, builds, raw_builds, rss, loads = [], [], [], [], []
        for k in range(SETUP_REPEATS):
            seed = city_seed(self.seed, k)
            _timings, city_s = make_city(seed, self.tsv, self.remaining())
            took, child = self.cold_start(traced=False)
            scale = child.build_speed / hostspeed.REFERENCE
            setup_s.append(city_s + took * scale)
            raw_builds.append(child.ready["build_s"])
            builds.append(child.ready["build_s"] * scale)
            _log(f"city {seed}: build_s {child.ready['build_s']:.3f} as measured, "
                 f"{builds[-1]:.3f} at the reference speed")
            rss.append(child.ready_peak_rss_mb)
            plan = self.plan(child.port, seed)
            loads.append(self.load(child, plan, self.seconds / SETUP_REPEATS))
            if self.workload == "serve_hot":
                self.problems += checks.etags_unchanged(child.port, plan.etags)
            child.close()
        load = _pool(loads)
        self.attempted += load.attempted
        self.failed += load.failed
        self.metrics = dict(
            load.metrics(),
            setup_s=statistics.median(setup_s),
            build_s=statistics.fmean(builds),
            peak_rss_mb=statistics.fmean(rss),
        )
        _log(f"as measured: build_s {statistics.fmean(raw_builds):.3f}, "
             f"rps {load.completed / load.wall_s:.1f}, host speed "
             f"{load.ref_s / load.wall_s * hostspeed.REFERENCE:.0f} loops/s under load")

    def run_traced(self) -> None:
        """One traced set-up, the traced load windows, then the probes."""
        layers: Dict[str, float] = {}
        timings, _city_s = make_city(self.seed, self.tsv, self.remaining())
        _took, child = self.cold_start(traced=True)
        if not child.command({"cmd": "verify"}, timeout=self.remaining())["same"]:
            self.problems.append("staged build differs from run_pipeline")
        self.build_layers(child.ready, layers)
        self.serving_layers(child, self.plan(child.port, self.seed), self.seconds, layers)
        self.probes(child, layers)
        layers["data.synth.generate_s"] = timings["generate_s"]
        layers["data.io.write_tsv_s"] = timings["write_s"]
        self.metrics = layers


def _host() -> Dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine()}


def _emit(run: Run, spec: Dict) -> Dict:
    """The result line, with exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer" if run.traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CrowdWeb end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=("serve_hot", "serve_churn"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the ExitStack still reaps the children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _load_repro()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(exist_ok=True)
        with ExitStack() as stack:
            run = Run(args, stack)
            stack.callback(run.tsv.unlink, missing_ok=True)
            if run.traced:
                run.run_traced()
            else:
                run.run_untraced()
        result = _emit(run, spec)
    except BenchError as exc:
        _log(f"run failed: {exc}")
        return 1
    except Exception:  # noqa: BLE001 - the entry point reports, never a result
        _log("run failed:\n" + traceback.format_exc())
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            shutil.rmtree(WORK, ignore_errors=True)
    for problem in run.problems:
        _log(f"check failed: {problem}")
    print(json.dumps({"host": _host(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
