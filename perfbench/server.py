"""The served CrowdWeb process that ``run.py`` starts and drives.

Usage (normally only ``run.py`` starts it)::

    python perfbench/server.py --tsv <checkins.tsv> [--traced]

The process binds a ``CrowdWebServer`` to an ephemeral loopback port
*before* building anything, prints ``PORT <n>`` and then runs the timed
cold-start path inside the server's ``result_factory`` (requests meanwhile
get ``503`` + ``Retry-After``)::

    read_foursquare_tsv -> run_pipeline -> CrowdWebApp -> warm() -> first tile

and prints ``READY <json>`` with the path's wall time.  With ``--traced``
the pipeline runs as its public stages, each timed from here, with
``repro.obs`` enabled, and ``READY`` carries one row per stage.

Afterwards it answers JSON commands, one per stdin line, with
``RESULT <json>`` lines (see :func:`_command`).  It exits when stdin
closes or on ``{"cmd": "stop"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

from repro import obs
from repro.crowd import CrowdAggregator
from repro.data import ActiveUserFilter, preprocess, read_foursquare_tsv
from repro.exec import ordered_map
from repro.geo import MicrocellGrid
from repro.mining import closed_patterns, modified_prefixspan
from repro.patterns import UserPatternProfile
from repro.pipeline import PipelineConfig, PipelineResult, run_pipeline
from repro.sequences import ItemVocab, SequenceDatabase, make_labeler, sessionize_dataset
from repro.taxonomy import build_default_taxonomy
from repro.web import CrowdWebServer

#: The pipeline configuration every workload serves: all users with any
#: check-in in the densest window reach phases 2-3.
PIPELINE_CONFIG = PipelineConfig(activity=ActiveUserFilter(min_qualifying_days=0))

FIRST_TILE = "/api/tiles/0/0/0"


def _emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


class _Stages:
    """Wall-clock rows for consecutive stages of one build."""

    def __init__(self) -> None:
        self.rows = {}
        self.counts = {}
        self._mark = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.rows[name] = self.rows.get(name, 0.0) + (now - self._mark)
        self._mark = now

    def skip(self) -> None:
        """Restart the clock without charging a row (glue between stages)."""
        self._mark = time.perf_counter()


def staged_pipeline(tsv: Path, stages: _Stages) -> PipelineResult:
    """``read_foursquare_tsv`` + ``run_pipeline(PIPELINE_CONFIG)``, stage by stage.

    Calls the same public functions ``run_pipeline`` chains, in the same
    order and with the same arguments, charging each to one row; the
    ``verify`` command checks the result equals ``run_pipeline``'s.
    """
    config = PIPELINE_CONFIG
    stages.skip()
    dataset = read_foursquare_tsv(tsv)
    stages.done("data.io.read_tsv_s")
    taxonomy = build_default_taxonomy()
    stages.skip()
    filtered, report = preprocess(dataset, config.window_months, config.activity)
    stages.done("data.preprocess_s")
    stages.counts["data.preprocess.users_kept"] = filtered.n_users

    labeler = make_labeler(taxonomy, config.level)
    stages.skip()
    sessions = sessionize_dataset(filtered, labeler, config.binning, min_items=1,
                                  day_kind=config.day_kind)
    stages.done("sequences.sessionize_s")
    # The rest of build_all_databases: one shared vocabulary, packed dbs.
    vocab = ItemVocab(item for user in sessions.values() for s in user for item in s.items)
    databases = {
        uid: SequenceDatabase(tuple(s.items for s in user),
                              name=f"{filtered.name}/{uid}/{config.level.value}",
                              vocab=vocab)
        for uid, user in sessions.items()
    }
    stages.done("sequences.vocab_pack_s")
    stages.counts["sequences.n_sequences"] = sum(len(db) for db in databases.values())
    stages.counts["sequences.n_items"] = sum(
        len(s.items) for user in sessions.values() for s in user
    )

    user_ids = list(databases)
    mined = ordered_map(
        partial(modified_prefixspan, config=config.mining, taxonomy=taxonomy,
                n_bins=config.binning.n_bins),
        [databases[uid] for uid in user_ids], config.exec, label="mine_user",
    )
    stages.done("mining.mine_s")
    stages.counts["mining.n_patterns"] = sum(len(p) for p in mined)
    profiles = {}
    for uid, patterns in zip(user_ids, mined):
        if config.closed_only:
            patterns = closed_patterns(patterns)
        profiles[uid] = UserPatternProfile(
            user_id=uid, patterns=tuple(patterns), n_days=len(databases[uid]),
            binning=config.binning, level=config.level,
        )
    stages.done("patterns.closed_s")

    grid = MicrocellGrid(filtered.bounding_box().expand(0.002), config.cell_size_m)
    stages.skip()
    aggregator = CrowdAggregator(
        profiles, filtered, grid, taxonomy, binning=config.binning,
        pattern_tolerance=config.pattern_tolerance,
        evidence_tolerance=config.evidence_tolerance,
    )
    stages.done("crowd.visit_index_s")
    timeline = aggregator.timeline(exec_config=config.exec)
    stages.done("crowd.timeline_s")
    placed = sum(snap.n_users for snap in timeline)
    stages.counts["crowd.placement_rate"] = placed / max(1, len(profiles) * len(timeline))
    return PipelineResult(
        dataset=filtered, report=report, profiles=profiles, grid=grid,
        aggregator=aggregator, timeline=timeline, taxonomy=taxonomy, config=config,
    )


def _utilization(observer) -> float:
    """The ``utilization`` attribute of the mining ``exec.ordered_map`` span."""
    for root in observer.tracer.roots():
        if root.name == "exec.ordered_map" and root.attrs.get("label") == "mine_user":
            return float(root.attrs.get("utilization", 0.0))
    return 0.0


def _same_result(a: PipelineResult, b: PipelineResult) -> bool:
    if sorted(a.profiles) != sorted(b.profiles):
        return False
    for uid, profile in a.profiles.items():
        other = b.profiles[uid]
        if profile.patterns != other.patterns or profile.n_days != other.n_days:
            return False
    if len(a.timeline) != len(b.timeline):
        return False
    return all(x.placements == y.placements for x, y in zip(a.timeline, b.timeline))


def _handle_schedule(app, requests) -> dict:
    """Replay ``[path, headers]`` pairs through ``CrowdWebApp.handle``."""
    latencies = []
    clock = time.perf_counter
    handle = app.handle
    for path, headers in requests:
        start = clock()
        handle("GET", path, headers)
        latencies.append(clock() - start)
    return {"n": len(latencies), "p50_us": statistics.median(latencies) * 1e6}


def _probe_renders(app, paths: dict, rounds: int) -> dict:
    """Median refresh time, then one miss per render kind right after it."""
    samples = {name: [] for name in ["refresh"] + sorted(paths)}
    clock = time.perf_counter
    for _ in range(rounds):
        start = clock()
        status, _headers, _body = app.handle("POST", "/api/refresh")
        samples["refresh"].append(clock() - start)
        if status != 200:
            raise RuntimeError(f"refresh answered {status}")
        for name, path in sorted(paths.items()):
            start = clock()
            status, _headers, _body = app.handle("GET", path)
            samples[name].append(clock() - start)
            if status != 200:
                raise RuntimeError(f"{path} answered {status}")
    return {name: statistics.median(values) * 1e3 for name, values in samples.items()}


def _command(server: CrowdWebServer, tsv: Path, message: dict):
    cmd = message["cmd"]
    app = server.app
    if cmd == "obs":
        if message["on"]:
            obs.enable()
        else:
            obs.disable()
        return {"enabled": obs.get_observer().enabled}
    if cmd == "handle":
        return _handle_schedule(app, message["requests"])
    if cmd == "probe":
        return _probe_renders(app, message["paths"], message.get("rounds", 3))
    if cmd == "verify":
        was_enabled = obs.get_observer().enabled
        obs.disable()
        try:
            reference = run_pipeline(read_foursquare_tsv(tsv), PIPELINE_CONFIG)
        finally:
            if was_enabled:
                obs.enable()
        return {"same": _same_result(app.result, reference)}
    raise ValueError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tsv", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    stages = _Stages()
    if args.traced:
        obs.enable()
        factory = partial(staged_pipeline, args.tsv, stages)
    else:
        def factory() -> PipelineResult:
            return run_pipeline(read_foursquare_tsv(args.tsv), PIPELINE_CONFIG)
    start = time.perf_counter()
    server = CrowdWebServer(result_factory=factory, port=0, warm=False).start()
    try:
        _emit("PORT", server.address[1])
        if not server.wait_ready(timeout=600):
            _emit("FAILED", {"error": "pipeline build failed"})
            return 1
        stages.done("web.app_init_s")
        app = server.app
        warmed = app.warm()
        stages.done("web.warm_s")
        status, _headers, body = app.handle("GET", FIRST_TILE, {"Accept-Encoding": "gzip"})
        stages.done("web.first_tile_s")
        build_s = time.perf_counter() - start
        if status != 200 or not body:
            _emit("FAILED", {"error": f"first tile answered {status}"})
            return 1
        ready = {"build_s": build_s, "warm_entries": warmed}
        if args.traced:
            ready["rows"] = stages.rows
            ready["counts"] = dict(stages.counts,
                                   **{"exec.ordered_map.utilization":
                                      _utilization(obs.get_observer())})
        _emit("READY", ready)
        for line in sys.stdin:
            if not line.strip():
                continue
            message = json.loads(line)
            if message["cmd"] == "stop":
                break
            try:
                _emit("RESULT", {"ok": _command(server, args.tsv, message)})
            except Exception as exc:  # noqa: BLE001 - reported to the driver
                _emit("RESULT", {"error": f"{type(exc).__name__}: {exc}"})
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
