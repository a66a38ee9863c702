"""``python -m repro.web`` — run the platform on a synthetic dataset."""

from __future__ import annotations

import argparse

from dataclasses import replace

from ..data import small_dataset, synthetic_dataset
from ..exec import ExecConfig
from ..experiments import small_pipeline_config
from ..obs import enable as obs_enable
from ..persistence import load_profiles
from ..pipeline import PipelineConfig, run_pipeline
from .server import CrowdWebServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serve the CrowdWeb platform")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8460)
    parser.add_argument("--scale", choices=["small", "paper"], default="small",
                        help="synthetic dataset size (paper scale takes ~30 s to prepare)")
    parser.add_argument("--profiles", default=None,
                        help="load mined profiles from a save_profiles() JSON "
                             "instead of re-mining (phase 2 is skipped)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for mining/aggregation "
                             "(1 = serial, 0 = all cores)")
    parser.add_argument("--trace", action="store_true",
                        help="enable observability: traces pipeline prep and "
                             "every request, served back at GET /metrics")
    args = parser.parse_args(argv)

    if args.trace:
        obs_enable()
    if args.scale == "paper":
        dataset = synthetic_dataset()
        config = PipelineConfig()
    else:
        dataset = small_dataset()
        config = small_pipeline_config()
    config = replace(config, exec=ExecConfig(workers=args.workers))

    def build_result():
        if not args.profiles:
            return run_pipeline(dataset, config)
        profiles = load_profiles(args.profiles)
        print(f"loaded {len(profiles)} profiles from {args.profiles}")
        return run_pipeline(dataset, config, profiles=profiles)

    # Bind the socket first: early requests get 503 + Retry-After while the
    # pipeline precompute runs, and the hot key space is warmed right after.
    server = CrowdWebServer(host=args.host, port=args.port,
                            result_factory=build_result, warm=True)
    print(f"CrowdWeb serving at {server.url} (preparing {dataset!r} ...)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
