"""Generate the ``bench`` city and write it as a Foursquare TSV file.

Usage (normally only ``run.py`` starts it)::

    python perfbench/city.py --seed <n> --tsv <checkins.tsv>

Prints one JSON line with the generation and write times and the number
of check-ins.  It runs in a process of its own so that ``run.py`` can pin
it to one CPU and probe that CPU's speed meanwhile.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.data import SynthConfig, generate, write_foursquare_tsv

#: The ``bench`` city every workload serves.
N_USERS, N_VENUES = 300, 2500


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tsv", type=Path, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    dataset = generate(SynthConfig(seed=args.seed, n_users=N_USERS, n_venues=N_VENUES)).dataset
    generated = time.perf_counter()
    write_foursquare_tsv(dataset, args.tsv)
    print(json.dumps({"generate_s": generated - start,
                      "write_s": time.perf_counter() - generated,
                      "checkins": len(dataset)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
