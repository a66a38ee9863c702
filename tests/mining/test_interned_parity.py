"""Randomized sweep: the interned miner decodes bit-for-bit to the oracle.

The interned :func:`~repro.mining.modified.modified_prefixspan` runs its
whole recursion on dense int ids and bitmasks; item objects reappear only
at the emission boundary.  Its contract is unchanged: *exact* equality —
same patterns, same order, same supports — with
:func:`~repro.mining.modified.modified_prefixspan_reference`, the original
object-at-a-time implementation kept verbatim as the oracle.

Where ``test_index_parity`` sweeps the matcher-configuration surface on
three worlds, this sweep goes wide on *data*: five independently-seeded
synthetic worlds crossed with the paper's support sweep, time tolerance,
and both abstraction extremes (ROOT's tiny alphabet vs LEAF's wide one,
which stresses the vocabulary and the candidate id space differently).

Two structural gates close the module, on one mid-sized world: the
interned miner is faster than the reference, and the interned database
takes at most a quarter of the bytes per sequence of the object form.
"""

from __future__ import annotations

import sys
import time
from datetime import date

import pytest

from repro.data import SynthConfig, generate
from repro.mining import (
    ModifiedPrefixSpanConfig,
    modified_prefixspan,
    modified_prefixspan_reference,
)
from repro.sequences import TimedItem, build_all_databases
from repro.taxonomy import AbstractionLevel, build_default_taxonomy

#: Five pinned, independently-seeded worlds with different shapes — user
#: counts, venue density, and span all vary, so sequence-length and
#: alphabet-size edge cases differ per world.
WORLD_CONFIGS = [
    SynthConfig(seed=3, n_users=8, n_venues=90, n_neighborhoods=3,
                start_date=date(2012, 4, 1), end_date=date(2012, 5, 15)),
    SynthConfig(seed=17, n_users=6, n_venues=200, n_neighborhoods=6,
                start_date=date(2012, 5, 1), end_date=date(2012, 6, 10)),
    SynthConfig(seed=101, n_users=10, n_venues=60, n_neighborhoods=2,
                start_date=date(2012, 6, 1), end_date=date(2012, 7, 20)),
    SynthConfig(seed=271, n_users=7, n_venues=150, n_neighborhoods=5,
                start_date=date(2012, 7, 1), end_date=date(2012, 8, 1)),
    SynthConfig(seed=9001, n_users=9, n_venues=110, n_neighborhoods=4,
                start_date=date(2012, 8, 1), end_date=date(2012, 9, 10)),
]

#: The paper's support sweep × tolerance × abstraction extremes.
SUPPORTS = [0.25, 0.5, 0.75]
TOLERANCES = [0, 2]
LEVELS = [AbstractionLevel.ROOT, AbstractionLevel.LEAF]


@pytest.fixture(scope="module")
def taxonomy():
    return build_default_taxonomy()


@pytest.fixture(scope="module", params=range(len(WORLD_CONFIGS)))
def world(request, taxonomy):
    dataset = generate(WORLD_CONFIGS[request.param]).dataset
    return {
        level: build_all_databases(dataset, taxonomy, level) for level in LEVELS
    }


def _busiest(databases, k):
    uids = sorted(databases, key=lambda uid: len(databases[uid]), reverse=True)
    return [(uid, databases[uid]) for uid in uids[:k]]


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize("min_support", SUPPORTS)
def test_interned_decodes_equal_to_reference(
    world, taxonomy, min_support, tolerance, level
):
    config = ModifiedPrefixSpanConfig(
        min_support=min_support, time_tolerance_bins=tolerance
    )
    for uid, db in _busiest(world[level], 2):
        interned = modified_prefixspan(db, config, taxonomy)
        reference = modified_prefixspan_reference(db, config, taxonomy)
        assert interned == reference, (
            f"user {uid} @ {level.value}: interned output diverged "
            f"(support={min_support}, tolerance={tolerance})"
        )


def test_emitted_items_are_real_timed_items(world, taxonomy):
    """Decode-at-the-boundary must hand back genuine item objects."""
    _, db = _busiest(world[AbstractionLevel.ROOT], 1)[0]
    for pattern in modified_prefixspan(
        db, ModifiedPrefixSpanConfig(min_support=0.25), taxonomy
    ):
        assert all(isinstance(item, TimedItem) for item in pattern.items)


# --------------------------------------------------------------------------
# Structural gates: speed and memory of the interned representation
# --------------------------------------------------------------------------

#: The gate world: 24 users over six weeks, big enough that the busiest
#: user's database separates the two miners by ~10×.
GATE_WORLD = SynthConfig(seed=7, n_users=24, n_venues=300, n_neighborhoods=6,
                         start_date=date(2012, 4, 1), end_date=date(2012, 5, 15))

#: Interned bytes per sequence may be at most this share of the object
#: form's (measured: ~0.23).
MAX_INTERNED_BYTES_RATIO = 0.25


@pytest.fixture(scope="module")
def gate_databases(taxonomy):
    return build_all_databases(generate(GATE_WORLD).dataset, taxonomy)


def _best_of(fn, repeats):
    """Best wall-clock seconds over ``repeats`` calls, and the last result."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _deep_size_bytes(root: object) -> int:
    """Resident size of an object graph in bytes, shared objects once.

    An iterative ``sys.getsizeof`` walk over containers, instance dicts and
    slots, deduplicated by identity, so a representation that shares item
    instances (the interned vocabulary) is credited for the sharing.
    """
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            obj_dict = getattr(obj, "__dict__", None)
            if obj_dict is not None:
                stack.append(obj_dict)
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def test_interned_miner_beats_the_reference(gate_databases, taxonomy):
    """The paper's support sweep on the busiest user: interned is faster."""
    db = max(gate_databases.values(), key=len)
    configs = [ModifiedPrefixSpanConfig(min_support=s) for s in SUPPORTS]

    reference_s, reference = _best_of(
        lambda: [modified_prefixspan_reference(db, c, taxonomy) for c in configs], 3
    )
    interned_s, interned = _best_of(
        lambda: [modified_prefixspan(db, c, taxonomy) for c in configs], 3
    )
    assert interned == reference
    assert interned_s < reference_s, (
        f"interned miner took {interned_s:.4f}s, reference {reference_s:.4f}s"
    )


def test_interned_database_is_a_quarter_of_the_object_form(gate_databases):
    """Id arrays plus one shared vocabulary against one fresh item per
    occurrence in tuples of tuples, the representation interning replaced."""
    databases = list(gate_databases.values())
    n_sequences = sum(len(db) for db in databases)
    vocab = databases[0].vocab
    objects = [
        tuple(
            tuple(TimedItem(item.bin, item.label) for item in vocab.decode_sequence(arr))
            for arr in db.encoded
        )
        for db in databases
    ]
    object_bytes = _deep_size_bytes(objects) / n_sequences
    interned_bytes = _deep_size_bytes(([db.storage for db in databases], vocab)) / n_sequences
    assert interned_bytes <= MAX_INTERNED_BYTES_RATIO * object_bytes, (
        f"interned {interned_bytes:.1f} vs object {object_bytes:.1f} bytes/sequence"
    )
