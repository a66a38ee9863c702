"""Live routine monitoring — the crowd-management application.

Mines a user's routine from their history, then replays a *held-out* day
through :class:`~repro.patterns.PatternMonitor` as if visits were arriving
in real time: what the user is expected to do next, which routines complete,
and how conformance evolves.

Run:
    python examples/live_monitoring.py
"""

from datetime import timedelta

from repro import small_dataset
from repro.data import CheckInDataset
from repro.mining import ModifiedPrefixSpanConfig
from repro.patterns import PatternMonitor, PatternState, detect_user_patterns, summarize_profile
from repro.sequences import make_labeler, sessionize_user
from repro.taxonomy import AbstractionLevel, build_default_taxonomy

dataset = small_dataset()
taxonomy = build_default_taxonomy()

# Busiest user; hold out their final recorded week.
counts = dataset.records_per_user()
user_id = max(counts, key=counts.get)
records = dataset.for_user(user_id)
cutoff = records[-1].timestamp - timedelta(days=7)
history = CheckInDataset([c for c in records if c.timestamp < cutoff],
                         dataset.venues, name="history")
future = CheckInDataset([c for c in records if c.timestamp >= cutoff],
                        dataset.venues, name="held-out")
print(f"user {user_id}: {len(history)} historical check-ins, "
      f"{len(future)} held out\n")

profile = detect_user_patterns(
    history, user_id, taxonomy,
    config=ModifiedPrefixSpanConfig(min_support=0.4),
)
print(summarize_profile(profile, k=5))

# Replay the busiest held-out day visit by visit.
labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
sessions = sessionize_user(future, user_id, labeler)
day = max(sessions, key=lambda s: len(s.items))
print(f"\nreplaying {day.day} ({len(day.items)} visits):")

monitor = PatternMonitor(profile, tolerance_bins=1)
for item in day.items:
    expected = monitor.expected_next()
    expectation = (f"expected {expected[0][0].label} around bin "
                   f"{expected[0][0].bin}" if expected else "nothing expected")
    monitor.observe(item)
    print(f"  {profile.binning.label(item.bin)}: visited {item.label:<12} "
          f"({expectation}; conformance {monitor.conformance():.0%})")

monitor.advance_to(23)
print("\nend of day:")
for progress in monitor.status():
    labels = " → ".join(i.label for i in progress.pattern.items)
    print(f"  [{progress.state.value:<11}] {labels} "
          f"({progress.matched}/{len(progress.pattern.items)} matched, "
          f"support {progress.pattern.support:.0%})")
completed = sum(p.state is PatternState.COMPLETED for p in monitor.status())
print(f"\n{completed}/{len(monitor.status())} routines completed; "
      f"final conformance {monitor.conformance():.0%}")
