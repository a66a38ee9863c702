"""Individual mobility patterns — the iMAP side of the platform.

Demonstrates the paper's core motivation: a user who eats Thai food every
lunchtime at *different* Thai venues has no venue-level pattern, but a
strong category-level one.  Mines one simulated user at all three
abstraction levels, prints the comparison, and renders their place graph.

Run:
    python examples/individual_patterns.py
"""

from repro.data import generate, SMALL_CONFIG
from repro.mining import ModifiedPrefixSpanConfig
from repro.patterns import build_place_graph, detect_user_patterns, summarize_profile
from repro.sequences import make_labeler
from repro.taxonomy import AbstractionLevel, build_default_taxonomy
from repro.viz import HtmlReport, render_place_graph

taxonomy = build_default_taxonomy()
generation = generate(SMALL_CONFIG)
dataset = generation.dataset

# Pick the busiest simulated user — the one whose ground-truth routine we
# can actually inspect, since the generator keeps the agent profiles.
agent = max(generation.agents, key=lambda a: a.checkin_prob)
user_id = agent.user_id
lunch_slot = next(s for s in agent.weekday_routine if s.slot_key == "lunch")
print(f"user {user_id} ({agent.persona}); ground-truth lunch habit: "
      f"{lunch_slot.target} around {lunch_slot.hour:.1f}h\n")

# The flexibility motivation, measured: how many distinct venues serve that
# one habit?
lunch_visits = [c for c in dataset.for_user(user_id)
                if c.category_name == lunch_slot.target]
print(f"{len(lunch_visits)} lunch check-ins across "
      f"{len({c.venue_id for c in lunch_visits})} different {lunch_slot.target}s")

# Mine at each abstraction level with the same support threshold.
config = ModifiedPrefixSpanConfig(min_support=0.5)
print(f"\npatterns found at min_support={config.min_support}:")
profiles = {}
for level in (AbstractionLevel.VENUE, AbstractionLevel.LEAF, AbstractionLevel.ROOT):
    profile = detect_user_patterns(dataset, user_id, taxonomy, level=level,
                                   config=config)
    profiles[level] = profile
    print(f"  {level.value:>6}: {profile.n_patterns} patterns")

print("\nroot-level routine:")
print(summarize_profile(profiles[AbstractionLevel.ROOT], k=8))

# Render the place graph and pattern list to a small HTML page.
labeler = make_labeler(taxonomy, AbstractionLevel.ROOT)
graph = build_place_graph(dataset, user_id, labeler)
report = HtmlReport(f"Mobility patterns — {user_id}",
                    subtitle=f"persona: {agent.persona}")
report.add_heading("Place graph (observed transitions)")
report.add_svg(render_place_graph(graph, title=f"Places visited by {user_id}"))
report.add_heading("Detected routine")
report.add_preformatted(summarize_profile(profiles[AbstractionLevel.ROOT], k=12))
out = report.save("individual_patterns.html")
print(f"\nwrote {out}")
