"""Behavioural communities: beyond exact co-location.

The crowd view groups users who are at the *same microcell* at the *same
time*.  This example generalizes grouping to behavioural similarity: a
pattern-similarity graph over the active users, partitioned by the
link-strength label propagation of the authors' own community-detection
work (Lakhdari et al., 2016 — the paper's ref [7]).

Run:
    python examples/communities.py
"""

from collections import Counter

import numpy as np

from repro import small_dataset, run_pipeline, small_pipeline_config
from repro.crowd import detect_communities, similarity_links
from repro.patterns import pattern_set_similarity

dataset = small_dataset()
result = run_pipeline(dataset, small_pipeline_config())
profiles = result.profiles
print(f"{len(profiles)} active users profiled")

user_ids, similarity, links = similarity_links(profiles, min_similarity=0.05)
pairs = np.argwhere(np.triu(links))
print(f"similarity graph: {len(user_ids)} nodes, {len(pairs)} links")
if len(pairs):
    a, b = pairs[similarity[pairs[:, 0], pairs[:, 1]].argmax()]
    print(f"strongest behavioural link: {user_ids[a]} <-> {user_ids[b]} "
          f"(similarity {similarity[a, b]:.2f})")

communities = detect_communities(profiles, min_similarity=0.05)
print(f"\n{len(communities)} communities found:")
for community in communities:
    # Characterize each community by its members' dominant place labels.
    labels = Counter()
    for uid in community.user_ids:
        labels.update(profiles[uid].labels())
    themes = ", ".join(label for label, _ in labels.most_common(3))
    print(f"  community {community.community_id}: {community.size} user(s) "
          f"[{', '.join(community.user_ids)}] — themes: {themes}")

# Cross-check against the crowd view: co-located users should usually be
# behaviourally similar too.
snapshot = result.aggregator.busiest_window()
groups = snapshot.groups(min_size=2)
if groups:
    group = groups[0]
    sims = [
        pattern_set_similarity(profiles[a], profiles[b])
        for i, a in enumerate(group.user_ids)
        for b in group.user_ids[i + 1:]
    ]
    print(f"\nbiggest co-location group ({group.label} x{group.size} at "
          f"{snapshot.window.label}): mean pattern similarity "
          f"{sum(sims) / len(sims):.2f}")
