"""Mobility analytics: the regularity/predictability science behind the paper.

Computes the classic metrics (Gonzalez et al. 2008; Song et al. 2010) for
the simulated population — radius of gyration, visitation Zipf profile,
entropies, and the Fano predictability bound — and shows the paper's
central tension: users are *highly* predictable in the information-theoretic
sense, yet exact next-venue prediction stays hard.

Run:
    python examples/mobility_analysis.py
"""

import numpy as np

from repro import small_dataset
from repro.analysis import (
    regularity_by_hour,
    user_mobility_metrics,
    visitation_frequencies,
)
from repro.viz import Histogram, HtmlReport, LineChart

dataset = small_dataset()
user_ids = [uid for uid, n in dataset.records_per_user().items() if n >= 30]
print(f"analyzing {len(user_ids)} users with >=30 check-ins\n")

metrics = [user_mobility_metrics(dataset, uid) for uid in user_ids]

gyrations = [m.radius_of_gyration_m / 1000 for m in metrics]
bounds = [m.predictability_bound for m in metrics]
top_shares = [m.top_location_share for m in metrics]

print(f"radius of gyration: median {np.median(gyrations):.1f} km "
      f"(range {min(gyrations):.1f}-{max(gyrations):.1f})")
print(f"top-location share: median {np.median(top_shares):.0%}")
print(f"predictability bound Pi_max: median {np.median(bounds):.0%} "
      f"(Song et al. report ~93% on call records)")

# The most regular user, hour by hour.
star = max(metrics, key=lambda m: m.predictability_bound)
print(f"\nmost predictable user: {star.user_id} "
      f"(Pi_max {star.predictability_bound:.0%}, "
      f"S_est {star.s_estimated:.2f} bits over {star.n_distinct_venues} venues)")
regularity = regularity_by_hour(dataset, star.user_id)
peak_hour = max(regularity, key=regularity.get)
print(f"their regularity peaks at hour {peak_hour:02d}:00 "
      f"(R = {regularity[peak_hour]:.0%})")

zipf = visitation_frequencies([c.venue_id for c in dataset.for_user(star.user_id)])
print("their top venues:", [(v, f"{s:.0%}") for v, s in zipf[:4]])

# Report with the three standard plots.
report = HtmlReport("Mobility analytics", subtitle=f"{len(user_ids)} simulated users")
report.add_svg(
    Histogram("Radius of gyration", x_label="km", bins=12).add_values(gyrations).render(),
    caption="Most users live within a few km of their center of mass.",
)
report.add_svg(
    Histogram("Predictability bound (Fano)", x_label="Pi_max", bins=12)
    .add_values(bounds).render(),
    caption="Routine makes users information-theoretically predictable.",
)
chart = LineChart("Regularity R(t) of the most predictable user",
                  x_label="hour of day", y_label="P(at top venue)")
hours = sorted(regularity)
chart.add_series(star.user_id, hours, [regularity[h] for h in hours])
report.add_svg(chart.render())
out = report.save("mobility_analysis.html")
print(f"\nwrote {out}")
