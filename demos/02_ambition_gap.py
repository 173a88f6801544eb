"""Compare the announced 2030 project pipeline with climate-scenario needs.

Computes the five-number summary of electrolysis requirements across
scenarios, the cumulative announced pipeline from the latest snapshot, and
the signed ambition gap per scenario.
"""

from h2gap import Status, ambition_gap, fixtures, load_snapshot, pipeline_gw, stats

requirements = fixtures.builtin_requirements()
snap = load_snapshot(fixtures.snapshot_path(2023), 2023)

year = 2030
st = stats(requirements, year, exclude_outliers=True)
print(f"electrolysis requirements for {year} across {st.n} scenarios "
      "(one outlier excluded):")
print(f"  median {st.median:.0f} GW, interquartile range {st.q1:.0f}-{st.q3:.0f} GW, "
      f"full range {st.minimum:.0f}-{st.maximum:.0f} GW")

with_outlier = stats(requirements, year, exclude_outliers=False)
print(f"  including the outlier: n={with_outlier.n}, max {with_outlier.maximum:.0f} GW")

pipe_gw = pipeline_gw(snap, year)
print(f"\nannounced pipeline through {year}: {pipe_gw:.1f} GW")
print(f"median ambition gap: {ambition_gap(st.median, pipe_gw):+.1f} GW "
      "(negative = pipeline already exceeds the requirement)")

covered = 0
for req in sorted((r for r in requirements if r.year == year and not r.outlier),
                  key=lambda r: r.capacity_gw):
    gap = ambition_gap(req.capacity_gw, pipe_gw)
    covered += gap <= 0
    print(f"  {req.source:<8} {req.capacity_gw:>7.0f} GW  gap {gap:>+8.1f} GW")
print(f"\npipeline covers {covered} of {st.n} scenario requirements")

# regional split of the records pipeline_gw counts, for context
by_region: dict[str, float] = {}
for rec in snap.records:
    if rec.launch_year <= year and rec.status is not Status.DECOMMISSIONED:
        by_region[rec.region] = by_region.get(rec.region, 0.0) + rec.capacity_mw / 1000
print("\npipeline by region (cumulative GW):")
for region, gw in sorted(by_region.items()):
    print(f"  {region:<26} {gw:>8.1f}")
