"""Follow announced electrolyser projects across database vintages.

Loads the three bundled snapshot fixtures, tracks the 2022 launch cohort,
and prints fate rates, the implementation gap and the Sankey layout that
summarises where the announced capacity went.
"""

from h2gap import fate_rates, fixtures, load_snapshot, sankey_flows, track

snapshots = [load_snapshot(fixtures.snapshot_path(v), v) for v in (2021, 2022, 2023)]
for snap in snapshots:
    rep = snap.load_report
    print(f"vintage {snap.vintage_year}: {rep.kept} projects kept, "
          f"{rep.dropped} dropped {dict(rep.dropped_reasons)}")

target = 2022
report = track(snapshots, target)
sankey = sankey_flows(snapshots, target)
print(f"\nannounced for {target} in {report.earlier_vintage}: "
      f"{report.announced_mw / 1000:.2f} GW")
# the middle vintage's view of the cohort is its Sankey stage
print(f"revised expectation in {sankey.stages[1]}:   "
      f"{sankey.stage_total_gw(1):.2f} GW")
print(f"realised on schedule:              {report.realized_mw / 1000:.2f} GW")

rates = fate_rates(report)
print(f"\nfate shares: {rates.total.success:.0%} success, "
      f"{rates.total.delayed:.0%} delayed, {rates.total.disappeared:.0%} disappeared")
for status, shares in rates.by_status.items():
    print(f"  {status.value:<18} {shares.success:>5.1%} / {shares.delayed:>5.1%} "
          f"/ {shares.disappeared:>5.1%}")

gap = report.implementation_gap_mw
print(f"\nimplementation gap {target}: {gap / 1000:.2f} GW "
      f"({gap / report.announced_mw:.0%} of announcements)")

print("\nSankey stages:", " -> ".join(
    f"{label} ({sankey.stage_total_gw(i):.2f} GW)"
    for i, label in enumerate(sankey.stages[:-1])))
print("flows:")
for flow in sankey.flows:
    print(f"  {sankey.stages[flow.stage_from]:<8} {flow.label_from:<18} -> "
          f"{sankey.stages[flow.stage_to]:<8} {flow.label_to:<18} "
          f"{flow.capacity_gw:.3f} GW")
assert sankey.node_balance_errors() == []
