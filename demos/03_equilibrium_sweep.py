"""Hot-mode equilibration sweep: where does the exchange stall?

For each work-mode occupation, scan the cold-mode input and record the
hot-mode shift after dephasing.  The zero crossing of that shift is the
simulated equilibrium cold occupation; it should track the closed-form
balance nbar_c_eq = nbar_h (1 + nbar_w) / (nbar_w - nbar_h).
"""

from ionfridge import equilibrium_cold_occupation, fig2_dataset
from ionfridge.experiments import reference_scenario

base = reference_scenario("z570")
sweep = fig2_dataset(base,
                     nbar_w_values=[4.44, 2.16, 1.10],
                     nbar_c_values=[0.6, 1.2, 1.8, 2.4, 3.0])

print("nbar_w    nc_eq (simulated)   nc_eq (balance formula)")
for row in sweep.rows:
    formula = equilibrium_cold_occupation(0.66, row.nbar_w)
    mark = "" if row.crossing else "   (no crossing in scan window)"
    print(f"{row.nbar_w:5.2f}     {row.nc_eq_sim:8.4f}            "
          f"{formula:8.4f}{mark}")

print(f"\n{len(sweep.cells)} grid cells; sample cell:")
c = sweep.cells[0]
print(f"  work {c.nbar_w:.2f}, cold in {c.nbar_c:.2f} -> "
      f"hot ss {c.nbar_h_ss:.4f}, cold ss {c.nbar_c_ss:.4f}, "
      f"hot shift eps_h = {c.eps_h:+.4f}")
