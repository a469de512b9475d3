"""Phonon number distributions used as initial states.

Thermal, coherent, squeezed-vacuum and squeezed-thermal distributions, the
mean-occupation identity nbar_eff = nbar cosh(2r) + sinh^2 r, and how the
truncation machinery turns a product of three marginals into a weighted
list of conserved-sector blocks.
"""

import numpy as np

from ionfridge import (ModePrep, TruncationPolicy, prep_to_distribution,
                       select_sectors, squeezed_thermal_distribution,
                       squeezed_thermal_mean, squeezed_vacuum_distribution,
                       thermal_distribution)

np.set_printoptions(precision=4, suppress=True)

# a thermal state is geometric in n
th = thermal_distribution(0.66, cutoff=12, tail_budget=1e-3)
print(f"thermal nbar=0.66: mean {th.mean:.4f}, tail beyond cutoff "
      f"{th.tail_mass:.2e}")
print("  p[0:6] =", th.p[:6])

# squeezed vacuum only populates even n
sv = squeezed_vacuum_distribution(1.2, cutoff=80)
print(f"\nsqueezed vacuum r=1.2: mean {sv.mean:.4f} (= sinh^2 r = "
      f"{np.sinh(1.2) ** 2:.4f})")
print("  p[0:6] =", sv.p[:6], " (odd levels empty)")

# squeezing a thermal state multiplies its energy
for r in (0.0, 0.77, 1.34):
    d = squeezed_thermal_distribution(0.50, r, cutoff=200, tail_budget=1e-4)
    print(f"squeezed thermal nbar=0.50 r={r:4.2f}: mean {d.mean:7.4f} "
          f"(closed form {squeezed_thermal_mean(0.50, r):7.4f})")

# ModePrep is the declarative form scenarios use
preps = (ModePrep.thermal_state(0.66),
         ModePrep.squeezed_thermal_state(0.50, 1.34),
         ModePrep.thermal_state(2.60))
policy = TruncationPolicy(epsilon=1e-4)
dists = [prep_to_distribution(p) for p in preps]
selection = select_sectors(*dists, policy)
retained = selection.weights.sum()
print(f"\nproduct state at epsilon=1e-4: {len(selection.labels)} sectors "
      f"retained, weight {retained:.6f} (discarded {1.0 - retained:.1e})")
N, M = selection.labels[0]
print(f"largest sector (N, M) = ({N}, {M}) with weight "
      f"{selection.weights[0]:.4f} and dimension {min(N, M) + 1}")
