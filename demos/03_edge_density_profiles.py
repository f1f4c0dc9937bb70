"""Particle accumulation at the edges, region II versus region III.

Filling the L + 1 lowest effective modes of a 500-cell open chain: at a
region-II point the extra particle occupies boundary modes of the
effective Hamiltonian and piles up at the edges even though the chain
itself has no zero mode; at a region-III point the chain has zero modes
but the steady state is trivial and the extra particle spreads through
the bulk.  The run uses the extreme-coupling parameters (j^2 = 1.6e4,
gamma within 1.6e-5 of j), where the spectrum of S e^{-beta H_0} S spans
~17 decades, more than a direct double-precision eigensolve resolves.
"""

import numpy as np

from nhtopo import (
    BoundaryCondition,
    ModelParams,
    critical_points,
    density_profile,
    edge_accumulation,
    region,
)

J = float(np.sqrt(1.6e4))
DELTA = float(np.sqrt(2.5e-10))
L = 500

cases = {
    "region II (u=1.2, T=0.1, gamma=+(j-delta))": ModelParams(
        u=1.2, t=1.0, j=J, gamma=J - DELTA, temperature=0.1, cells=L
    ),
    "region III (u=0, T=0.15, gamma=-(j-delta))": ModelParams(
        u=0.0, t=1.0, j=J, gamma=-(J - DELTA), temperature=0.15, cells=L
    ),
}

for name, p in cases.items():
    small = ModelParams(u=p.u, t=p.t, j=p.j, gamma=p.gamma,
                        temperature=p.temperature, cells=4)
    lo, hi = critical_points(p)
    print(name)
    print(f"  state window u_c = ({lo:.4f}, {hi:.4f});"
          f" phase check: {region(small).region}")
    profile = density_profile(p, BoundaryCondition.OPEN, L + 1)
    print(f"  filled {profile.n_particles} particles on {L} cells")
    print("  occupation, first 10 cells: ",
          np.round(profile.per_cell[:10], 4))
    print("  occupation, middle 10 cells:",
          np.round(profile.per_cell[L // 2 - 5 : L // 2 + 5], 4))
    for window in (5, 20, 50):
        acc = edge_accumulation(profile, window)
        print(f"  edge excess over uniform, {window}-cell windows: {acc:+.4f}")
    print()

print("The region-II edge pair is spread over ~50 cells at this coupling,")
print("so the excess keeps growing as the window widens; the region-III")
print("profile shows only the usual boundary ripple.")
