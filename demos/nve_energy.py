"""Energy bookkeeping under velocity Verlet.

Runs a 300 K nanotube for 400 NVE steps and watches the potential and
kinetic energies trade against each other while their sum stays put.
The drift of the total is the integrator's own fingerprint: velocity
Verlet is symplectic, so the error oscillates with the fast phonons
instead of accumulating.
"""

import numpy as np

from tersoffmd import (RunConfig, builtin_params, gen_nanotube,
                       make_variant, run_nve, seed_velocities)

table = builtin_params("C")
state = gen_nanotube(4, 6)
seed_velocities(state, temperature=300.0, rng=3)

cfg = RunConfig(dt=0.5, steps=400, variant=make_variant("VecI", "native"))
summary = run_nve(state, table, cfg)

pot, kin, tot = (summary[k] for k in ("potential", "kinetic", "total"))
print(f"{state.natoms} atoms, dt = {cfg.dt} fs, {cfg.steps} steps\n")
print(" step   potential      kinetic        total        drift")
for s in range(0, cfg.steps + 1, 50):
    drift = (tot[s] - tot[0]) / abs(tot[0])
    print(f"{s:5d}  {pot[s]:12.6f} {kin[s]:12.6f} {tot[s]:13.7f} "
          f"{drift:+.2e}")

worst = np.abs(tot - tot[0]).max() / abs(tot[0])
print(f"\nworst relative drift over the run: {worst:.2e}")
print(f"largest |sum of forces| component:  "
      f"{np.max(summary['force_sum_max']):.2e} eV/A")
print(f"neighbor-list rebuilds:             {summary['rebuilds']}")
wc = summary["wall_clock"]
print(f"wall clock: {wc['total']:.2f}s total, of which {wc['forces']:.2f}s "
      f"forces and {wc['neighbor']:.2f}s neighbor")
