"""Four kernels, one answer.

Evaluates the same structures with every kernel variant and prints how
far each one lands from the two-pass Reference kernel. The scalar and
vector paths share no force-assembly code, so agreement at 1e-13 eV/A is
evidence, not tautology. The last section shows the stronger claim: in
strict transcendental mode at width 1, the vector kernels reproduce the
scalar-optimized kernel bit for bit.
"""

import numpy as np

from tersoffmd import (SimulationBox, SimulationState, builtin_params,
                       build_neighbor_list, compute, gen_nanotube,
                       make_variant)

table = builtin_params("C")


def random_blob(seed, n, spread=8.0, min_dist=0.9):
    """n random atoms, rejection-sampled so no pair sits closer than
    min_dist (the potential diverges on coincident atoms)."""
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < n:
        p = rng.uniform(0, spread, 3)
        if all(np.linalg.norm(p - q) > min_dist for q in kept):
            kept.append(p)
    pos = np.array(kept)
    return SimulationState(positions=pos,
                           box=SimulationBox((spread + 12.0,) * 3),
                           species=np.zeros(n, dtype=np.int64))


blob = random_blob(42, 60)
tube = gen_nanotube(5, 10)

variants = [
    make_variant("Reference"),
    make_variant("ScalarOpt"),
    make_variant("VecJ", "emulated", 8),
    make_variant("VecI", "emulated", 8),
    make_variant("VecI", "native"),
]

for state, label in ((blob, "random blob (60 atoms)"),
                     (tube, "CNT (200 atoms)")):
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    ref = compute(state, nl, table, variants[0])
    print(f"\n{label}: E = {ref.potential_energy:.10f} eV")
    print(f"  {'variant':34s} {'dE (rel)':>10s} {'max dF (eV/A)':>14s}")
    for var in variants[1:]:
        res = compute(state, nl, table, var)
        de = abs(res.potential_energy - ref.potential_energy) \
            / abs(ref.potential_energy)
        df = np.abs(res.forces - ref.forces).max()
        print(f"  {var.describe():34s} {de:10.2e} {df:14.2e}")

print("\nstrict mode, width 1 (bitwise against ScalarOpt):")
nl = build_neighbor_list(tube, table.r_cut, skin=0.3)
scalar = compute(tube, nl, table, make_variant("ScalarOpt"))
for tag in ("VecJ", "VecI"):
    res = compute(tube, nl, table, make_variant(tag, "emulated", 1,
                                                strict=True))
    same = (res.forces.tobytes() == scalar.forces.tobytes()
            and res.potential_energy == scalar.potential_energy)
    print(f"  {tag}: forces and energy bit-identical = {same}")
