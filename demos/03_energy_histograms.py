"""Solution-energy histograms for random 240-spin instances.

Mirrors the hardware-style measurement: run many seeds on one instance and
bin the energies (random assignments sit near 0; the dynamics lands far
below), then repeat over several instances binning distance to each
instance's reference optimum. Export is CSV, ready for external plotting.
"""

import numpy as np

from oimsim import (Complete, DynamicsParams, KsSchedule, SaParams, export,
                    hamiltonian, histogram, random_ising, random_spins,
                    run_seeds, simulated_annealing)

params = DynamicsParams(cycles=200.0, ks_schedule=KsSchedule.ramp(0, 50, 1.0))
rng = np.random.default_rng(0)

# one instance: random solutions vs measured solutions
inst = random_ising(240, Complete(), seed=0)
random_h = [hamiltonian(inst, random_spins(240, rng)) for _ in range(200)]
runs = run_seeds(inst, params, seeds=list(range(40)))
measured_h = [r.H for r in runs]

print(f"random assignments: mean H = {np.mean(random_h):8.1f}")
print(f"oscillator runs:    mean H = {np.mean(measured_h):8.1f} "
      f"(best {min(measured_h):g})\n")
print("measured-solution histogram (CSV):")
print(export(histogram(measured_h, bins=8), "csv"))

# several instances: distance of each run to a long-anneal reference
print("distance-to-reference over 5 instances, 20 runs each:")
distances = []
for seed in range(5):
    inst = random_ising(240, Complete(), seed=seed)
    _, ref_H = simulated_annealing(inst, SaParams.long_run(2_000_000, seed=0))
    for r in run_seeds(inst, params, seeds=list(range(20))):
        distances.append(r.H - ref_H)
print(export(histogram(distances, bins=8), "csv"))
