"""Watch the oscillator phases settle: Lyapunov descent and binarization.

Simulates a small random instance with an energy trace enabled and prints
how the Lyapunov function decreases while the rounded Ising energy locks
onto the final solution. The trace is plot-ready (time, E, H) data.
"""

from oimsim import (Complete, DynamicsParams, KsSchedule, brute_force,
                    random_ising, simulate)

problem = random_ising(16, Complete(), seed=7)
exact = brute_force(problem).min_H
params = DynamicsParams(cycles=200.0,
                        ks_schedule=KsSchedule.ramp(0, 50, 1.0))

run = simulate(problem, params, seed=0, trace_points=17)
tr = run.trace

print(f"random 16-spin instance, exact minimum H* = {exact:g}\n")
print(f"{'time':>8} {'lyapunov':>12} {'rounded H':>10}")
for t, e, h in zip(tr.times, tr.lyapunov, tr.rounded_H):
    print(f"{t:8.1f} {e:12.3f} {h:10.0f}")

print(f"\nfinal H = {run.H:g} (optimal: {run.H == exact})")
print(f"final spins: {''.join('+' if s > 0 else '-' for s in run.spins)}")

# without SYNC the phases stay spread over the circle instead of locking
# to the two binary values
no_sync = DynamicsParams(cycles=200.0).without_sync()
run2 = simulate(problem, no_sync, seed=0)
print(f"\nno-SYNC ablation: H = {run2.H:g} "
      f"(thresholded from non-binary phases)")
