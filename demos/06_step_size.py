"""Cut statistics at three integration step sizes.

The shipped Euler-Maruyama step is 0.01 cycle (100 steps per cycle). This
runs the test suite's two 800-spin surrogates, a 20x40 +-1 torus (G11's
shape) and an 800-vertex random graph with 19,176 unit edges (G1's), at
50, 100 and 200 steps per cycle on the same seeds, and prints each cut's
best, mean and standard deviation. If the step is small enough, halving
or doubling it moves the statistics by no more than their spread.

    python demos/06_step_size.py           # 10 cycles, seeds 0-3: seconds
    python demos/06_step_size.py --full    # 1,000 cycles, seeds 0-19: minutes

--full uses the shipped schedule (Ks ramped 0 -> 1 over the first 500 of
1,000 cycles) and gives README's table. The short run keeps the ramp's
shape over 10 cycles.
"""

import argparse
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from oimsim import BenchmarkSpec, DynamicsParams, KsSchedule, maxcut_to_ising, run_benchmark

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from surrogates import SURROGATE_REFS, er_800_graph, torus_800_graph  # noqa: E402

parser = argparse.ArgumentParser(description="Cut statistics at three step sizes.")
parser.add_argument("--full", action="store_true",
                    help="the shipped 1,000-cycle schedule on seeds 0-19")
args = parser.parse_args()

shipped = DynamicsParams()
params = shipped if args.full else replace(
    shipped, cycles=10.0, ks_schedule=KsSchedule.ramp(0.0, 5.0, 1.0))
runs = 20 if args.full else 4

print(f"{params.cycles:g} cycles, seeds 0-{runs - 1}; cut statistics per step size")
print(f"{'instance':>10} {'steps/cycle':>11} {'best':>7} {'mean':>9} {'sd':>6} {'ref':>6}")
for key, graph in (("torus_800", torus_800_graph()), ("er_800", er_800_graph())):
    problem = maxcut_to_ising(graph)
    for spc in (50, 100, 200):
        spec = BenchmarkSpec(problems=((key, problem, graph.total_weight),),
                             params=replace(params, steps_per_cycle=spc), runs=runs)
        cuts = [r.cut for r in run_benchmark(spec, parallelism=min(2, os.cpu_count() or 1))
                .stats(key).records]
        print(f"{key:>10} {spc:>11} {max(cuts):>7g} {statistics.fmean(cuts):>9.1f} "
              f"{statistics.stdev(cuts):>6.1f} {SURROGATE_REFS[key]:>6}")
