"""Building S-step schedules from a pretrained T-step one.

Two constructions are available.  STEP keeps a subset of the original
integer steps; VAR prescribes fresh per-step variances on a linear or
quadratic ramp whose slope is solved so the terminal noise level matches
the original schedule.  Either way the sampler only ever sees S steps.
"""

import numpy as np

from fastdiff import (NoiseLevelMap, VarianceSchedule, build_step_schedule,
                      build_var_schedule, step_as_var_equivalence)
from fastdiff.experiment import format_schedule_dump, inspect_schedule

DESCRIPTOR = {"beta_1": 1e-4, "beta_T": 0.02, "T": 1000}
schedule = VarianceSchedule.from_descriptor(DESCRIPTOR)
level_map = NoiseLevelMap(schedule)

print("1. STEP, linear: every tenth of the original schedule.")
print(format_schedule_dump(inspect_schedule(DESCRIPTOR, "step", "linear", 10)))

print("\n2. STEP, quadratic: early steps cluster near the data end.")
fast = build_step_schedule(schedule, 10, "quadratic")
print(f"   tau = {fast.taus.tolist()}")
print(f"   telescoping identity gamma_bar_s = alpha_bar(tau_s): "
      f"{step_as_var_equivalence(fast, schedule)}")

print("\n3. VAR, linear: variances solved against the terminal constraint.")
var = build_var_schedule(schedule, level_map, 10, "linear")
print(f"   eta  = {np.array2string(var.etas, precision=5)}")
print(f"   prod(1 - eta) = {np.prod(1 - var.etas):.8e}")
print(f"   alpha_bar(T)  = {schedule.alpha_bars[-1]:.8e}")

print("\n4. VAR continuous steps are genuinely non-integer.")
print(f"   t_cont = {np.array2string(var.cont_steps, precision=3)}")

print("\n5. Schedules serialize to JSON for inspection and golden tests.")
print(f"   keys: {sorted(var.to_dict())}")
