"""Continuous diffusion steps and the noise-level bijection.

A pretrained diffusion model defines alpha_bar only at integer steps.
Because the beta schedule is linear, alpha_bar extends to real-valued steps
through a ratio of Gamma functions, giving a strictly decreasing noise-level
curve r(t) = sqrt(alpha_bar(t)) that can be inverted.  This script walks
through both directions of the bijection.
"""

import numpy as np

from fastdiff import NoiseLevelMap, VarianceSchedule, alpha_bar_product

schedule = VarianceSchedule(beta_start=1e-4, beta_end=0.02, num_steps=1000)
level_map = NoiseLevelMap(schedule)

print("1. At integer steps the Gamma route reproduces the direct product.")
for t in (1, 50, 500, 1000):
    gamma_route = level_map.noise_level(float(t))
    product_route = np.sqrt(alpha_bar_product(schedule, t))
    print(f"   t={t:>4}: r(t)={gamma_route:.10f}   "
          f"sqrt(prod)={product_route:.10f}   "
          f"rel diff {abs(gamma_route / product_route - 1):.1e}")

print("\n2. Between integers the curve interpolates monotonically.")
for t in (5.0, 5.25, 5.5, 5.75, 6.0):
    print(f"   t={t:<5} r(t)={level_map.noise_level(t):.8f}")

print("\n3. The truncated Stirling series tracks the exact log curve.")
grid = np.linspace(1.0, 1000.0, 7)
gap = np.abs(level_map.log_noise_level_stirling(grid)
             - level_map.log_alpha_bar(grid))
print(f"   max |stirling - exact| on a 7-point grid: {gap.max():.2e}")

print("\n4. Inversion: any noise level maps back to its continuous step.")
for t in (0.5, 37.0, 123.456, 999.9):
    r = level_map.noise_level(t)
    solved, iterations = level_map.invert(r)
    print(f"   r={r:.6f} -> t={solved:.6f} "
          f"(true {t}, {iterations} iterations)")

print("\n5. r = 1 is the no-noise end of the curve: it maps to step 0.")
print(f"   T(1.0) = {level_map.invert(1.0)[0]}")
