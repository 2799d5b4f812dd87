"""
Sweeping measurement rates
===========================
"""

import numpy as np

from hsrec.harness import (METHODS, ExperimentSpec, PhantomSpec,
                           generate_phantom, run_experiment)

# Both solvers on the reference phantom, across three rate pairs and three
# random draws each.
cube = generate_phantom(PhantomSpec(32, 32, 16, seed=0))
spec = ExperimentSpec(
    rates=((0.3, 0.25), (0.4, 0.375), (0.5, 0.5)),
    sigma=0.01,
    seeds=(0, 1, 2))
rows = run_experiment(spec, cube)

print("method   r_p    r_s    mean err   min..max        iters")
for method in METHODS:
    for r_p, r_s in spec.rates:
        errs = [r["relative_error"] for r in rows
                if r["method"] == method and r["r_p"] == r_p]
        iters = [r["iterations"] for r in rows
                 if r["method"] == method and r["r_p"] == r_p]
        print("%-8s %.2f   %.3f  %8.4f   %.4f..%.4f  %4.0f"
              % (method, r_p, r_s, np.mean(errs), min(errs), max(errs),
                 np.mean(iters)))

# Expected picture: error falls as either rate grows, and the hybrid
# solver stays below the baseline at matched rates.
