"""Side-by-side geometry of ERM, PGD, and PMH trained encoders.

A scaled-down version of the `isogeo compare` experiment: all three
objectives train on identical data streams, then TDI and the exact
Jacobian norm are measured on a shared evaluation batch.
The signature to look for: adversarial training reaches a *smaller* Jacobian
norm than ERM while its clean-input TDI is *not* smaller, and the matching
penalty gives the smallest TDI outright.  (The full-scale version runs
20000 steps; this demo uses 6000 to stay around a minute.)

Run:  python demos/05_method_comparison.py
"""

import os

from isogeo import experiments as xp

cfg = xp.default_config(
    "compare",
    seed=0,
    steps=6000,
    eval_rows=256,
    mc_draws=24,
)
table = xp.run_compare(cfg)

cols = ["tdi_at_0", "jac_fro_sq", "lipschitz", "task_metric"]
print(f"{'method':8s}" + "".join(f"{c:>14s}" for c in cols))
for method in table.row_keys:
    cells = [table.get(method, c)[0] for c in cols]
    print(f"{method:8s}" + "".join(f"{v:14.6g}" for v in cells))

outdir = os.path.join(os.path.dirname(__file__), "output")
paths = xp.emit(table, outdir)
print("\nwrote", *paths)
print(
    "\n(task_metric is accuracy here: the comparison uses sign labels with "
    "cross-entropy, the regime where plain training visibly inflates the "
    "encoder Jacobian.)"
)
