"""Walk through the curriculum weight schedulers.

Every scheduler starts at weight 1 (train the easy binary task only) and
hits exactly 0 at the switch epoch (train the hard three-class task
only). The shapes differ in how quickly they hand over.
"""

import numpy as np

from curricula.scheduler import CURRICULUM_KINDS, SchedulerSpec, lambda_at

L, E = 20, 40  # E is only the range of epochs plotted

print(f"Curriculum weight by epoch (switch epoch L={L}, epochs 0 to {E})\n")

header = "epoch " + " ".join(f"{kind[:10]:>10}" for kind in CURRICULUM_KINDS)
print(header)
for e in range(0, E + 1, 2):
    row = [f"{e:5d} "]
    for kind in CURRICULUM_KINDS:
        spec = SchedulerSpec(kind=kind, switch_epoch=L)
        row.append(f"{lambda_at(spec, e):>10.4f}")
    print(" ".join(row))

print("\nA coarse ASCII plot of three contrasting shapes:")
for kind in ("exponential", "linear", "concave_quadratic"):
    spec = SchedulerSpec(kind=kind, switch_epoch=L)
    values = np.array([lambda_at(spec, e) for e in range(E + 1)])
    bars = "".join("#" if v > 0.5 else ("+" if v > 0 else ".") for v in values)
    print(f"{kind:>18}  {bars}")

print(
    "\nThe '#'/'+'/'.' marks show weight > 0.5, > 0, and == 0; concave shapes"
    "\nspend more epochs emphasising the easy task before the switch."
)
