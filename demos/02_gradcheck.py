# Audit the hand-written backward passes with central finite differences.
#
# The check builds a small fused network (word + char + POS channels), runs
# one backward pass, then nudges sampled coordinates of every parameter
# tensor by +/-h and compares the slope.  Each coordinate is measured at h,
# h/10 and h/100 and keeps its best agreement: stepping across a relu or
# max-pool kink inflates a single step size, a wrong gradient fails at all
# of them.

import time

from genderfuse.cli import fd_gradcheck

t0 = time.time()
errors = fd_gradcheck(seed=0, h=1e-5, coords_per_tensor=8)
elapsed = time.time() - t0

print(f"{'tensor':<16} worst relative error")
for name in sorted(errors):
    print(f"{name:<16} {errors[name]:.3e}")

worst = max(errors.values())
print(f"\nmax over {len(errors)} tensors: {worst:.3e}  ({elapsed:.1f}s)")
print("PASS" if worst < 1e-4 else "FAIL", "at tolerance 1e-4")

# the same audit is wired into the command line:
#   genderfuse gradcheck --seed 0
