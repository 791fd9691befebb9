"""Smooth a distance function around a compact set and certify it.

The distance function x -> ||x - p|| has a kink at p.  smooth_around
replaces it near a compact set E by a C^1 function that stays uniformly
close and does not increase the Lipschitz constant beyond eps.  c1_check
compares finite-difference Jacobians at two step sizes, at points sampled
inside smooth_region(E, Q), where g is smooth.
"""

import numpy as np

from lipforge import box_region, lp_space, smooth_around
from lipforge.fn import DistFn
from lipforge.smooth import smooth_region
from lipforge.verify import c1_check, lip_estimate

space = lp_space(2, 2)
E = box_region([0.4, 0.4], [0.6, 0.6])
Q = box_region([-1.0, -1.0], [2.0, 2.0])
f = DistFn(space, np.array([0.5, 0.5]))  # kink at the center of E
eps = 0.1

g = smooth_around(E, Q, f, eps, seed=0)

rng = np.random.default_rng(0)
X = rng.uniform(-1, 2, (50000, 2))
print("sup |g - f| =", float(np.max(np.abs(g.eval(X) - f.eval(X)))),
      "<= eps =", eps)

H = smooth_region(E, Q)
bb = H.bbox()
pts = rng.uniform(bb[0], bb[1], (60, 2))
pts = pts[H.contains(pts)][:20]
ok, worst, _ = c1_check(g, pts)
print("C1 check on the smoothed region:", ok, "(worst residual %.3e)" % worst)

est, _ = lip_estimate(g, Q, pairs=20000, dom=space, cod=lp_space(1, 2))
print("sampled Lip(g) =", est, "<= Lip(f) + eps =", f.lip_bound + eps)
