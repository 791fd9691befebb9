"""Build a steep function on a vertical strip and look at its profile.

The construction pushes mass along a cone around the direction that the
functional P attains its norm on; inside the strip the function gains
exactly ||P|| per unit of progress, and transversally it barely moves.
"""

import numpy as np

from lipforge import Functional, SteepSpec, box_region, build_steep, lp_space
from lipforge.steep import check_steep_properties

space = lp_space(2, 2)
P = Functional([1.0, 0.0], space)
G = box_region([-0.1, -2.0], [1.1, 2.0])
spec = SteepSpec(G, P, alpha=0.3, h=0.05)

g = build_steep(spec)
props, gap = check_steep_properties(g, spec)
print("reported discretization gap:", gap)

# crossing the strip along e1 gains exactly 1 (= ||P||), up to the gap
a = float(g(np.array([0.0, 0.0]))[0])
b = float(g(np.array([1.0, 0.0]))[0])
print("increment across the strip:", b - a)

# moving transversally gains almost nothing
c = float(g(np.array([0.0, 1.0]))[0])
print("transversal increment:     ", c - a)

print()
print("certified properties (residual <= bound):")
for name, (res, bound) in props.items():
    print("  %-16s %.3e <= %.3e  %s"
          % (name, res, bound, "ok" if res <= bound + 1e-9 else "FAIL"))
