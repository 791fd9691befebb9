"""Play the nested-ball game over a four-corner Cantor set.

Player I opens with a ball, Player II answers with a derivative surgery
on a separated net and a much smaller ball.  After K rounds the limit
function reproduces the target operator's increments at every net point
with ratio error at most 1/k at the level-k core scale.
"""

import numpy as np

from lipforge import (LinOp, box_region, certify_transcript, gen_four_corner,
                      lp_space, run_bm_game)
from lipforge.game import POLICIES

dom = lp_space(2, "inf")
cod = lp_space(2, "inf")
E = gen_four_corner(2)
Q = box_region([-1.0, -1.0], [2.0, 2.0])
T = LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]), dom, cod)

for name in sorted(POLICIES):
    t = run_bm_game(E, Q, T, POLICIES[name](dom, cod, Q, seed=1), K=3)
    print("policy %-14s" % name)
    for c in certify_transcript(t, dirs=4):
        print("  level %d: error %.3e <= bound %.3f at %d net points"
              % (c["level"], c["error"], c["bound"], c["points"]))
    # the round radii leave float range fast; they are exact rationals
    last = t.rounds[-1]
    print("  final radius ~ 2^%d" % -last.r.denominator.bit_length())
