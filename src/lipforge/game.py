"""Adversarial nested-ball game engine.

Player I proposes a closed ball (center function, radius) inside Player
II's previous open ball; Player II answers with a derivative surgery on
the level-k net and a much smaller ball around it.  After K rounds the
final function fits the target operator's increments at every net point of
every level k <= K with ratio error at most 1/k at the level's core scale.

All radii are kept as exact rationals: they shrink doubly exponentially
and leave float range after a few rounds.  Certificates are evaluated in
rational arithmetic for the same reason.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, RefereeError
from .fn import ConstFn, LinearFn, LipFn, SumFn, ZeroFn, as_fraction
from .prescribe import Net, build_net, prescribe_derivative
from .regions import Region
from .spaces import LinOp, NormedSpace, cube_corners
from .verify import exact_increment_residuals


def _space_bound_on(Q: Region, space: NormedSpace) -> Fraction:
    lo, hi = Q.bounds("Q")
    corners = np.where(cube_corners(len(lo)) > 0, hi, lo)
    return as_fraction(float(np.max(space.norm(corners))))


@dataclass
class Round:
    k: int
    f: LipFn
    r: Fraction
    g: LipFn
    s: Fraction
    alpha: Fraction
    gamma: np.ndarray


@dataclass
class GameTranscript:
    rounds: list
    T: LinOp
    net: Net
    policy_name: str
    limit_bound: Fraction  # analytic sup bound of the limit over Q

    @property
    def limit(self) -> LipFn:
        return self.rounds[-1].g


# ---------------------------------------------------------------------------
# Player I policies
# ---------------------------------------------------------------------------


class PolicyBase:
    """Adversary interface: open() the game, then move() each round.

    move(g_prev, s_prev, g_bound) gets Player II's last center, its radius
    and an analytic sup bound of the center over Q, and returns (f, r,
    delta) where delta is an analytic upper bound on sup ||f - g_prev||
    over Q; the referee requires delta + r <= s_prev.
    """

    name = "base"

    def __init__(self, space_dom: NormedSpace, space_cod: NormedSpace, Q: Region,
                 seed=0):
        self.dom = space_dom
        self.cod = space_cod
        self.Q = Q
        self.rng = np.random.default_rng(seed)

    def open(self, d, l):
        return ZeroFn(d, l), Fraction(1, 2), Fraction(0)

    def move(self, g_prev, s_prev, g_bound):
        raise NotImplementedError


class IdentityPolicy(PolicyBase):
    """Replays Player II's center with half the allowed radius."""

    name = "identity"

    def move(self, g_prev, s_prev, g_bound):
        return g_prev, s_prev / 2, Fraction(0)


class RandomPolicy(PolicyBase):
    """Mixes the previous center with a seeded random linear contraction."""

    name = "seeded-random"

    def move(self, g_prev, s_prev, g_bound):
        d, l = g_prev.d, g_prev.l
        M = self.rng.uniform(-0.5, 0.5, (l, d))
        R = LinOp.build(M, self.dom, self.cod)
        if R.opnorm_ub > 1.0:
            R = LinOp.build(M / (R.opnorm_ub * 1.0000001), self.dom, self.cod)
        r_bound = _space_bound_on(self.Q, self.dom) * as_fraction(R.opnorm_ub)
        lam = s_prev / (4 * (g_bound + r_bound + 1))
        # the node stores float coefficients; the honest displacement bound
        # is computed from the coefficients actually stored
        c1, c2 = float(1 - lam), float(lam)
        f = SumFn([g_prev, LinearFn(R.matrix, lip_bound=R.opnorm_ub)], [c1, c2])
        delta = abs(1 - as_fraction(c1)) * g_bound + as_fraction(c2) * r_bound
        return f, s_prev / 2, delta


class SpoilerPolicy(PolicyBase):
    """Shifts the center by a constant, re-anchoring values away from the net."""

    name = "spoiler"

    def move(self, g_prev, s_prev, g_bound):
        l = g_prev.l
        e1 = np.zeros(l)
        e1[0] = 1.0
        e1n = as_fraction(float(self.cod.norm(e1)) * (1.0 + 1e-9) + 1e-300)
        mag = s_prev / (4 * e1n)
        c = np.zeros(l)
        c[0] = float(mag)
        f = SumFn([g_prev, ConstFn(c, g_prev.d)], [1.0, 1.0])
        delta = as_fraction(c[0]) * e1n  # bound from the stored float shift
        return f, s_prev / 2, delta


POLICIES = {p.name: p for p in (IdentityPolicy, RandomPolicy, SpoilerPolicy)}


# ---------------------------------------------------------------------------
# the game
# ---------------------------------------------------------------------------


def run_bm_game(E: Region, Q: Region, T: LinOp, playerI: PolicyBase, K: int,
                net: Net = None, start=None) -> GameTranscript:
    """Run K rounds against the given adversary policy.

    `start`, if given, is (center_fn, radius Fraction, sup_bound Fraction)
    restricting Player I's opening move to a ball from a previous game.
    """
    if K < 1:
        raise InputError("need at least one round")
    if T.opnorm_ub >= 1.0:
        raise RefereeError("target operator must satisfy ||T|| < 1 (certified)")
    space = T.dom
    if net is None:
        net = build_net(E, Q, kmax=K, space=space)
    one_minus = 1 - as_fraction(T.opnorm_ub)
    rounds = []
    g_prev, s_prev = None, None
    g_bound = Fraction(0)  # analytic sup bound of the current center over Q

    for k in range(1, K + 1):
        if k == 1 and g_prev is None:
            if start is not None:
                f_k, r_k, g_bound = start
                delta = Fraction(0)
            else:
                f_k, r_k, delta = playerI.open(space.dim, T.cod.dim)
        else:
            f_k, r_k, delta = playerI.move(g_prev, s_prev, g_bound)
            if delta + r_k > s_prev:
                f_k, r_k, delta = playerI.move(g_prev, s_prev, g_bound)
                if delta + r_k > s_prev:
                    raise RefereeError("adversary ball not inside previous ball")
        f_bound = g_bound + delta
        # Player II may shrink the adversary radius
        r_k = min(r_k, Fraction(1, 2 ** k) * one_minus)
        gamma_k = net.level(min(k, len(net.levels)))
        if len(gamma_k) == 0:
            g_k, alpha_k = f_k, r_k / 2
        else:
            s_sep = Fraction(1, 4 * 2 ** k)
            g_k, _ = prescribe_derivative(f_k, T, r_k / 2, gamma_k, s_sep, Q,
                                          check_geometry=(k == 1))
            alpha_k = g_k.alpha
        s_k = min(alpha_k / (8 * k), r_k / 4)
        rounds.append(Round(k, f_k, r_k, g_k, s_k, alpha_k, gamma_k))
        g_prev, s_prev = g_k, s_k
        g_bound = f_bound + r_k / 2

    return GameTranscript(rounds, T, net, playerI.name, g_bound)


def _exact_unit_dirs(space: NormedSpace, d, n, seed):
    rng = np.random.default_rng(seed)
    dirs = []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        nrm = space.norm_exact(e)
        dirs.append([v / nrm for v in e])
        dirs.append([-v / nrm for v in e])
    for _ in range(n):
        w = [as_fraction(float(v)) for v in rng.uniform(-1, 1, d)]
        nrm = space.norm_exact(w)
        if nrm > 0:
            dirs.append([v / nrm for v in w])
    return dirs


def certify_transcript(t: GameTranscript, dirs=8, seed=0):
    """Exact per-level ratio errors of the final function at the net points.

    For level k the certified claim is
    max_{x in Gamma_k} sup_{||u|| <= alpha_k} ||g(x+u) - g(x) - Tu|| / alpha_k <= 1/k.
    Returns a list of {level, error, bound} dicts (error is the sampled sup).
    """
    g = t.limit
    U = _exact_unit_dirs(t.T.dom, t.T.dom.dim, dirs, seed)
    out = []
    for rd in t.rounds:
        xfs = [[as_fraction(float(v)) for v in x] for x in rd.gamma]
        rhos, divisors = (rd.alpha, rd.alpha / 2), (rd.alpha, rd.alpha)
        worst = max(max(per_op) for per_op in exact_increment_residuals(
            g, xfs, [t.T], U, rhos, divisors))
        out.append({"level": rd.k, "error": float(worst), "bound": 1.0 / rd.k,
                    "points": len(rd.gamma)})
    return out


def multi_operator_run(E: Region, Q: Region, ops, K: int, policy_factory,
                       net: Net = None):
    """Sequential games for T_1..T_N, each resuming inside the previous
    limit ball.  Returns (transcripts, final function)."""
    transcripts = []
    start = None
    for n, T in enumerate(ops):
        policy = policy_factory(n)
        t = run_bm_game(E, Q, T, policy, K, net=net, start=start)
        transcripts.append(t)
        last = t.rounds[-1]
        # Player I of the next game opens with the previous limit and a
        # radius small enough to stay inside Player II's final ball
        start = (last.g, last.s / 2, t.limit_bound)
    return transcripts, transcripts[-1].rounds[-1].g
