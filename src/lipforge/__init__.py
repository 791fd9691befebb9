"""lipforge: constructive Lipschitz analysis at desk scale.

Builds exactly-evaluable 1-Lipschitz mappings whose small-scale increments
fit prescribed linear operators, together with the supporting machinery:
normed spaces and operator norms, radial blending, derivative prescription
on separated nets, an adversarial ball-game engine, unrectifiable-set
covers with a cone-constrained curve-mass estimator, steep functions and
their composites, mollification / partition-of-unity smoothing, and a
numerical certification harness.
"""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    Functional,
    LinOp,
    NormedSpace,
    OperatorFamily,
    cyl_constant,
    dense_ball_sequence,
    dual_norm,
    lp_space,
    op_norm,
)
from .regions import (  # noqa: F401
    BoxUnion,
    CurveSpec,
    EmptyRegion,
    Region,
    box_region,
    gen_four_corner,
    pu_cover,
    xi_estimate,
)
from .fn import BlendFn, LipFn  # noqa: F401
from .prescribe import build_net, prescribe_derivative  # noqa: F401
from .game import certify_transcript, multi_operator_run, run_bm_game  # noqa: F401
from .steep import (  # noqa: F401
    SteepSpec,
    bmgame_step_pu,
    build_psi_map,
    build_pu_map,
    build_sequence,
    build_steep,
)
from .smooth import (  # noqa: F401
    MollifierSpec,
    build_pou,
    c1_replace,
    mollify,
    sla_assemble,
    smooth_around,
    uniform_diff_radius,
)
from .verify import (  # noqa: F401
    c1_check,
    dini_check,
    lip_estimate,
    scan_derivative_set,
)
