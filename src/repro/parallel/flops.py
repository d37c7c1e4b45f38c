"""Per-phase floating-point work constants (shared by the work models).

Per-grid-point costs consistent with published NPB operation counts:
SP ~ 900 flops/point/iteration, BT ~ 4200.  The split across phases follows
the NPB profile (solves dominate; BT's 5x5 block algebra is ~6x an SP
scalar solve).  These drive the virtual clock; the *ratios* between
versions (what the paper's tables compare) come from the schedules, not
from these absolute constants.
"""

RHS_PER_POINT = 260.0  # compute_rhs (incl. reciprocal arrays + dissipation)
RECIP_PER_POINT = 30.0  # the LOCALIZE'd reciprocal computation alone
SP_SWEEP_PER_POINT = 220.0  # one SP directional sweep (3 systems)
SP_BUILD_PER_POINT = 60.0  # lhs band construction share of a sweep
# calibrated to the paper's measured BT/SP per-iteration runtime ratio on
# the SP2 (xlf sustains a higher flop rate on BT's dense 5x5 block algebra
# than the published ~4200 flops/point would suggest at SP's rate)
BT_SWEEP_PER_POINT = 800.0  # one BT directional sweep (block algebra)
BT_BUILD_PER_POINT = 150.0  # block (jacobian) construction share
ADD_PER_POINT = 10.0

#: elements per boundary-row transfer in the SP pipelined solve:
#: 2 rows x (5 lhs bands + ncomps rhs components)
SP_PIPE_ROW_ELEMS = 2 * (5 + 5)
#: BT: one row of C blocks (5x5) + rhs (5)
BT_PIPE_ROW_ELEMS = 25 + 5
