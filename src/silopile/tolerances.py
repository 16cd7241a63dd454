"""Numerical tolerances used across the package.

All hard-coded tolerances live here so that geometry, tie-breaking and
refinement behaviour can be audited in one place.
"""

# Geometric predicates: containment half-plane tests, convexity cross
# products, coincident-point detection.
GEOM_TOL = 1e-12

# Tie resolution for the escape cost's exit: among the minimizers whose
# objective value is within TIE_TOL of the optimum, the one with the
# smallest canonical (edge, parameter) key is the exit.
TIE_TOL = 1e-9

# Bracket width at which golden-section refinement stops.  The escape-cost
# kernel refines every (source, edge) bracket in lockstep; a bracket at or
# below this width is left alone while the others go on.  Rounding limits
# the minimizer it finds to about 1e-8 in the edge parameter, since the
# objective is flat at its minimum; the cost itself is exact to rounding.
REFINE_TOL = 1e-12

# Radii within FREEZE_TOL of their escape cost count as frozen.
FREEZE_TOL = 1e-12

# Reduced costs above -LP_TOL certify optimality of a transport plan;
# marginals are checked to the same tolerance.
LP_TOL = 1e-9

# Dual LP size cap: demand nodes are coarsened 4:1 until the node count
# (supplies + demands + boundary) drops below this.  The default of the
# ``[tolerances] dual_node_cap`` config key.
DUAL_NODE_CAP = 2000
