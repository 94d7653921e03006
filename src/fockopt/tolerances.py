"""The numerical tolerances of the package, in one table.

Every module takes its tolerances from here and defines none of its own.
Each constant carries one line on what it guards and why it has its value.
"""

# a vector or matrix is unit (|v| = 1, U^dag U = 1) within this; float error is about 1e-15
NORM_TOL = 1e-10
# a rarer herald never fires: renormalizing by sqrt(p) > 1e-7 keeps float error below 1e-9
HERALD_CUTOFF = 1e-14
# a smaller norm is the zero vector: a cancelled superposition leaves about 1e-16 per term
ZERO_NORM = 1e-12
# amplitudes below this fraction of the largest are float dust, about 1e-16 where 0 is exact
PRUNE_REL = 1e-14
# the Reck factorization leaves out rotations and phases this small, a few hundred ulp of 1
RECK_TOL = 1e-13
# a state file further than this from norm 1 warns when renormalized; 7 printed digits pass
FILE_NORM_TOL = 1e-6
# default residual of the single-mode test: far above float error, far below physical residuals
DEFAULT_TOL = 1e-8
# CHSH violates only above 2 + this, a thousand times SETTINGS_CHECK_TOL, so rounding is no witness
VIOLATION_MARGIN = 1e-6
# gap allowed between the CHSH optimum and its settings' direct value, both exact to about 1e-15
SETTINGS_CHECK_TOL = 1e-9
# a gate pair this light holds a particle in under 1 of 1e29 shots and gets no 0/0 split
EMPTY_PAIR = 1e-30
