"""Input bounds shared by the application simulators."""

# Largest mode space of the chain and the flux lattice: a run holds at most
# about 22 dense complex matrices of this side at once, 16 MB each at 1024
# modes, 16x the side of the largest benchmarked lattice (64 modes). The
# count includes a formula evaluation's stack, which is one factor and its
# two working arrays from 296 modes up (formula.EVALUATION_BYTES).
MAX_MODES = 1024
# Largest coupling, time and evolution phase (a coupling times a time) the
# simulators accept: a double holds a phase near 1e15 rad only to about
# 0.2 rad, and the cap keeps the squares in the commutator weights far from
# overflow.
MAX_MAGNITUDE = 1e15
