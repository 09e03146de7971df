"""Point-formula residues tabulated for the tests, one evaluation per grid.

The acceptance gate (criteria 3 and 4) and the batch-sweep tests compare
the same point-formula values at every n <= GRID_LIMIT of a grid: the
first against the exact series, the second against `residues_b` /
`residues_c`.  `grid_point_residues` evaluates each grid once per session
and both read that one table.
"""

import functools

from mary import residue_b, residue_c
from mary.cli import default_grid

GRID_LIMIT = 2000


def point_residues(prob, limit, enforce):
    """residue_b and residue_c for n in 0..limit, one point call each; c[0] is 0."""
    b = [residue_b(n, prob, enforce_hypothesis=enforce).value for n in range(limit + 1)]
    c = [0] + [residue_c(n, prob, enforce_hypothesis=enforce).value
               for n in range(1, limit + 1)]
    return b, c


@functools.cache
def grid_point_residues(failing):
    """{problem: (b, c)} over default_grid(failing=failing) at n <= GRID_LIMIT.

    The hypothesis is enforced exactly on the passing grid.  The table is
    shared for the session: callers must not mutate it.
    """
    return {prob: point_residues(prob, GRID_LIMIT, not failing)
            for prob in default_grid(failing=failing)}
