"""Coloured m-ary partition counts and their residues modulo m.

The package counts partitions of n into parts that are powers of a base
m >= 2, where part m^j is available in k_j colours, both unrestricted
(b) and gap-free (c, every used power drags in all smaller ones).  It
evaluates digit-driven closed forms for those counts modulo m, expands
the series identities behind the closed forms over Z_m, and verifies
formula against oracle across configurable grids.
"""

from . import congruence, counting, series
from .congruence import *
from .counting import *
from .series import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [*congruence.__all__, *counting.__all__, *series.__all__]
