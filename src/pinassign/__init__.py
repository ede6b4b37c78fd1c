"""Pin-assignment engine for hardware/software interface boards.

Given a pin-capability table and a requested multiset of functions, finds
one feasible, all possible, or the minimum-cost assignment of functions to
physical pins, counts the configuration space exactly, and emits equivalent
Prolog/Alloy model-checking inputs and a DOT visualization of the domain.
"""

from . import board, codegen, configops, counting, request, solver
from .board import *
from .codegen import *
from .configops import *
from .counting import *
from .request import *
from .solver import *

__all__ = [
    *board.__all__,
    *codegen.__all__,
    *configops.__all__,
    *counting.__all__,
    *request.__all__,
    *solver.__all__,
]

__version__ = "0.1.0"
