"""Bounded formal checking over the elaborated synthesizable subset.

No external solver: designs are bit-blasted into a hash-consed ROBDD
arena (:mod:`.bdd`) by a symbolic interpreter (:mod:`.sym`) that
calls the simulator's own rules for declarations, selects, lvalues,
write slices and constant folding, runs under its step budget, and
implements only the operators symbolically.  :mod:`.check` exposes
the user-facing entry points, run by one driver, and the versioned
:class:`FormalReport`.  Designs come
from the shared front end; :class:`repro.verilog.frontend.FrontEndMemo`
memoises their elaboration for callers that check a store repeatedly.
"""

from .bdd import BDDBudgetError, BDDManager, DEFAULT_NODE_BUDGET
from .check import (
    DEFAULT_BOUND,
    FORMAL_REPORT_SCHEMA,
    FormalReport,
    check_equivalence,
    check_properties,
    verify_code,
    verify_design,
)
from .sym import FormalUnsupported

__all__ = [
    "BDDBudgetError",
    "BDDManager",
    "DEFAULT_BOUND",
    "DEFAULT_NODE_BUDGET",
    "FORMAL_REPORT_SCHEMA",
    "FormalReport",
    "FormalUnsupported",
    "check_equivalence",
    "check_properties",
    "verify_code",
    "verify_design",
]
