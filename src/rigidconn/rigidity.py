"""The rigidity index of a problem from its formal local data.

rig = 2 r^2 - sum over singular points of
        [ Irr(End T_x) + r^2 - h0(End T_x) ],

the Euler-Poincare expansion of 2 - h^1 of the middle-extension End
complex, valid for formal data of an irreducible connection.  Rank-one
data always give 2; rig = 2 characterizes the rigid irreducible case.
Each bracket depends on the point's formal type alone; it is the type's
cached `FormalType.defect`, so a type shared by many problems pays for
it once.
"""

from __future__ import annotations

from .formal import Problem


def rig_index(p: Problem) -> int:
    r = p.rank()
    return 2 * r * r - sum(t.defect for _, t in p.points)
