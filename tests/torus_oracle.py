"""The region rule that `ops.common_punctured_torus` replaced.

For three or more curves, this is how the library used to decide
whether a remaining curve lies in the filled neighbourhood T of the
first pair: the curve must miss the boundary of T, and the surface cut
along that boundary must put the curve in the same region as the first
curve.  The library now decides with the boundary test alone (the
argument is in its docstring); tests require both rules to give the
same answers.
"""

from __future__ import annotations

from cbgraph.curves import CurveClass
from cbgraph.cut import CutComplex
from cbgraph.ops import intersect, neighborhood_profile


def common_punctured_torus(curves) -> bool:
    """Whether one embedded once-punctured torus contains every curve."""
    curves = tuple(sorted(set(curves)))
    return _common_punctured_torus(curves)


def _common_punctured_torus(curves: tuple[CurveClass, ...]) -> bool:
    if len(curves) == 1:
        return True
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if intersect(curves[i], curves[j]) == 0:
                return False
    prof = neighborhood_profile(curves[:2])
    if not (
        prof.connected and prof.genus == 1 and prof.boundary_components == 1
    ):
        return False
    if len(curves) == 2:
        return True
    boundary = prof.boundary_classes[0]
    cut = CutComplex(curves[0].tri, boundary)
    torus_region = cut.region_containing(curves[0])
    for c in curves[2:]:
        if intersect(c, boundary) != 0:
            return False
        if cut.region_containing(c) != torus_region:
            return False
    return True
