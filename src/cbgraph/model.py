"""An embedded once-punctured torus realizing torus slopes as curves.

The model is given two curves alpha (slope 1/0) and beta (slope 0/1)
that meet once; their band sum bounds the punctured torus containing
both.  An arbitrary slope p/q is realized by a word in the two Dehn
twists, found by running the Euclidean algorithm on (p, q) against the
twists' SL(2,Z) slope actions, and read back from algebraic
intersections.  Neither direction is calibrated; two identities fix
the signs (Farb–Margalit, *A Primer on Mapping Class Groups*):

- for curves meeting once, T_alpha(beta) = T_beta^-1(alpha) (the braid
  relation, ch. 3), so with T_alpha = [[1,1],[0,1]] on (p, q) columns,
  T_beta acts as (p, q) -> (p, q - p) and twist(beta, alpha, 1) is 1/1;
- on homology, [T_alpha(b)] = [b] - î(alpha, b)[alpha] (ch. 6), with
  î the signed count `ops.algebraic_intersect`, so a slope-p/q image c
  has î(c, beta) = p and î(alpha, beta)·î(c, alpha) = q up to one sign.
"""

from __future__ import annotations

from cbgraph import ops
from cbgraph.curves import CurveClass
from cbgraph.farey import Slope


class EmbeddedToriModel:
    """Slope-to-curve realization inside one embedded punctured torus."""

    def __init__(self, alpha: CurveClass, beta: CurveClass):
        self.alpha = alpha
        self.beta = beta
        if ops.intersect(alpha, beta) != 1:
            raise RuntimeError("model handle curves must intersect once")
        self._images: dict[Slope, CurveClass] = {}

    def image(self, s: Slope) -> CurveClass:
        """The curve realizing slope s inside the model torus."""
        got = self._images.get(s)
        if got is not None:
            return got
        # Peel twists off (p, q) until a base slope remains, then apply
        # them forward.  T_alpha^k: (p,q) -> (p+kq, q); T_beta^-k:
        # (p,q) -> (p, q+kp).
        p, q = s.p, s.q
        steps = []
        while p != 0 and q != 0:
            if abs(p) >= abs(q):
                k = (abs(p) // abs(q)) * (1 if (p > 0) == (q > 0) else -1)
                p -= k * q
                steps.append(("a", k))
            else:
                k = (abs(q) // abs(p)) * (1 if (p > 0) == (q > 0) else -1)
                q -= k * p
                steps.append(("b", -k))
        cur = self.beta if p == 0 else self.alpha
        for kind, k in reversed(steps):
            cur = ops.twist(cur, self.alpha if kind == "a" else self.beta, k)
        self._images[s] = cur
        return cur

    def slope_of(self, c: CurveClass) -> Slope:
        """The slope of a curve in the model torus (inverse to `image`);
        a curve pairing trivially with alpha and beta has none (ValueError)."""
        return Slope(
            ops.algebraic_intersect(c, self.beta),
            ops.algebraic_intersect(self.alpha, self.beta)
            * ops.algebraic_intersect(c, self.alpha),
        )
