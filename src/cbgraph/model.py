"""An embedded once-punctured torus realizing torus slopes as curves.

The model is given two curves alpha (slope 1/0) and beta (slope 0/1)
that meet once; their band sum bounds the punctured torus containing
both.  An arbitrary slope p/q is realized by a word in the two Dehn
twists, found by running the Euclidean algorithm on (p, q) against the
twists' SL(2,Z) slope actions.  The two twist matrices are calibrated
once against the model's own orientation convention (twist(beta, alpha,
1) is declared to be the 1/1-curve), so downstream slope images are
consistent by construction and validated against the torus intersection
formula in the tests.
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
        self._images = {
            Slope(1, 0): self.alpha,
            Slope(0, 1): self.beta,
        }
        # Declare twist(beta, alpha, +1) to be the 1/1-curve; that fixes
        # T_alpha = [[1,1],[0,1]] on (p,q) columns.  Calibrate T_beta's
        # sign against it.
        one_one = ops.twist(self.beta, self.alpha, 1)
        self._images[Slope(1, 1)] = one_one
        self._beta_sign = 1 if ops.twist(self.alpha, self.beta, 1) == one_one else -1

    def image(self, s: Slope) -> CurveClass:
        """The curve realizing slope s inside the model torus."""
        got = self._images.get(s)
        if got is not None:
            return got
        # Peel twists off (p, q) until a base slope remains, then apply
        # them forward.  T_alpha^k: (p,q) -> (p+kq, q); T_beta^k:
        # (p,q) -> (p, q + sign*k*p).
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
                steps.append(("b", self._beta_sign * k))
        cur = self.beta if p == 0 else self.alpha
        for kind, k in reversed(steps):
            cur = ops.twist(cur, self.alpha if kind == "a" else self.beta, k)
        self._images[s] = cur
        return cur
