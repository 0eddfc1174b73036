"""Where the gap bounds are tight over the paper's two-by-two plane.

Usage::

    PYTHONPATH=src python tests/plane_2x2.py [DIVISIONS] > plane.csv

Every 2x2 model is a point ``(a, b)`` of the plane ``A = diag(sqrt(10^a),
sqrt(10^b))``, ``sigma2 = 1`` (``tests/test_plane_2x2.py``).  The grid takes
``a >= b`` over [-8, 8] in steps of ``1/DIVISIONS`` (default 10, a 0.1 step),
and each pair runs at the rates of ``test_plane_2x2.columns``.  One CSV row per
pair: ``a``, ``b``, ``R_limit``, ``max_gap_2d``'s rate and value (empty where
it rejects the pair), and the least and largest ``gap_ub/gap`` and
``gap_lb/gap`` over the rates where the gap is positive (empty where it is
nowhere positive).  Then a summary on stderr, over the pairs that
``max_gap_2d`` accepts and ``equality_region`` does not call tied: the least
``gap_ub/gap`` and the median of each pair's least, the largest ``gap_lb/gap``
and the median of each pair's largest, and the largest ``gap_lb/gap`` at the
peak.
"""

import sys

import numpy as np
from test_plane_2x2 import columns

from cedrf import drf

HEADER = "a,b,R_limit,R_peak,peak,ub_min,ub_max,lb_min,lb_max"


def _text(values) -> str:
    return ",".join("" if v is None else "%.6g" % v for v in values)


def main():
    divisions = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    exponents = np.arange(-8 * divisions, 8 * divisions + 1) / divisions
    print(HEADER)
    ub_min, lb_max, lb_at_peak = [], [], []
    for i, a in enumerate(exponents.tolist()):
        for b in exponents[: i + 1].tolist():
            model, (R, _, _, gap, gap_ub, gap_lb, *_), peak = columns(a, b)
            region = drf.equality_region(model)
            positive = gap > 0.0
            ub, lb = gap_ub[positive] / gap[positive], gap_lb[positive] / gap[positive]
            spans = [None] * 4 if ub.size == 0 else [ub.min(), ub.max(), lb.min(), lb.max()]
            print(_text([a, b, region.R_limit, *(peak or (None, None)), *spans]))
            if peak is not None and not region.unconditional and ub.size:
                ub_min.append(spans[0])
                lb_max.append(spans[3])
                at = R == peak[0]
                lb_at_peak.append((gap_lb[at] / gap[at]).max())
    print(f"{len(ub_min)} accepted untied pairs at a 1/{divisions} step: gap_ub/gap >= "
          f"{min(ub_min):.4g} (median of each pair's least {np.median(ub_min):.4g}); "
          f"gap_lb/gap <= {max(lb_max):.4g} (median of each pair's largest "
          f"{np.median(lb_max):.4g}); at the peak gap_lb/gap <= {max(lb_at_peak):.4g}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
