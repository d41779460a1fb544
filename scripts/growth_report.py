#!/usr/bin/env python3
"""Growth tables for the stock algebras: the enveloping algebra of the
Heisenberg algebra grows quadratically while the 3-dimensional abelian
algebra gives the full polynomial ring in three variables."""

import argparse
from pathlib import Path

from permalg import load_algebra
from permalg.envelope import gk_estimate

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmax", type=int, default=12)
    args = parser.parse_args()
    for name in ("heisenberg", "abelian3", "abelian1", "affine2"):
        algebra = load_algebra(ALGEBRAS / f"{name}.json")
        report = gk_estimate(algebra.dim, algebra.derived_dim(), args.dmax)
        counts = " ".join(str(c) for c in report.per_degree)
        print(f"{name:11s} per-degree counts: {counts}")
        print(
            f"{'':11s} raw log-log slope {report.loglog_slope:.4f}, "
            f"extrapolated {report.slope:.4f} "
            f"(window {report.window[0]}..{report.window[1]})"
        )


if __name__ == "__main__":
    main()
