#!/usr/bin/env python3
"""Fuzz the envelope rewriting system on random metabelian algebras:
random dotted words must reach the same normal form under both reduction
strategies, and every overlap must reduce to zero."""

import argparse
import random
import sys

from permalg import Envelope
from permalg.metabelian import random_metabelian


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algebras", type=int, default=10)
    parser.add_argument("--words", type=int, default=200)
    parser.add_argument("--max-degree", type=int, default=8)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    bad = 0
    for a in range(args.algebras):
        algebra = random_metabelian(rng.randint(2, 5), rng)
        env = Envelope(algebra)
        comps = env.check_compositions()
        agreement = env.strategy_agreement(args.words, rng.randrange(2**32), args.max_degree)
        status = "ok" if comps.all_trivial and agreement.ok else "FAIL"
        bad += status == "FAIL"
        print(
            f"algebra {a}: dim {env.dim}, overlaps {len(comps.entries)} "
            f"(trivial: {comps.all_trivial}), strategy mismatches {agreement.disagreements} -> {status}"
        )
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
