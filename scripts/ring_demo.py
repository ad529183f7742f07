#!/usr/bin/env python3
"""Resolution-limit demo on the ring of cliques.

Shows how the equator-latitude density query starts merging adjacent cliques
once the ring is long enough (k > 22 for s=5), and how the latitude rules
recover the planted cliques at every size.

Usage: python scripts/ring_demo.py [--s 5] [--kmax 60]
"""

import argparse
import sys

from pairsphere.generators import ring_of_cliques
from pairsphere.queries import LATITUDE_RULES, QuerySpec
from pairsphere.tune import detect_once


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=5)
    ap.add_argument("--kmax", type=int, default=60)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'k':>4} {'raw rho':>9} {'raw gerr':>9}", end="")
    for rule in LATITUDE_RULES:
        print(f" {rule + ' rho':>18}", end="")
    print()
    k = 5
    while k <= args.kmax:
        G, T = ring_of_cliques(k, args.s)
        _, raw = detect_once(G, QuerySpec("er-modularity", gamma=args.gamma), T, seed=args.seed)
        print(f"{k:>4} {raw.rho:>9.4f} {raw.granularity_error:>+9.4f}", end="")
        for rule in LATITUDE_RULES:
            spec = QuerySpec("er-modularity", gamma=args.gamma, heuristic="exact", rule=rule)
            _, fixed = detect_once(G, spec, T, seed=args.seed)
            print(f" {fixed.rho:>18.4f}", end="")
        print()
        k += 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
