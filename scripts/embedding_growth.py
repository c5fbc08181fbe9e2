"""Measure how fast greedy random-graph embeddings grow with edge density.

Draws G(n, p) graphs, embeds each greedily, and reports the largest
vertex value reached and the failure rate against the prime-index
budget.  Dense graphs blow up through iterated nth-prime growth; this
script makes the desk-scale boundary visible.

Usage: python scripts/embedding_growth.py [--n 8] [--trials 50]
"""

import argparse
import itertools
import random
import sys

from sixthgroups.graphs import graph
from sixthgroups.randomgraph import PrimeBudgetError, adjacent, embed_graph


def trial(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    t = graph(n, edges)
    images = embed_graph(t)
    for i, j in itertools.combinations(range(n), 2):
        if adjacent(images[i], images[j]) != t.adj(i, j):
            sys.exit(f"embedding {images} of {sorted(t.edges)} breaks adjacency at {i}, {j}")
    return max(images.values())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for p in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        rng = random.Random(args.seed)
        largest = 0
        failures = 0
        for _ in range(args.trials):
            try:
                largest = max(largest, trial(args.n, p, rng))
            except PrimeBudgetError:
                failures += 1
        print(
            f"p={p:.2f}: ok={args.trials - failures}/{args.trials} "
            f"largest-vertex={largest}"
        )


if __name__ == "__main__":
    main()
