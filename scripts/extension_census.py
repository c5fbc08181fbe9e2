"""Census of extendable partial maps on codes for a small graph.

Enumerates every injective partial map s with dom(s), rng(s) inside a
code range and |dom(s)| <= 2, runs both the checker (which reads rho
and eps off the values of the generator codes and checks candidates in
the group) and the brute-force automorphism oracle, and prints agreement
statistics plus any extendable map that needs a nontrivial conjugator.

Usage: python scripts/extension_census.py [--edges "0,1"] [--n 2]
"""

import argparse
import itertools

from sixthgroups.coding import CodingTable, oracle_aut_extends, sigma_ns_nonempty
from sixthgroups.graphs import graph
from sixthgroups.words import format_word


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--edges", type=str, default="0,1")
    parser.add_argument("--max-code", type=int, default=12)
    parser.add_argument("--bound", type=int, default=1)
    args = parser.parse_args()
    edges = []
    if args.edges:
        for chunk in args.edges.split():
            i, j = chunk.split(",")
            edges.append((int(i), int(j)))
    t = graph(args.n, edges)
    ct = CodingTable(t)
    codes = [c for c in range(args.max_code + 1) if ct.registrable(c)]
    total = positive = conjugated = disagreements = 0
    for k in (0, 1, 2):
        for dom in itertools.combinations(codes, k):
            for rng_ in itertools.permutations(codes, k):
                s = dict(zip(dom, rng_))
                ok, witness = sigma_ns_nonempty(ct, s, args.bound)
                total += 1
                if ok != oracle_aut_extends(ct, s, args.bound):
                    disagreements += 1
                    print(f"DISAGREEMENT on {s}")
                if ok:
                    positive += 1
                    if witness.k != 0:
                        conjugated += 1
                        print(
                            f"conjugated witness for {s}: "
                            f"k={witness.k} ({format_word(ct.word_of(witness.k))}) "
                            f"l={witness.l} r={dict(witness.r)}"
                        )
    print(f"maps checked: {total}")
    print(f"extendable: {positive}")
    print(f"needing a conjugator: {conjugated}")
    print(f"checker/oracle disagreements: {disagreements}")


if __name__ == "__main__":
    main()
