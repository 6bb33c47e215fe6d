"""Density experiment: exact branch probabilities vs observed frequencies.

Among square-free integers, those divisible by a prime p have density
1/(1+p).  The decision tables turn that into exact probabilities for
each vertex; this script counts the square-free |d| <= bound exactly
(``qtwist.sieve``, bound 10^4 to 10^12) and compares.

Run:  python3 demos/density_experiment.py [--bound N]
"""

import argparse

from qtwist import graphs, sieve


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bound", type=int, default=10**5)
    args = ap.parse_args()

    print(f"square-free divisibility densities (bound {args.bound}):")
    for p in (2, 3, 5, 7, 11):
        rep = sieve.squarefree_density(p, args.bound)
        print(f"  p={p:>2}: observed {rep.divisible_fraction:.5f}, "
              f"exact 1/{1 + p} = {1 / (1 + p):.5f}")
    rep = sieve.squarefree_density(2, args.bound)
    print(f"  overall square-free density {rep.squarefree_density:.5f} "
          f"(6/pi^2 = {6 / 3.14159265358979**2:.5f})\n")

    cells = (("L3_9", 3), ("L3_9", 45), ("T4", 8), ("L2_5", 5), ("L2_11", None))
    for kind, t in cells:
        freqs = sieve.empirical_prob(kind, t, args.bound)
        tag = f"{kind}, t={t}" if t is not None else kind
        print(f"{tag}:")
        for row in graphs.prob_table(kind, t):
            print(f"  {row.vertex}: exact {float(row.probability):.5f}, "
                  f"counted {freqs[row.vertex]:.5f}  ({row.d_condition})")


if __name__ == "__main__":
    main()
