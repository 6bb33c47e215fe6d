"""Tour of one twisted isogeny class, end to end.

Picks the three-isogeny chain E_1 -3- E_3 -3- E_9 at t = 45, twists by
d = 3, and shows every stage: exact signatures, local classification,
the closed-form decision, and the exact volume argmax that re-derives it.

Run:  python3 demos/faltings_tour.py [--t T] [--d D]
"""

import argparse
from fractions import Fraction

from qtwist import families, graphs, localdata
from qtwist.exactnum import fmt_rat
from qtwist.weierstrass import twist_sig


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=Fraction, default=Fraction(45))
    ap.add_argument("--d", type=int, default=3)
    args = ap.parse_args()
    t, d = args.t, args.d

    print(f"== chain family at t = {t}, twist by d = {d} ==\n")
    labels = ("E_1", "E_3", "E_9")
    sigs = families.l39_signatures(t)
    for label, s in zip(labels, sigs):
        print(f"{label}: c4 = {fmt_rat(s.c4)}, c6 = {fmt_rat(s.c6)}, "
              f"Delta = {fmt_rat(s.delta)}")

    print("\nlocal data of the twisted curves at 3:")
    for label, s in zip(labels, sigs):
        c = localdata.classify(twist_sig(s, d), 3)
        print(f"  {label}^{d}: Kodaira {c.kodaira}, u_3 = {fmt_rat(c.u_p)}, "
              f"sig_3 = {tuple(c.minimal_psig)}")

    res = graphs.faltings_by_theorem("L3_9", t, d)
    print(f"\ndecision table: Faltings curve is {res.vertex} "
          f"(branch {res.d_condition}, density {fmt_rat(res.probability)})")

    uv = graphs.u_vectors("L3_9", t, d)
    vols = graphs.graph_type("L3_9").volumes
    print("\nexact re-derivation (u(E)^2 u(E^d)^2 vol per vertex):")
    for label, ue, ud, v in zip(labels, uv.uE, uv.uEd, vols):
        score = ue**2 * ud**2 * v
        print(f"  {label}: u(E) = {fmt_rat(ue)}, u(E^d) = {fmt_rat(ud)}, "
              f"score = {fmt_rat(score)}")
    print(f"argmax: {graphs.faltings_by_volumes('L3_9', t, d)}")

    print("\nall branches at this t:")
    for row in graphs.prob_table("L3_9", t):
        print(f"  {row.d_condition:>10}: {row.vertex}  "
              f"(prob {fmt_rat(row.probability)})")


if __name__ == "__main__":
    main()
