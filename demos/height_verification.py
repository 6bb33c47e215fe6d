"""Numeric cross-check: Faltings heights vs the closed-form decision.

For a handful of twisted classes, computes Neron-lattice volumes to high
precision and confirms that the height argmin is the vertex the decision
table names.  The winning volume always beats the runner-up by at least
the isogeny degree, so 128 bits is far more than needed.

Run:  python3 demos/height_verification.py   (exit status 1 on a mismatch)
"""

import sys

from qtwist import oracle


def show(kind, t, d, variant="a"):
    rep = oracle.verify_class(kind, t, d, precision_bits=128, variant=variant)
    tag = f"{kind}(t={t})" if t is not None else f"{kind}[{variant}]"
    print(f"{tag} twisted by d={d}:")
    for v in rep.vertices:
        marker = " <-- argmin" if v.label == rep.argmin_label else ""
        print(f"  {v.label}: height {float(v.faltings_height):+.6f}{marker}")
    status = "OK" if rep.match else "MISMATCH"
    print(f"  theorem says {rep.theorem_label}: {status}\n")
    return rep.match


def main():
    ok = True
    for t, d in ((45, 3), (45, 5), (3, 1), (9, -2)):
        ok &= show("L3_9", t, d)
    for variant in ("a", "b"):
        for d in (1, 11, -11):
            ok &= show("L2_11", None, d, variant=variant)
    print("all matched" if ok else "SOME MISMATCHES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
