"""Command-line front end.

Subcommands: classify, minimal, twist, faltings, prob, family, verify,
density, empirical.  Output is one JSON object with exact rationals as
"num/den" strings; --pretty indents the same JSON.  A curve is given by
exactly one of --ainvs and --sig.  Exit codes: 0 success, 2 invalid input,
3 internal table-data error (``TableMissError``).  Every exit 2, argparse's
own refusals included, prints nothing on stdout and one JSON {"error": ...}
on stderr.  No option has argparse choices: the registries (``graphs`` for
the types, ``families.FAMILIES`` for the variants) refuse what they lack.

A call runs in a fresh process, so each subcommand imports the modules it
runs when it runs, and the module level imports ``exactnum`` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .exactnum import TableMissError, fmt_rat, parse_rat

SCHEMA_VERSION = 2


def _sig_from_args(args):
    from .weierstrass import AInvariants, Signature, signature_of

    # argparse has checked that exactly one of the two is given
    if args.ainvs is not None:
        parts = [parse_rat(x) for x in args.ainvs.split(",")]
        if len(parts) != 5:
            raise ValueError("--ainvs needs a1,a2,a3,a4,a6")
        return signature_of(AInvariants(*parts))
    parts = [parse_rat(x) for x in args.sig.split(",")]
    if len(parts) != 3:
        raise ValueError("--sig needs c4,c6,delta")
    return Signature(*parts)


def _sig_json(s) -> dict:
    return {"c4": fmt_rat(s.c4), "c6": fmt_rat(s.c6), "delta": fmt_rat(s.delta)}


def _cmd_classify(args):
    from . import localdata

    s = _sig_from_args(args)
    c = localdata.classify(s, args.p)
    return {
        "p": args.p,
        "kodaira": str(c.kodaira),
        "u_p": fmt_rat(c.u_p),
        # null for the valuation of 0 (c4 = 0 or c6 = 0): JSON has no Infinity
        "minimal_p_signature": [None if v == math.inf else v for v in c.minimal_psig],
        "conditions": sorted(c.conditions_fired),
    }


def _cmd_minimal(args):
    from . import localdata

    s = _sig_from_args(args)
    minimal, u = localdata.global_minimal(s)
    return {"input": _sig_json(s), "minimal": _sig_json(minimal), "u": fmt_rat(u)}


def _cmd_twist(args):
    from . import localdata
    from .weierstrass import twist_sig

    s = _sig_from_args(args)
    tw = twist_sig(s, args.d)
    minimal, u = localdata.global_minimal(tw)
    return {"d": args.d, "twist": _sig_json(tw),
            "twist_minimal": _sig_json(minimal), "u": fmt_rat(u)}


def _parse_t(args):
    return parse_rat(args.t) if args.t is not None else None


def _t_json(t):
    return fmt_rat(t) if t is not None else None


def _row_json(r) -> dict:
    """A decision row (``graphs.FaltingsResult``), as faltings and prob print it."""
    return {"vertex": r.vertex, "d_condition": r.d_condition,
            "probability": fmt_rat(r.probability)}


def _cmd_faltings(args):
    from . import graphs

    t = _parse_t(args)
    res = graphs.faltings_by_theorem(args.type, t, args.d)
    return {"type": args.type, "t": _t_json(t), "d": args.d, **_row_json(res)}


def _cmd_prob(args):
    from . import graphs

    t = _parse_t(args)
    rows = graphs.prob_table(args.type, t)
    return {"type": args.type, "t": _t_json(t), "branches": [_row_json(r) for r in rows]}


# older names of two family types, which the benchmark's cli_cold workload
# still runs (perfbench/workloads.py); they go when that workload changes
FAMILY_ALIASES = {"l39": "L3_9", "l211": "L2_11"}


def _cmd_family(args):
    from . import families, graphs
    from .weierstrass import j_invariant

    kind = FAMILY_ALIASES.get(args.family, args.family)
    t = _parse_t(args)
    sigs = families.class_signatures(kind, t, args.variant)
    return {"family": args.family, "type": kind, "variant": args.variant,
            "t": _t_json(t), "members": [
                {"label": label, **_sig_json(s), "j": fmt_rat(j_invariant(s))}
                for label, s in zip(graphs.graph_type(kind).vertices, sigs)]}


def _cmd_verify(args):
    # the only subcommand that needs mpmath, so the only one that loads it
    from . import oracle

    t = _parse_t(args)
    rep = oracle.verify_class(args.type, t, args.d, precision_bits=args.bits,
                              variant=args.variant)
    return {"type": args.type, "t": _t_json(t), "d": args.d, "bits": rep.bits,
            "vertices": [{"label": v.label,
                          "neron_volume": str(v.neron_volume),
                          "faltings_height": str(v.faltings_height),
                          "claimed_error": str(v.claimed_error)}
                         for v in rep.vertices],
            "argmin": rep.argmin_label, "theorem": rep.theorem_label,
            "match": rep.match, "margin": str(rep.margin)}


def _cmd_density(args):
    from . import sieve

    rep = sieve.squarefree_density(args.p, args.n)
    return {"p": rep.p, "bound": rep.bound,
            "divisible_fraction": rep.divisible_fraction,
            "squarefree_density": rep.squarefree_density}


def _cmd_empirical(args):
    from . import sieve

    t = _parse_t(args)
    freq = sieve.empirical_prob(args.type, t, args.n)
    return {"type": args.type, "t": _t_json(t), "bound": args.n, "frequencies": freq}


def _add_curve_flags(p):
    curve = p.add_mutually_exclusive_group(required=True)
    curve.add_argument("--ainvs", help="a1,a2,a3,a4,a6 (rationals)")
    curve.add_argument("--sig", help="c4,c6,delta (rationals)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals raise ValueError, so that ``run``
    prints them as JSON errors with exit code 2 (``--help`` still exits 0)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qtwist",
        description="Faltings curves in twisted isogeny classes: local "
                    "tables, decision rules, and numeric verification.")
    ap.add_argument("--pretty", action="store_true",
                    help="indent the JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="local data of a curve at p")
    _add_curve_flags(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("minimal", help="global minimal signature")
    _add_curve_flags(p)
    p.set_defaults(fn=_cmd_minimal)

    p = sub.add_parser("twist", help="quadratic twist and its minimal model")
    _add_curve_flags(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_twist)

    p = sub.add_parser("faltings", help="Faltings vertex of a twisted class")
    p.add_argument("--type", required=True)
    p.add_argument("--t", help="hauptmodul value (genus-0 types)")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_faltings)

    p = sub.add_parser("prob", help="all d-branches for a (type, t)")
    p.add_argument("--type", required=True)
    p.add_argument("--t")
    p.set_defaults(fn=_cmd_prob)

    p = sub.add_parser("family", help="the curves of a family at its vertices")
    p.add_argument("family", metavar="TYPE",
                   help="a type with curves in the registry (l39 and l211 name L3_9 and L2_11)")
    p.add_argument("--t")
    p.add_argument("--variant", default="a")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="numeric height argmin cross-check")
    p.add_argument("--type", required=True)
    p.add_argument("--t")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bits", type=int, default=128)
    p.add_argument("--variant", default="a")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("density", help="counted square-free densities")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=10**6)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("empirical", help="counted vertex frequencies")
    p.add_argument("--type", required=True)
    p.add_argument("--t")
    p.add_argument("--n", type=int, default=10**5)
    p.set_defaults(fn=_cmd_empirical)
    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.fn(args)
    except ValueError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2
    except TableMissError as e:
        print(json.dumps({"error": f"internal: {e}"}), file=sys.stderr)
        return 3
    out = {"schema_version": SCHEMA_VERSION, "command": args.command}
    out.update(result)
    print(json.dumps(out, indent=2 if args.pretty else None))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
