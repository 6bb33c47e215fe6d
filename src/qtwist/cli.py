"""Command-line front end.

Subcommands: classify, minimal, twist, faltings, prob, family, verify,
density, empirical.  Output is JSON (default) with exact rationals as
"num/den" strings; --pretty prints key: value lines.  Exit codes:
0 success, 2 invalid input, 3 internal table miss / tie.

A call runs in a fresh process, so each subcommand imports the modules it
runs when it runs, and the module level imports ``exactnum`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactnum import TableMissError, TieError, fmt_rat, parse_rat

SCHEMA_VERSION = 2


def _sig_from_args(args):
    from .weierstrass import AInvariants, Signature, signature_of

    if getattr(args, "ainvs", None):
        parts = [parse_rat(x) for x in args.ainvs.split(",")]
        if len(parts) != 5:
            raise ValueError("--ainvs needs a1,a2,a3,a4,a6")
        return signature_of(AInvariants(*parts))
    if getattr(args, "sig", None):
        parts = [parse_rat(x) for x in args.sig.split(",")]
        if len(parts) != 3:
            raise ValueError("--sig needs c4,c6,delta")
        return Signature(*parts)
    raise ValueError("one of --ainvs or --sig is required")


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
        "minimal_p_signature": list(c.minimal_psig),
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


def _cmd_faltings(args):
    from . import graphs

    t = _parse_t(args)
    res = graphs.faltings_by_theorem(args.type, t, args.d)
    cross = graphs.faltings_by_volumes(args.type, t, args.d)
    if cross != res.vertex:
        raise TieError(
            f"volume argmax {cross} disagrees with decision table {res.vertex}")
    return {"type": args.type, "t": _t_json(t), "d": args.d, "vertex": res.vertex,
            "d_condition": res.d_condition, "probability": fmt_rat(res.probability)}


def _cmd_prob(args):
    from . import graphs

    t = _parse_t(args)
    rows = graphs.prob_table(args.type, t)
    return {"type": args.type, "t": _t_json(t),
            "branches": [{"vertex": r.vertex, "d_condition": r.d_condition,
                          "probability": fmt_rat(r.probability)} for r in rows]}


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
                          "neron_volume": mp_str(v.neron_volume),
                          "faltings_height": mp_str(v.faltings_height),
                          "claimed_error": mp_str(v.claimed_error)}
                         for v in rep.vertices],
            "argmin": rep.argmin_label, "theorem": rep.theorem_label,
            "match": rep.match, "margin": mp_str(rep.margin)}


def mp_str(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


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
    p.add_argument("--ainvs", help="a1,a2,a3,a4,a6 (rationals)")
    p.add_argument("--sig", help="c4,c6,delta (rationals)")


class _LazyChoices:
    """Choices of an option, read from a module only when the option is
    parsed (argparse tests membership, and lists them in its error)."""

    def __init__(self, read):
        self._read = read

    def __contains__(self, value) -> bool:
        return value in self._read()

    def __iter__(self):
        return iter(self._read())


def _all_types():
    from .graphs import ALL_TYPES
    return ALL_TYPES


def _family_types():
    from .families import FAMILIES
    return FAMILIES


# each --type sets metavar="TYPE": to name an option without one, argparse
# lists its choices as the option is added
TYPE_CHOICES = _LazyChoices(_all_types)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtwist",
        description="Faltings curves in twisted isogeny classes: local "
                    "tables, decision rules, and numeric verification.")
    ap.add_argument("--pretty", action="store_true",
                    help="human-readable output instead of JSON")
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
    p.add_argument("--type", required=True, choices=TYPE_CHOICES, metavar="TYPE")
    p.add_argument("--t", help="hauptmodul value (genus-0 types)")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_faltings)

    p = sub.add_parser("prob", help="all d-branches for a (type, t)")
    p.add_argument("--type", required=True, choices=TYPE_CHOICES, metavar="TYPE")
    p.add_argument("--t")
    p.set_defaults(fn=_cmd_prob)

    p = sub.add_parser("family", help="the curves of a family at its vertices")
    p.add_argument("family", metavar="TYPE",
                   help="a type with curves in the registry (l39 and l211 name L3_9 and L2_11)")
    p.add_argument("--t")
    p.add_argument("--variant", default="a")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="numeric height argmin cross-check")
    p.add_argument("--type", required=True, choices=_LazyChoices(_family_types),
                   metavar="TYPE")
    p.add_argument("--t")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bits", type=int, default=128)
    p.add_argument("--variant", default="a")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("density", help="sieved square-free densities")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=10**6)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("empirical", help="sieved vertex frequencies")
    p.add_argument("--type", required=True, choices=TYPE_CHOICES, metavar="TYPE")
    p.add_argument("--t")
    p.add_argument("--n", type=int, default=10**5)
    p.set_defaults(fn=_cmd_empirical)
    return ap


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        def flat(prefix, v):
            if isinstance(v, dict):
                for k, w in v.items():
                    flat(f"{prefix}{k}.", w)
            elif isinstance(v, list):
                for i, w in enumerate(v):
                    flat(f"{prefix}{i}.", w)
            else:
                print(f"{prefix[:-1]}: {v}")
        flat("", obj)
    else:
        print(json.dumps(obj))


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        result = args.fn(args)
    except (ValueError, ZeroDivisionError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2
    except (TableMissError, TieError) as e:
        print(json.dumps({"error": f"internal: {e}"}), file=sys.stderr)
        return 3
    out = {"schema_version": SCHEMA_VERSION, "command": args.command}
    out.update(result)
    _emit(out, args.pretty)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
