"""The package's records: immutable, compared and hashed by their fields,
with the checks of ``Signature`` run on construction.  ``KodairaSymbol``
checks nothing: the local tables' outcomes are checked at import instead
(``TestOutcomeCheck`` in test_localdata.py)."""

from fractions import Fraction

import mpmath as mp
import pytest

from qtwist.graphs import FaltingsResult, UVectors
from qtwist.localdata import KodairaSymbol, LocalClassification
from qtwist.oracle import HeightReport, LatticeApprox, VertexHeight
from qtwist.sieve import DensityReport
from qtwist.weierstrass import (
    AInvariants,
    PSignature,
    Signature,
    signature_of,
    transform,
    twist_sig,
)

S11 = Signature(496, 20008, -161051)


def _records():
    """Two records built apart from the same fields, for each record class."""
    vertex = lambda: VertexHeight("E_1", mp.mpf(2), mp.mpf(3), mp.mpf(0))  # noqa: E731
    makers = [
        lambda: AInvariants(0, -1, 1, -10, -20),
        lambda: Signature(496, 20008, -161051),
        lambda: PSignature(0, 0, 5),
        lambda: KodairaSymbol("In", 5),
        lambda: LocalClassification(11, 0, PSignature(0, 0, 5), KodairaSymbol("In", 5),
                                    frozenset(), (0, 0), S11),
        lambda: UVectors((1, 3), (1, 1)),
        lambda: FaltingsResult("E_3", 3, True),
        lambda: DensityReport(3, 10**4, 0.25, 0.6),
        lambda: LatticeApprox(mp.mpf(2), mp.mpf(0)),
        vertex,
        lambda: HeightReport((vertex(),), "E_1", "E_1", True, 128, mp.mpf(3)),
    ]
    return [pytest.param(make(), make(), id=type(make()).__name__) for make in makers]


@pytest.mark.parametrize("a, b", _records())
def test_fields_cannot_be_assigned(a, b):
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])
    assert a == b


@pytest.mark.parametrize("a, b", _records())
def test_equal_fields_give_equal_records_and_hashes(a, b):
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("args, message", [
    ((1, 1, 0), "singular: Delta = 0"),
    ((1, 1, 1), r"c4\^3 - c6\^2 != 1728\*Delta"),
])
def test_signature_messages(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Signature(*args)


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("fields", [
    tuple(transform(S11, 3)), tuple(transform(S11, 5)),
    (Fraction(5, 2), Fraction(7, 3), (Fraction(5, 2) ** 3 - Fraction(7, 3) ** 2) / 1728),
])
def test_signature_refuses_a_part_moved_by_one_over_its_denominator(fields, field):
    # the identity is checked over the common denominator in integers
    assert all(x.denominator > 1 for x in Signature(*fields))
    moved = list(fields)
    for step in (1, -1):
        moved[field] = fields[field] + Fraction(step, fields[field].denominator)
        if moved[2] == 0:
            continue
        with pytest.raises(ValueError, match=r"^c4\^3 - c6\^2 != 1728\*Delta$"):
            Signature(*moved)


def test_signature_refuses_delta_zero_with_non_integral_parts():
    with pytest.raises(ValueError, match="^singular: Delta = 0$"):
        Signature(Fraction(9, 4), Fraction(27, 8), 0)


def test_replace_runs_the_checks():
    assert S11._replace(c4=Fraction(496)) == S11
    with pytest.raises(ValueError, match="^singular: Delta = 0$"):
        S11._replace(c4=0, c6=0, delta=0)


def test_signature_wraps_only_what_is_not_a_fraction():
    c4 = Fraction(496)
    s = Signature(c4, 20008, Fraction(-161051))
    assert s.c4 is c4
    assert type(s.c6) is Fraction and s.c6 == 20008
    assert s == S11


def test_post_init_on_the_class_sees_every_construction(monkeypatch):
    # a tracer counts Signature constructions by rebinding this hook
    seen = []
    check = Signature.__post_init__

    def counting(self):
        seen.append(self)
        check(self)

    monkeypatch.setattr(Signature, "__post_init__", counting)
    built = [Signature(496, 20008, -161051), transform(S11, 2), twist_sig(S11, -3),
             signature_of(AInvariants(0, -1, 1, -10, -20))]
    with pytest.raises(ValueError):
        Signature(1, 1, 1)
    assert seen == [*built, (1, 1, 1)]
