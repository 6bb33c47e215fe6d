"""Exact square-free counts up to a bound, to set against the exact branch
probabilities of the decision tables.  S(Y) = sum over k <= sqrt(Y) of
mu(k) * floor(Y / k^2) counts the square-free n <= Y (Hardy and Wright, An
Introduction to the Theory of Numbers, 18.6).  Those prime to p number
P(Y) = S(Y) - P(Y / p) = sum over j >= 0 of (-1)^j * S(floor(Y / p^j)):
a square-free n <= Y divisible by p is p * m, with m square-free, prime to
p and at most Y / p.  Both take time and memory of order sqrt(Y)."""

from typing import NamedTuple, Optional

from .exactnum import RatLike, check_prime


def _mobius(bound: int) -> list:
    """[0, mu(1), mu(2), ...] past sqrt(bound), for an int bound in 10^4..10^12."""
    if type(bound) is not int or not 10**4 <= bound <= 10**12:
        raise ValueError(f"bound = {bound!r} is not an integer in 10^4..10^12")
    r = int(bound ** 0.5) + 1
    mu, prime = [0] + [1] * r, bytearray(b"\x01") * (r + 1)
    for p in range(2, r + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, r + 1, p)))
            mu[p::p] = [-m for m in mu[p::p]]
            mu[p * p::p * p] = [0] * (r // (p * p))
    return mu


def _count(y: int, mu: list, p: Optional[int] = None) -> int:
    """S(y), or for a prime p the number P(y) of square-free n <= y prime to p."""
    # a k past sqrt(y) adds mu(k) * 0, so the float root need only be near
    s = sum(m * (y // (k * k)) for k, m in enumerate(mu[:int(y ** 0.5) + 2]) if m)
    return s - _count(y // p, mu, p) if p and y else s


class DensityReport(NamedTuple):
    p: int
    bound: int
    divisible_fraction: float
    squarefree_density: float


def squarefree_density(p: int, bound: int) -> DensityReport:
    """Among square-free n <= bound: fraction divisible by p, plus the
    overall square-free density (expected 1/(1+p) and 6/pi^2)."""
    check_prime(p)
    mu = _mobius(bound)
    total = _count(bound, mu)
    return DensityReport(p, bound, _count(bound // p, mu, p) / total, total / bound)


def empirical_prob(kind: str, t: Optional[RatLike], bound: int) -> dict:
    """Frequencies, over square-free |d| <= bound, of the vertex chosen by
    the closed-form decision.  The d divisible by p are p times the d prime
    to p up to bound / p, and every condition is sign-blind."""
    from . import graphs  # here, so that density does not load the registry

    rows = graphs.prob_table(kind, t)
    mu = _mobius(bound)
    total = _count(bound, mu)
    freq: dict = {}
    for row in rows:
        div = _count(bound // row.p, mu, row.p) if row.p else 0
        count = div if row.divisible else total - div
        freq[row.vertex] = freq.get(row.vertex, 0.0) + count / total
    return freq
