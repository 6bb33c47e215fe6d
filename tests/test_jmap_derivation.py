"""Re-derive the level-11 j-map from q-expansions.

Independent check of the hard-coded numerator polynomials of the j-map
``reference.x011_j``: build
x(q), y(q) for y^2 + y = x^3 - x^2 - 10x - 20 from the weight-2 level-11
eta product, build j(q) from Eisenstein series, and verify

    A(x) + y B(x) - (x - 16) j(q^11) = 0

identically to the computed precision.  Everything is exact rational
arithmetic on truncated Laurent series.
"""

from fractions import Fraction

from reference import X011_NUM_A, X011_NUM_B

HI = 40  # series computed modulo q^(HI+1)


def smul(a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            k = i + j
            if k <= HI:
                out[k] = out.get(k, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def sadd(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def sscale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def spow(a, n):
    out = {0: Fraction(1)}
    for _ in range(n):
        out = smul(out, a)
    return out


def qderiv(a):
    return {k: k * v for k, v in a.items() if k}


def eta_pow2_product(step):
    """prod (1 - q^(step*n))^2 up to q^HI (without the q^(1/12) prefactor)."""
    out = {0: Fraction(1)}
    for n in range(1, HI // step + 1):
        factor = {0: Fraction(1), step * n: Fraction(-2), 2 * step * n: Fraction(1)}
        out = smul(out, factor)
    return out


def solve_x_series(n_terms):
    """x(q) = q^-2 + 2q^-1 + ... solved from (q x')^2 = f^2 (2y+1)^2."""
    f = smul({1: Fraction(1)}, smul(eta_pow2_product(1), eta_pow2_product(11)))
    f2 = smul(f, f)

    def residual(x):
        qx = qderiv(x)
        lhs = smul(qx, qx)
        rhs_poly = sadd(
            sadd(spow(x, 3), sscale(spow(x, 2), Fraction(-1))),
            sadd(sscale(x, Fraction(-10)), {0: Fraction(-20)}),
        )
        rhs = smul(f2, sadd(sscale(rhs_poly, Fraction(4)), {0: Fraction(1)}))
        return sadd(lhs, sscale(rhs, Fraction(-1)))

    x = {-2: Fraction(1)}
    for n in range(-1, n_terms + 1):
        # the residual's lowest nonzero coefficient is affine in a_n
        target = -4 + (n + 2)
        r0 = residual(x).get(target, Fraction(0))
        x1 = dict(x)
        x1[n] = Fraction(1)
        r1 = residual(x1).get(target, Fraction(0))
        slope = r1 - r0
        assert slope != 0, f"resonance at n = {n}"
        x[n] = -r0 / slope
        if x[n] == 0:
            del x[n]
    return x, f


def j_series(upto):
    """j(q) = E4^3 / Delta to order q^upto."""
    def sigma3(n):
        return sum(d**3 for d in range(1, n + 1) if n % d == 0)

    e4 = {0: Fraction(1)}
    for n in range(1, upto + 2):
        e4[n] = Fraction(240 * sigma3(n))
    disc = {1: Fraction(1)}
    for n in range(1, upto + 2):
        disc = smul(disc, spow({0: Fraction(1), n: Fraction(-1)}, 24))
    # invert Delta = q (1 + c1 q + ...) by long division
    inv = {}
    rem = {0: Fraction(1)}  # want inv with disc * inv = 1
    lead = min(disc)
    for k in range(-lead, upto + 1):
        c = rem.get(k + lead, Fraction(0)) / disc[lead]
        if c:
            inv[k] = c
            rem = sadd(rem, {ki + k: -c * v for ki, v in disc.items()})
    j = smul(spow(e4, 3), inv)
    return {k: v for k, v in j.items() if k <= upto}


def test_jmap_identity_from_q_expansions():
    x, f = solve_x_series(20)
    # y from the same relation; leading term -q^-3
    f_inv = {}
    rem = {0: Fraction(1)}
    for k in range(-1, 24):
        c = rem.get(k + 1, Fraction(0)) / f[1]
        if c:
            f_inv[k] = c
        rem = sadd(rem, sscale({ki + k: v for ki, v in f.items()}, -c))
    s = smul(qderiv(x), f_inv)
    y = sscale(sadd(s, {0: Fraction(-1)}), Fraction(1, 2))

    # sanity: the series satisfies the curve equation
    curve = sadd(
        sadd(smul(y, y), y),
        sscale(
            sadd(
                sadd(spow(x, 3), sscale(spow(x, 2), Fraction(-1))),
                sadd(sscale(x, Fraction(-10)), {0: Fraction(-20)}),
            ),
            Fraction(-1),
        ),
    )
    for k in range(-6, 7):
        assert curve.get(k, Fraction(0)) == 0, f"curve eq fails at q^{k}"

    # first coefficients of the modular parametrization
    assert [x.get(k, Fraction(0)) for k in range(-2, 3)] == [1, 2, 4, 5, 8]
    assert [y.get(k, Fraction(0)) for k in range(-3, 0)] == [-1, -3, -7]

    # the identity  A(x) + y B(x) = (x - 16) j(q^11)
    j = j_series(2)
    j11 = {11 * k: v for k, v in j.items()}
    lhs = {}
    for k, c in enumerate(X011_NUM_A):
        lhs = sadd(lhs, sscale(spow(x, k), Fraction(c)))
    for k, c in enumerate(X011_NUM_B):
        lhs = sadd(lhs, smul(y, sscale(spow(x, k), Fraction(c))))
    rhs = smul(sadd(x, {0: Fraction(-16)}), j11)
    diff = sadd(lhs, sscale(rhs, Fraction(-1)))
    for k in range(-13, 7):
        assert diff.get(k, Fraction(0)) == 0, f"j-map identity fails at q^{k}"
