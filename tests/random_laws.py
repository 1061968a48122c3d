"""Random triangular DSL laws for property tests.

A drawn law is a built-in law transported along a random triangular
coordinate change phi(x)_i = x_i + f_i(x_1, ..., x_{i-1}) over F_p: the
product is phi^{-1}(phi(x) * phi(y)).  Besides the built-ins, the base
can be ga_power(4) made noncommutative: its last two coordinates gain
x1*y2 and random biadditive terms in the first two coordinates, which
stay additive, so each term is a 2-cocycle and the law is associative.
The law is printed to DSL text and parsed back, as a user's law is.
"""

from hypothesis import strategies as st

from asaitwist.grouplaw import (
    GroupLaw,
    Polynomial,
    canonical_text,
    make_law,
    parse_group_dsl,
    parse_group_name,
)

BUILTINS = ["n2", "ga_power(2)", "ga_power(3)", "ul(3)"]
# largest group a drawn (law, q, m) enumerates
MAX_DRAWN_ORDER = 125


def _y_renamed(poly: Polynomial, d: int) -> Polynomial:
    return Polynomial.make(poly.p, poly.nvars, [(c, e[d:] + e[:d]) for c, e in poly.terms])


def transported_law(base: GroupLaw, shifts) -> GroupLaw:
    """base moved along phi(x)_i = x_i + shifts[i](x_{<i})."""
    p, d, nv = base.p, base.dim, 2 * base.dim
    phi = [Polynomial.variable(p, nv, i).add(shifts[i]) for i in range(d)]
    images = {j: phi[j] for j in range(d)}
    images.update({d + j: _y_renamed(phi[j], d) for j in range(d)})
    product = [poly.subs(images) for poly in base.mul]
    mul = []
    for i in range(d):
        # phi^{-1}(w)_i = w_i - f_i(phi^{-1}(w)_{<i})
        mul.append(product[i].sub(shifts[i].subs({j: mul[j] for j in range(i)})))
    return make_law("transported", p, d, tuple(mul))


def _twisted_ga4(draw, p: int) -> GroupLaw:
    """ga_power(4) plus x1*y2 and random biadditive terms c*x_a*y_b^(p^k),
    a, b in {1, 2}, on coordinates 3 and 4."""
    base = parse_group_name("ga_power(4)", p)
    mul = list(base.mul)
    for i in (2, 3):
        raw = [(1, (1, 0, 0, 0, 0, 1, 0, 0))] if i == 2 else []
        for _ in range(draw(st.integers(0, 2))):
            exps = [0] * 8
            exps[draw(st.integers(0, 1))] = 1
            exps[4 + draw(st.integers(0, 1))] = p ** draw(st.integers(0, 1))
            raw.append((draw(st.integers(1, p - 1)), tuple(exps)))
        mul[i] = mul[i].add(Polynomial.make(p, 8, raw))
    return make_law("ga4_twisted", p, 4, tuple(mul))


@st.composite
def random_dsl_law(draw, groups=BUILTINS, primes=(2, 3)):
    """A transported law, parsed back from its DSL text, with (q = p, m).

    groups may also name "ga_power(4)", drawn with random cocycle terms.
    """
    group = draw(st.sampled_from(groups))
    d = parse_group_name(group, 2).dim
    p = draw(st.sampled_from([p for p in primes if p**d <= MAX_DRAWN_ORDER]))
    base = _twisted_ga4(draw, p) if group == "ga_power(4)" else parse_group_name(group, p)
    nv = 2 * d
    shifts = [Polynomial.zero(p, nv)]
    for i in range(1, d):
        raw = []
        for _ in range(draw(st.integers(0, 2))):
            exps = [0] * nv
            for _ in range(draw(st.integers(1, 2))):
                exps[draw(st.integers(0, i - 1))] += 1
            raw.append((draw(st.integers(1, p - 1)), tuple(exps)))
        shifts.append(Polynomial.make(p, nv, raw))
    law = parse_group_dsl(canonical_text(transported_law(base, shifts)))
    m = draw(st.sampled_from([m for m in (1, 2) if p ** (m * d) <= MAX_DRAWN_ORDER]))
    return law, p, m
