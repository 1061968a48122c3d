"""Seeded DSL variants of the built-in group laws.

A variant is the built-in law transported along a random triangular
coordinate change over F_p,

    phi(x)_i = x_i + f_i(x_1, ..., x_{i-1}),

where each f_i is a small polynomial without constant term.  The new
product is phi^{-1}(phi(x) * phi(y)).  Because phi is an isomorphism
defined over F_p it commutes with Frobenius, so the variant has the same
class count, class sizes, norm-map cycle type and easiness verdict as the
built-in at every level, while its polynomials (and so its class
representatives and norm permutation) differ.  Commutative laws stay
commutative as polynomials, because phi(x) + phi(y) is symmetric.
"""

from __future__ import annotations

import random

from asaitwist.grouplaw import Polynomial, canonical_text, make_law, parse_group_name


def _random_shift(rng: random.Random, p: int, nvars: int, i: int) -> Polynomial:
    """f_i: one or two quadratic monomials in the coordinates before i, maybe plus a linear one."""
    if i == 0:
        return Polynomial.zero(p, nvars)
    raw = []
    for _ in range(rng.randint(1, 2)):
        exps = [0] * nvars
        exps[rng.randrange(i)] += 1
        exps[rng.randrange(i)] += 1
        raw.append((rng.randrange(1, p), tuple(exps)))
    if rng.random() < 0.5:
        exps = [0] * nvars
        exps[rng.randrange(i)] = 1
        raw.append((rng.randrange(1, p), tuple(exps)))
    return Polynomial.make(p, nvars, raw)


def _shift_to_y(poly: Polynomial, d: int) -> Polynomial:
    """The same polynomial with x_j renamed to y_j."""
    return Polynomial.make(
        poly.p, poly.nvars, [(c, e[d:] + e[:d]) for c, e in poly.terms]
    )


def variant_law(group: str, p: int, seed: int, name: str):
    """The built-in `group` over F_p transported along a seeded phi.

    Shifts that leave the polynomials unchanged (linear ones, or ones
    whose terms cancel) are redrawn, so the variant always differs from
    the built-in as text; a law with no such shift is refused.
    """
    base = parse_group_name(group, p)
    d, nv = base.dim, 2 * base.dim
    rng = random.Random(f"{group}:{p}:{seed}")
    for _ in range(64):
        shifts = [_random_shift(rng, p, nv, i) for i in range(d)]
        phi_x = [Polynomial.variable(p, nv, i).add(shifts[i]) for i in range(d)]
        images = {j: phi_x[j] for j in range(d)}
        images.update({d + j: _shift_to_y(phi_x[j], d) for j in range(d)})
        product = [poly.subs(images) for poly in base.mul]
        # phi^{-1}(w)_i = w_i - f_i(phi^{-1}(w)_1, ..., phi^{-1}(w)_{i-1})
        mul: list[Polynomial] = []
        for i in range(d):
            mul.append(product[i].sub(shifts[i].subs({j: mul[j] for j in range(i)})))
        if tuple(mul) != base.mul:
            return make_law(name, p, d, tuple(mul))
    raise ValueError(f"no nontrivial coordinate change found for {group} over F_{p}")


def variant_text(group: str, p: int, seed: int, name: str) -> str:
    """DSL text of variant_law; this is all the program is given."""
    return canonical_text(variant_law(group, p, seed, name))
