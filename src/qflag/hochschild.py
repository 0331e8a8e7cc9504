"""Twisted chain complex over the coordinate algebra, the canonical cycle of
the flag projection, and the simple-root cocycles that pair with it.

A degree-n chain is a finite sum of (n+1)-fold tensors of coordinate-algebra
elements.  The boundary twists the wrap-around face by the modular
automorphism theta:

    b(a_0 x ... x a_n) = sum_i (-1)^i a_0 x .. x a_i a_(i+1) x .. x a_n
                       + (-1)^n theta(a_n) a_0 x a_1 x .. x a_(n-1)

(`twist="identity"` drops the theta; that variant is the negative control:
the canonical cycle is a cycle only up to degenerate terms and only for the
modular twist).  Normalization subtracts the counit part from every leg after
the first; the canonical cycle's boundary is zero exactly modulo such
degenerate tails, and the leftover counit content is a single power of q that
is measured, not assumed.

The canonical cycle of the projection with entries sqrt(N_i N_j) phat[i,j]
is the weighted trace of (2P - 1) x P x P:

    C(P) = sum_ijk q^(2rho, lam_i) 2 N_i N_j N_k  phat[i,j] x phat[j,k] x phat[k,i]
         - sum_ik  q^(2rho, lam_i) N_i N_k        1 x phat[i,k] x phat[k,i]

For each simple root a the degree-2 functional

    eta_a(a_0 x a_1 x a_2) = eps(a_0) eps(F_a |> a_1) eps(E_a |> a_2)

pairs with degree-2 chains.  It is a twisted cocycle on the subalgebra
generated by the projection cores -- the domain where every group-like
evaluates as the counit (weight-zero vector legs), which kills the
group-like discrepancy terms in eta o b; on the full coordinate ring those
terms survive, and a chain of raw matrix coefficients witnesses that (see
the tests).  Its value on C(P) is a closed form in q, exposed here as
`expected_pairing`.
"""

from __future__ import annotations

from random import Random

from qflag import Memo, cartan
from qflag.flagproj import FlagContext

# The chain routines keep a Memo per call, keyed by leg objects (or tuples
# of them): CoordElem hashes by identity and is immutable, so a leg that
# occurs in many terms is evaluated once.


class Chain:
    """Formal sum of (degree+1)-fold tensors of CoordElems."""

    __slots__ = ("alg", "degree", "terms")

    def __init__(self, alg, degree, terms):
        self.alg = alg
        self.degree = degree
        self.terms = tuple(terms)
        for c, legs in self.terms:
            if len(legs) != degree + 1:
                raise ValueError("leg count does not match the degree")

    def canonical(self):
        """Hashable syntactic normal form: term list sorted with stringified
        coefficients and per-leg canonical forms."""
        items = sorted((str(c), tuple(l.canonical() for l in legs))
                       for c, legs in self.terms if c)
        return tuple(items)

    def counit_value(self):
        """eps applied to every leg, summed."""
        eps = Memo(lambda l: l.counit())
        tot = self.alg.field.zero
        for c, legs in self.terms:
            v = c
            for l in legs:
                v = v * eps[l]
                if not v:
                    break
            tot = tot + v
        return tot


def twisted_boundary(ch: Chain, twist="theta") -> Chain:
    if twist not in ("theta", "identity"):
        raise ValueError(f"unknown twist {twist!r}")
    if ch.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    n = ch.degree
    prod = Memo(lambda pair: pair[0] * pair[1])
    theta = Memo(lambda l: l.theta())
    out = []
    for c, legs in ch.terms:
        for i in range(n):
            ci = -c if i % 2 else c
            out.append((ci, legs[:i] + (prod[legs[i], legs[i + 1]],)
                        + legs[i + 2:]))
        last = theta[legs[n]] if twist == "theta" else legs[n]
        cn = -c if n % 2 else c
        out.append((cn, (prod[last, legs[0]],) + legs[1:n]))
    return Chain(ch.alg, n - 1, out)


def normalize(ch: Chain) -> Chain:
    """Subtract the counit part of every leg after the first.  Idempotent."""
    unit = ch.alg.unit()

    def reduced(l):
        e = l.counit()
        return l - unit * e if e else l

    red = Memo(reduced)
    out = [(c, legs[:1] + tuple(red[l] for l in legs[1:]))
           for c, legs in ch.terms]
    return Chain(ch.alg, ch.degree, out)


def chain_zero(ch: Chain):
    """Exact zero certificate for a chain of degree <= 1."""
    return ch.alg.tensor_zero_test(list(ch.terms))


# -- the canonical cycle ---------------------------------------------------------


def idempotent_cycle(ctx: FlagContext) -> Chain:
    F = ctx.field
    alg = ctx.alg
    two = F.from_fraction(2)
    terms = []
    for i in range(ctx.dim):
        qi = F.q_power(ctx.wexp[i])
        for j in range(ctx.dim):
            qij = qi * two * ctx.norms[i] * ctx.norms[j]
            for k in range(ctx.dim):
                terms.append((qij * ctx.norms[k],
                              (ctx.phat(i, j), ctx.phat(j, k),
                               ctx.phat(k, i))))
    one = alg.unit()
    for i in range(ctx.dim):
        qi = F.q_power(ctx.wexp[i])
        for k in range(ctx.dim):
            coeff = qi * ctx.norms[i] * ctx.norms[k]
            terms.append((-coeff, (one, ctx.phat(i, k), ctx.phat(k, i))))
    return Chain(alg, 2, terms)


def verify_cycle(ctx: FlagContext):
    """The twisted boundary of the canonical cycle vanishes after
    normalization; the unnormalized boundary's counit content is measured.

    Returns (certificate, residual scalar, expected residual scalar):
    the residual is the counit pairing of the raw boundary, expected to be
    the trace weight q^(2rho, rho_S)."""
    z = twisted_boundary(idempotent_cycle(ctx), twist="theta")
    cert = chain_zero(normalize(z))
    residual = z.counit_value()
    expected = ctx.field.q_power(ctx.trace_exp)
    return cert, residual, expected


def identity_twist_control(ctx: FlagContext):
    """Negative control: with the identity twist the normalized boundary
    must NOT vanish."""
    z = twisted_boundary(idempotent_cycle(ctx), twist="identity")
    return chain_zero(normalize(z))


# -- simple-root cocycles ----------------------------------------------------------


def eta_value(ctx: FlagContext, a, ch: Chain):
    """eta_a evaluated on a degree-2 chain."""
    if ch.degree != 2:
        raise ValueError("eta pairs with degree-2 chains")
    cartan.simple_root(ctx.rs, a)  # raises ValueError for a bad index
    eps = Memo(lambda l: l.counit())
    eps_f = Memo(lambda l: l.act_left(("F", a)).counit())
    eps_e = Memo(lambda l: l.act_left(("E", a)).counit())
    tot = ctx.field.zero
    for c, (a0, a1, a2) in ch.terms:
        v = c * eps[a0]
        if not v:
            continue
        v = v * eps_f[a1]
        if not v:
            continue
        v = v * eps_e[a2]
        tot = tot + v
    return tot


def expected_pairing(ctx: FlagContext, a):
    """Closed form for eta_a(C(P)):
    q^(2rho - alpha_a, rho_S) [ (rho_S, alpha_a-check) ]_(q_a)."""
    rs = ctx.rs
    shifted = tuple(x - y for x, y in zip(cartan.two_rho_root(rs),
                                          cartan.simple_root(rs, a)))
    e = cartan.form_rw(rs, shifted, ctx.lam)
    n = ctx.lam[a - 1]
    return ctx.field.q_power(e) * ctx.field.q_int(n, rs.d[a - 1])


def verify_pairing(ctx: FlagContext, a):
    got = eta_value(ctx, a, idempotent_cycle(ctx))
    want = expected_pairing(ctx, a)
    return got, want


# -- randomized cocycle samples ------------------------------------------------------


def random_chain(ctx: FlagContext, degree, seed) -> Chain:
    """Deterministic pseudo-random two-term chain; its legs are products of
    projection cores (the natural test vectors for the cocycle property)."""
    rng = Random(seed)
    F = ctx.field
    terms = []
    for _ in range(2):
        coeff = F.q_power(rng.randint(-2, 2)) * \
            F.from_fraction(rng.randint(1, 3))
        legs = []
        for _ in range(degree + 1):
            i, j = rng.randrange(ctx.dim), rng.randrange(ctx.dim)
            leg = ctx.phat(i, j)
            if rng.random() < 0.5:
                k, l = rng.randrange(ctx.dim), rng.randrange(ctx.dim)
                leg = leg * ctx.phat(k, l)
            legs.append(leg)
        terms.append((coeff, tuple(legs)))
    return Chain(ctx.alg, degree, terms)


def verify_cocycle_sample(ctx: FlagContext, a, seed):
    """eta_a vanishes on twisted boundaries: eta_a(b_theta(w)) = 0 for a
    random degree-3 chain w.  Returns the computed scalar (zero on pass)."""
    w = random_chain(ctx, 3, seed)
    return eta_value(ctx, a, twisted_boundary(w, twist="theta"))
