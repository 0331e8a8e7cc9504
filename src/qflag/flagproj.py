"""The defining projection of a quantized flag manifold.

For a parabolic subset S the generating projection lives in a matrix algebra
over the coordinate ring, built from the irreducible module V whose highest
weight is rho_S (the sum of the fundamental weights outside S).  With an
orthogonal weight basis (norms N_i, N_0 = 1) the natural entries carry square
roots of norms, so everything here is phrased in terms of the rational cores

    phat[i,j] = a^i_0 * conj(a^j_0),

where a^i_j is the (i,j) matrix coefficient of V and conj its star.  The
actual projection entries are sqrt(N_i N_j) phat[i,j]; every identity below
is the exact norm-weighted form of the corresponding projection identity and
stays inside the base field:

    idempotent:   sum_k N_k phat[i,k] phat[k,j] = phat[i,j]
    selfadjoint:  phat[i,j]^* = phat[j,i]
    trace:        sum_i q^(2rho, lam_i) N_i phat[i,i] = q^(2rho, rho_S) 1

The same scheme covers the matrix units of the full coefficient block,

    mu[a,b][i,j] = a^i_b * conj(a^j_a),

with phat = mu[0,0].  Columns index the highest-weight line, so the entries
are invariant under the Levi part of the parabolic: the generators named by S
annihilate (or fix, for the group-likes) every entry under the left regular
action.

No projection or matrix-unit law is checked entry by entry.  The products
are certified by the unitarity sums U[a,d] (verify_matrix_units), the star
laws by the star of the matrix coefficients (those of column 0 for P* = P,
verify_selfadjoint), and Levi invariance by one action per generator on
the vector leg that every phat entry shares (verify_levi_invariance).
"""

from __future__ import annotations

import itertools
from functools import partial

from qflag import Memo, cartan
from qflag.coord import DEFAULT_CAP, CoordAlgebra, ZeroCertificate
from qflag.repn import hw_module


class FlagContext:
    """Everything needed to state and check the projection identities for
    one (root system, parabolic subset, scalar field) choice.  cap bounds
    the defining module and, as its algebra's cap, every zero test.

    The matrix-unit cores mu[a,b][i,j] (phat included, as mu[0,0]) are a
    Memo on (a, b, i, j) per context, at most dim^4 one-term elements; its
    fn holds the algebra, not the context.  Sharing them is safe because
    elements are immutable values: every CoordElem operation builds new
    term dicts and none changes its operands."""

    def __init__(self, rs, subset, field, cap=DEFAULT_CAP):
        self.rs = rs
        self.par = cartan.parabolic(rs, subset)
        self.S = self.par.S
        self.field = field
        self.lam = self.par.rho_S
        self.m = hw_module(rs, self.lam, field, cap=cap)
        self.alg = CoordAlgebra(self.m, cap)
        self.dim = self.m.dim
        self.norms = self.m.norms
        self.wexp = tuple(self.alg.slots[False].r2exp)
        self.trace_exp = self.wexp[0]  # basis vector 0 is the highest
        self._cores = Memo(partial(_core, self.alg))

    # -- generators -------------------------------------------------------------

    def phat(self, i, j):
        return self.munit(0, 0, i, j)

    def munit(self, a, b, i, j):
        """Core of the (a,b) matrix unit of the coefficient block;
        memoized (see the class docstring)."""
        return self._cores[a, b, i, j]


def _core(alg, key):
    a, b, i, j = key
    return alg.mc(i, b) * alg.mc(j, a, barred=True)


def flag_context(family, rank, subset, field,
                 cap=DEFAULT_CAP) -> FlagContext:
    return FlagContext(cartan.root_system(family, rank), subset, field, cap)


# -- laws -----------------------------------------------------------------------
# The projection laws are the matrix-unit laws at a=b=c=d=0: phat = mu[0,0],
# N_0 = 1 and lam_0 = rho_S.


def _unitarity_law(ctx, a, d):
    """U[a,d] = sum_k N_k conj(a^k_a) a^k_d - delta_(a,d) N_a 1 as tensor
    terms (coeff, (elem,)), one per summand: the zero test scales each as
    it groups them, so no summed element is built."""
    alg = ctx.alg
    terms = [(ctx.norms[k], (alg.mc(k, a, barred=True) * alg.mc(k, d),))
             for k in range(ctx.dim)]
    if a == d:
        terms.append((-ctx.norms[a], (alg.unit(),)))
    return terms


def _trace_law(ctx, a, b):
    """sum_i q^(2rho, lam_i) N_i mu[a,b][i,i]
    - delta_(a,b) N_a q^(2rho, lam_a) 1 as tensor terms (_unitarity_law)."""
    F = ctx.field
    terms = [(F.q_power(ctx.wexp[i]) * ctx.norms[i], (ctx.munit(a, b, i, i),))
             for i in range(ctx.dim)]
    if a == b:
        terms.append((-(ctx.norms[a] * F.q_power(ctx.wexp[a])),
                      (ctx.alg.unit(),)))
    return terms


def _generator_star(ctx, i, j):
    """star(a^i_j) = conj(a^i_j) and star(conj(a^i_j)) = a^i_j,
    syntactically."""
    x, y = ctx.alg.mc(i, j), ctx.alg.mc(i, j, barred=True)
    return (x.star().canonical() == y.canonical()
            and y.star().canonical() == x.canonical())


# -- verifications --------------------------------------------------------------


def verify_idempotent(ctx: FlagContext) -> ZeroCertificate:
    """P^2 = P: sum_k N_k phat[i,k] phat[k,j] - phat[i,j]
    = a^i_0 U[0,0] conj(a^j_0) for every (i,j), the product law at
    a=b=c=d=0 with N_0 = 1 (see verify_matrix_units), so the one zero test
    of U[0,0] returned here certifies all dim^2 entries."""
    return ctx.alg.tensor_zero_test(_unitarity_law(ctx, 0, 0))


def verify_selfadjoint(ctx: FlagContext) -> bool:
    """phat[j,i]^* = phat[i,j] for every (i,j), exactly and syntactically.
    star is antimultiplicative (see verify_matrix_units), so
    star(phat[j,i]) = star(conj(a^i_0)) star(a^j_0), and the dim^2
    identities follow from star(a^i_0) = conj(a^i_0) and
    star(conj(a^i_0)) = a^i_0, the 2 dim comparisons made here."""
    return all(_generator_star(ctx, i, 0) for i in range(ctx.dim))


def verify_qtrace(ctx: FlagContext) -> ZeroCertificate:
    """sum_i q^(2rho, lam_i) N_i phat[i,i] = q^(2rho, rho_S) 1."""
    return ctx.alg.tensor_zero_test(_trace_law(ctx, 0, 0))


def levi_generators(rs, S):
    """Generators of the invariance subalgebra: the full torus (every K_i)
    together with E_a, F_a for the marked simple roots a in S."""
    out = [("K", i, 1) for i in range(1, rs.rank + 1)]
    for a in S:
        out.extend([("E", a), ("F", a)])
    return out


def verify_levi_invariance(ctx: FlagContext):
    """Left action of the Levi generators fixes every entry: E_a and F_a
    (a in S) annihilate, K_a fixes.  Returns {generator: bool over all
    entries}, each from one action on the vector leg all entries share:

    * products concatenate words and keys, so every phat[i,j] is the one
      term (word, {(i, j): 1}, {(0, 0): 1}) with word (False, True);
    * act_left changes only the vector leg;
    * a one-term element with a non-zero functional has an empty normal
      form exactly when its vector leg is empty;
    * K maps the leg to q^e times itself, e the exponent of its weight;
      the normal form moves q^e into the functional, so an entry is fixed
      iff q^e = 1 (iff e = 0, unless q = 1), which is when the leg is.

    So a generator annihilates (or fixes) every entry iff it annihilates
    (or fixes) the leg {(0, 0): 1}, which is what the dim^2 entry checks
    would compare."""
    word, _, vec = ctx.phat(0, 0).terms[0]
    space = ctx.alg.space(word)
    return {gen: space.apply(gen, vec) == (vec if gen[0] == "K" else {})
            for gen in levi_generators(ctx.rs, ctx.S)}


def verify_matrix_units(ctx: FlagContext,
                        laws=("product", "star", "trace")):
    """The exact matrix-unit identities named in laws, for every index:

    product:  sum_k N_k mu[a,b][i,k] mu[c,d][k,j]
                  = delta_(a,d) N_a mu[c,b][i,j]
    star:     mu[a,b][j,i]^* = mu[b,a][i,j]           (syntactic)
    trace:    sum_i q^(2rho, lam_i) N_i mu[a,b][i,i]
                  = delta_(a,b) N_a q^(2rho, lam_a) 1

    Returns {"product": {(a,d): cert}, "star": bool,
    "trace": {(a,b): cert}}, restricted to the keys in laws.  Each law is
    checked on its own, so a cap overrun in one leaves the others intact.

    Product law from unitarity.  With mu[a,b][i,j] = a^i_b conj(a^j_a)
    (_core), the difference of the product law is

        sum_k N_k a^i_b conj(a^k_a) a^k_d conj(a^j_c)
            - delta_(a,d) N_a a^i_b conj(a^j_c) = a^i_b U[a,d] conj(a^j_c),
        U[a,d] = sum_k N_k conj(a^k_a) a^k_d - delta_(a,d) N_a 1,

    term by term, because products concatenate words (the unit is the
    empty word).  If U[a,d] vanishes on U_q(g), so does x U[a,d] y for
    every x and y, since the product is convolution through the coproduct.
    So the dim^2 zero tests of U[a,d] certify all dim^6 product identities,
    those with (a, d) by U[a,d].  They run as one batch; for a != d every
    U[a,d] has the same functional sum_k N_k (k, k) and its own vector leg
    (a, d), so they are closed together (CoordAlgebra.batch_zero_test).

    Star law from the generators.  CoordElem.star reverses the word and
    every key, so star(xy) = star(y) star(x) and star(star(x)) = x.  Then
    star(mu[a,b][j,i]) = star(conj(a^i_a)) star(a^j_b), and the dim^4 star
    identities follow from star(a^i_j) = conj(a^i_j) and
    star(conj(a^i_j)) = a^i_j, the 2 dim^2 comparisons made here.

    The trace law is tested for every (a, b) as one batch; for a != b the
    functional is again shared.
    """
    unknown = set(laws) - {"product", "star", "trace"}
    if unknown:
        raise ValueError(f"unknown matrix-unit laws {sorted(unknown)}")
    pairs = list(itertools.product(range(ctx.dim), repeat=2))
    out = {}
    if "product" in laws:
        out["product"] = dict(zip(pairs, ctx.alg.batch_zero_test(
            _unitarity_law(ctx, *ad) for ad in pairs)))
    if "star" in laws:
        out["star"] = all(_generator_star(ctx, *ij) for ij in pairs)
    if "trace" in laws:
        out["trace"] = dict(zip(pairs, ctx.alg.batch_zero_test(
            _trace_law(ctx, *ab) for ab in pairs)))
    return out
