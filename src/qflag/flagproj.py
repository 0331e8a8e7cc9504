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
# The projection laws are the matrix-unit laws at a=b=c=d=0, term for term:
# phat = mu[0,0], N_0 = 1 and lam_0 = rho_S.


def _product_law(ctx, a, b, c, d, i, j):
    """sum_k N_k mu[a,b][i,k] mu[c,d][k,j] - delta_(a,d) N_a mu[c,b][i,j]
    as tensor terms (coeff, (elem,)), one per summand: the zero test scales
    each as it groups them, so no summed element is built."""
    terms = [(ctx.norms[k], (ctx.munit(a, b, i, k) * ctx.munit(c, d, k, j),))
             for k in range(ctx.dim)]
    if a == d:
        terms.append((-ctx.norms[a], (ctx.munit(c, b, i, j),)))
    return terms


def _trace_law(ctx, a, b):
    """sum_i q^(2rho, lam_i) N_i mu[a,b][i,i]
    - delta_(a,b) N_a q^(2rho, lam_a) 1 as tensor terms (_product_law)."""
    F = ctx.field
    terms = [(F.q_power(ctx.wexp[i]) * ctx.norms[i], (ctx.munit(a, b, i, i),))
             for i in range(ctx.dim)]
    if a == b:
        terms.append((-(ctx.norms[a] * F.q_power(ctx.wexp[a])),
                      (ctx.alg.unit(),)))
    return terms


def _star_law(ctx, a, b, i, j):
    """mu[a,b][j,i]^* = mu[b,a][i,j], exactly and syntactically."""
    return (ctx.munit(a, b, j, i).star().canonical()
            == ctx.munit(b, a, i, j).canonical())


# -- verifications --------------------------------------------------------------


def verify_idempotent(ctx: FlagContext):
    """Check sum_k N_k phat[i,k] phat[k,j] = phat[i,j] for every (i,j), as
    one batch: the pairs share one vector closure and, when every pair is
    zero, one functional closure.  Returns {(i,j): ZeroCertificate}."""
    pairs = list(itertools.product(range(ctx.dim), repeat=2))
    certs = ctx.alg.batch_zero_test(
        (_product_law(ctx, 0, 0, 0, 0, i, j) for i, j in pairs))
    return dict(zip(pairs, certs))


def verify_selfadjoint(ctx: FlagContext) -> bool:
    """phat[i,j]^* = phat[j,i], exactly and syntactically."""
    return all(_star_law(ctx, 0, 0, i, j)
               for i, j in itertools.product(range(ctx.dim), repeat=2))


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
    (a in S) annihilate, K_a fixes.  Syntactic (the annihilation is exact
    term-by-term because the highest-weight column is a Levi-trivial line).
    Returns {generator: bool over all entries}."""
    out = {}
    for gen in levi_generators(ctx.rs, ctx.S):
        ok = True
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                p = ctx.phat(i, j)
                got = p.act_left(gen)
                if gen[0] == "K":
                    ok = ok and got.canonical() == p.canonical()
                else:
                    ok = ok and not got.canonical()
        out[gen] = ok
    return out


def verify_matrix_units(ctx: FlagContext, indices=None,
                        laws=("product", "star", "trace")):
    """The exact matrix-unit identities named in laws, over the given
    index set:

    product:  sum_k N_k mu[a,b][i,k] mu[c,d][k,j]
                  = delta_(a,d) N_a mu[c,b][i,j]
    star:     mu[a,b][j,i]^* = mu[b,a][i,j]           (syntactic)
    trace:    sum_i q^(2rho, lam_i) N_i mu[a,b][i,i]
                  = delta_(a,b) N_a q^(2rho, lam_a) 1

    Returns {"product": {(a,b,c,d,i,j): cert}, "star": bool,
    "trace": {(a,b): cert}}, restricted to the keys in laws.  Each law is
    checked on its own, so a cap overrun in one leaves the others intact.
    The product identities are tested as one batch: those of one
    (a,b,c,d) share their vector legs, and for a != d the functional of
    entry (i,j) does not depend on (a,b,c,d), so whole families share one
    raising and one lowering closure (CoordAlgebra.batch_zero_test).
    """
    unknown = set(laws) - {"product", "star", "trace"}
    if unknown:
        raise ValueError(f"unknown matrix-unit laws {sorted(unknown)}")
    idx = list(indices) if indices is not None else list(range(ctx.dim))
    out = {}
    if "product" in laws:
        keys = list(itertools.product(idx, repeat=6))
        certs = ctx.alg.batch_zero_test(
            _product_law(ctx, *key) for key in keys)
        out["product"] = dict(zip(keys, certs))
    if "star" in laws:
        out["star"] = all(_star_law(ctx, *abij)
                          for abij in itertools.product(idx, repeat=4))
    if "trace" in laws:
        out["trace"] = {ab: ctx.alg.tensor_zero_test(_trace_law(ctx, *ab))
                        for ab in itertools.product(idx, repeat=2)}
    return out
