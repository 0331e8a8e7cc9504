"""Classical-limit differential geometry of the flag projection.

Everything here runs over the classical field (q = 1) and exact rationals.
For each positive root gamma outside the Levi part we build a root vector
e_gamma on the defining module by bracket recursion from the simple raising
operators, take its adjoint f_gamma with respect to the orthogonal-basis
form, and extract the normalization constant c_gamma from the diagonal of
[e_gamma, f_gamma] (which must equal c_gamma (mu_k, gamma) on every weight
mu_k -- both facts are asserted, not assumed).

Two exact identities are then checked:

* norm lemma: (f_gamma v0, f_gamma v0) = c_gamma (rho_S, gamma) for the
  highest vector v0;
* origin form: evaluating the canonical cycle C(P) at q = 1 against the
  first-order jet at the identity coset -- derivation f_alpha on plain slots
  and -e_alpha on conjugated slots against the conjugate-linear counterpart
  (e_beta / -f_beta) -- reproduces exactly twice the Gram matrix
  chat[alpha, beta] = (f_beta v0, f_alpha v0).

chat is diagonal by weights, with chat[alpha, alpha] / c_alpha =
(rho_S, alpha): the positive integers that make up the classical Kaehler
class of the flag manifold.
"""

from __future__ import annotations

from fractions import Fraction

from qflag import Memo, cartan
from qflag.coord import DEFAULT_CAP
from qflag.flagproj import FlagContext, flag_context
from qflag.hochschild import idempotent_cycle
from qflag.qscalar import classical_field
from qflag.repn import hw_module


def _commutator(A, B, zero):
    """AB - BA for square matrices over the field whose zero is given;
    products with a zero factor are skipped."""
    n = len(A)
    out = [[zero] * n for _ in range(n)]
    for row, a_row, b_row in zip(out, A, B):
        for k in range(n):
            a, b = a_row[k], b_row[k]
            if a:
                for j, y in enumerate(B[k]):
                    if y:
                        row[j] += a * y
            if b:
                for j, y in enumerate(A[k]):
                    if y:
                        row[j] -= b * y
    return out


class ClassicalKahler:
    """Root vectors, adjoints, and the origin Gram data for one parabolic."""

    def __init__(self, ctx: FlagContext):
        if not ctx.field.is_classical:
            raise ValueError("classical analysis needs the q = 1 field")
        self.ctx = ctx
        rs = ctx.rs
        zero = ctx.field.zero
        m = ctx.m
        dim = m.dim
        self.nil_roots = list(ctx.par.nil_pos)
        # only the non-Levi roots, which the block uses, must have nonzero
        # root vectors and a normalization: a nontrivial irreducible module
        # is faithful, so this only frees S = every simple root (rho_S = 0,
        # the trivial module), whose block has no roots at all
        nil = set(self.nil_roots)

        # simple raising operators as dense matrices
        simple = [cartan.simple_root(rs, i) for i in range(1, rs.rank + 1)]
        e = {a: m.matrix("E", i) for i, a in enumerate(simple, start=1)}
        # bracket recursion in height order, through the first simple alpha
        # with gamma - alpha a positive root: [g_alpha, g_gamma-alpha] =
        # g_gamma and the module is faithful, so the bracket is nonzero (on
        # the trivial module every bracket is zero, and the normalization
        # below catches a zero root vector of a non-Levi root)
        for gamma in rs.pos_roots:
            if gamma in e:
                continue
            for alpha in simple:
                rest = tuple(g - a for g, a in zip(gamma, alpha))
                if rest in e:
                    e[gamma] = _commutator(e[alpha], e[rest], zero)
                    break
        self.e = e

        # adjoints with respect to the diagonal form with weights N_k
        N = m.norms
        self.f = {}
        for gamma, A in e.items():
            self.f[gamma] = [[A[j][i] * N[j] / N[i] for j in range(dim)]
                             for i in range(dim)]

        # normalization constants from H = [e, f]
        self.c = {}
        for gamma in rs.pos_roots:
            H = _commutator(e[gamma], self.f[gamma], zero)
            c_val = None
            for k in range(dim):
                for l in range(dim):
                    if l != k and H[l][k]:
                        raise AssertionError(
                            f"[e, f] not diagonal for root {gamma}")
                t = cartan.form_rw(rs, gamma, m.weights[k])
                if t:
                    ratio = H[k][k] / t
                    if c_val is None:
                        c_val = ratio
                    elif c_val != ratio:
                        raise AssertionError(
                            f"inconsistent normalization for root {gamma}")
                elif H[k][k]:
                    raise AssertionError(
                        f"[e, f] acts on a {gamma}-orthogonal weight")
            if c_val is None and gamma not in nil:
                continue
            if c_val is None or c_val <= 0:
                raise AssertionError(f"no positive normalization for {gamma}")
            self.c[gamma] = c_val

    # -- Gram data at the origin ---------------------------------------------

    def kahler_matrix(self):
        """(roots, chat, c): the origin Gram matrix chat[alpha][beta] =
        (f_beta v0, f_alpha v0) = sum_l N_l f_alpha[l][0] f_beta[l][0] over
        the non-Levi positive roots, computed from self.f on each call, and
        the per-root normalizations."""
        roots = self.nil_roots
        N = self.ctx.m.norms
        cols = [[self.f[a][l][0] for l in range(self.ctx.dim)] for a in roots]
        chat = [[sum((n * x * y for n, x, y in zip(N, ca, cb) if x and y),
                     self.ctx.field.zero) for cb in cols] for ca in cols]
        c = [self.c[a] for a in roots]
        return roots, chat, c


def verify_norm_lemma(kk: ClassicalKahler):
    """(f_gamma v0, f_gamma v0) = c_gamma (rho_S, gamma) per non-Levi root,
    from the diagonal of the Gram matrix.  Returns {root: (got, want)}."""
    rs, lam = kk.ctx.rs, kk.ctx.lam
    roots, chat, c = kk.kahler_matrix()
    return {g: (chat[k][k], c[k] * cartan.form_rw(rs, g, lam))
            for k, g in enumerate(roots)}


def verify_kahler_shape(kk: ClassicalKahler):
    """Off-diagonal zero, diagonal chat[gamma, gamma] / c_gamma equal to
    (rho_S, gamma) and positive.  Returns (ok, diag, expected_diag,
    offdiag), offdiag the (i, j) of the non-zero off-diagonal entries."""
    roots, chat, c = kk.kahler_matrix()
    n = len(roots)
    offdiag = [(i, j) for i in range(n) for j in range(n)
               if i != j and chat[i][j]]
    diag = [chat[i][i] / c[i] for i in range(n)]
    expected = [Fraction(cartan.form_rw(kk.ctx.rs, g, kk.ctx.lam))
                for g in roots]
    ok = not offdiag and diag == expected and all(d > 0 for d in diag)
    return ok, diag, expected, offdiag


# -- the origin evaluation of the canonical cycle -------------------------------


def _leg_derivative(leg, mat_plain, mat_conj):
    """Evaluate a first-order derivation at the identity coset: the slotwise
    matrix action (mat_plain on plain slots, mat_conj on conjugated slots)
    contracted between the functional and vector legs."""
    tot = leg.alg.field.zero
    for word, fun, vec in leg.terms:
        for key, cv in vec.items():
            for j, barred in enumerate(word):
                mat = mat_conj if barred else mat_plain
                kj = key[j]
                for l in range(len(mat)):
                    d = mat[l][kj]
                    if d:
                        cf = fun.get(key[:j] + (l,) + key[j + 1:])
                        if cf is not None:
                            tot += cf * d * cv
    return tot


def hkr_matrix(kk: ClassicalKahler):
    """Antisymmetrized first-order evaluation of C(P) at q = 1 over pairs of
    non-Levi roots: entry (alpha, beta) pairs the derivation along f_alpha
    (plain) / -e_alpha (conjugated) with the conjugate derivation along
    e_beta / -f_beta.  The counit and the derivations along every root are
    computed once per leg and shared by every term and entry."""
    cyc = idempotent_cycle(kk.ctx)
    roots = kk.nil_roots

    def neg(M):
        return [[-x for x in row] for row in M]

    xs = [(kk.f[alpha], neg(kk.e[alpha])) for alpha in roots]
    ys = [(kk.e[beta], neg(kk.f[beta])) for beta in roots]
    eps = Memo(lambda l: l.counit())
    dx = Memo(lambda l: [_leg_derivative(l, *X) for X in xs])
    dy = Memo(lambda l: [_leg_derivative(l, *Y) for Y in ys])
    out = [[kk.ctx.field.zero] * len(roots) for _ in roots]
    for coeff, (a0, a1, a2) in cyc.terms:
        s = coeff * eps[a0]
        if not s:
            continue
        dy1, dy2 = dy[a1], dy[a2]
        for row, x1, x2 in zip(out, dx[a1], dx[a2]):
            for j, (y1, y2) in enumerate(zip(dy1, dy2)):
                row[j] += s * (x1 * y2 - y1 * x2)
    return out


def verify_hkr(kk: ClassicalKahler):
    """hkr = 2 chat, exactly.  Returns (ok, hkr, chat)."""
    roots, chat, _ = kk.kahler_matrix()
    got = hkr_matrix(kk)
    want = [[2 * x for x in row] for row in chat]
    return got == want, got, want


# -- q -> 1 consistency -----------------------------------------------------------


def verify_classical_limit(family, rank, lam):
    """The symbolic module evaluated at q = 1 coincides with the module
    built directly over the classical field: weights, norms, and all
    generator matrix entries.  Returns True or raises with the mismatch."""
    from qflag.qscalar import SymbolicField
    rs = cartan.root_system(family, rank)
    ms = hw_module(rs, lam, SymbolicField())
    mc = hw_module(rs, lam, classical_field())
    if list(ms.weights) != list(mc.weights):
        raise AssertionError("weights differ in the classical limit")
    for k in range(ms.dim):
        if ms.norms[k].evaluate(Fraction(1)) != mc.norms[k]:
            raise AssertionError(f"norm {k} differs in the classical limit")
    for i in range(1, rank + 1):
        for k in range(ms.dim):
            for col_s, col_c in ((ms.e_col(i, k), mc.e_col(i, k)),
                                 (ms.f_col(i, k), mc.f_col(i, k))):
                ds = {l: c.evaluate(Fraction(1)) for l, c in col_s}
                dc = dict(col_c)
                if ds != dc:
                    raise AssertionError(
                        f"generator {i} column {k} differs at q = 1")
    return True


def classical_context(family, rank, subset,
                      cap=DEFAULT_CAP) -> FlagContext:
    return flag_context(family, rank, subset, classical_field(), cap)
