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
is measured, not assumed: `boundary_counit` reads it from the chain's leg
counits, as the counit is multiplicative.  `verify_cycle` certifies the
normalized boundary from P^2 = P, the q-trace law and the twist's scaling of
the projection entries (the derivation is in its docstring), and runs the
2-leg zero test of the normalized boundary only when one of those fails;
`identity_twist_control` always runs that test.

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
from qflag.coord import ZeroCertificate
from qflag.flagproj import FlagContext, verify_idempotent, verify_qtrace

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


def boundary_counit(ch: Chain):
    """eps applied to every leg of twisted_boundary(ch), summed, without
    building the boundary.

    A product concatenates words and takes outer products of keys, and
    counit is sum_k f[k] v[k], so eps(xy) = eps(x) eps(y) for every pair
    of elements.  Inner face i < n of c (x_0 x .. x x_n) then gives
    (-1)^i c prod_j eps(x_j), and those signs sum to 1 for odd n and to 0
    for even n; the wrap-around face gives (-1)^n c eps(theta(x_n))
    prod_(j<n) eps(x_j).  So the term gives
    c prod_(j<n) eps(x_j) [(n odd) eps(x_n) + (-1)^n eps(theta(x_n))],
    and eps(x_0), .., eps(x_(n-1)) are tested before any product."""
    n = ch.degree
    if n < 1:
        raise ValueError("boundary needs degree >= 1")
    eps = Memo(lambda l: l.counit())
    eps_theta = Memo(lambda l: l.theta().counit())
    tot = ch.alg.field.zero
    for c, legs in ch.terms:
        v = eps[legs[0]]
        for l in legs[1:n]:
            v = v and v * eps[l]
        if v:
            last = eps_theta[legs[n]]
            tot = tot + c * v * (eps[legs[n]] - last if n % 2 else last)
    return tot


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
    the trace weight q^(2rho, rho_S), read by boundary_counit from the
    legs of C(P); the boundary itself is built only for the fallback.

    The certificate comes from three facts, with p = phat, w = ctx.wexp,
    N = ctx.norms and A the coordinate algebra:

        (I) sum_j N_j p[i,j] p[j,k] = p[i,k]          (verify_idempotent)
        (T) sum_i q^(w_i) N_i p[i,i] = N_0 q^(w_0) 1  (verify_qtrace)
        (H) theta(p[k,i]) = q^(w_k - w_i) p[k,i]      (_theta_scales_cores)

    (I) and (T) are identities in A, certified by the zero tests of
    U[0,0] and of the trace law.  (H) is checked syntactically on the
    2 dim generators: theta(a^k_0) = q^(w_k + w_0) a^k_0 and
    theta(conj(a^k_0)) = q^(-w_k - w_0) conj(a^k_0).  CoordElem.theta
    scales each key of a term by q to the sum of its slots' exponents, and
    a product concatenates words and keys, so theta(xy) = theta(x) theta(y)
    term by term; with p[k,i] = a^k_0 conj(a^i_0) that gives (H).

    Write C(P) = 2 sum_ijk c_ijk p[i,j] x p[j,k] x p[k,i]
    - sum_ik c_ik 1 x p[i,k] x p[k,i], c_ijk = q^(w_i) N_i N_j N_k and
    c_ik = q^(w_i) N_i N_k (idempotent_cycle), and
    T = sum_ik c_ik p[i,k] x p[k,i].  twisted_boundary sends
    x0 x x1 x x2 to the faces x0 x1 x x2 - x0 x x1 x2 + theta(x2) x0 x x1.
    On the first sum, in A x A:

    * face 0: sum over j by (I) gives 2 sum_ik c_ik p[i,k] x p[k,i] = 2T;
    * face 1: sum over k by (I) gives -2 sum_ij c_ij p[i,j] x p[j,i] = -2T;
    * face 2: (H) turns q^(w_i) theta(p[k,i]) into q^(w_k) p[k,i], and the
      sum over i by (I) gives 2 sum_jk c_kj p[k,j] x p[j,k] = 2T.

    On the second sum:

    * face 0: 1 p[i,k] = p[i,k], so it gives -T;
    * face 1: sum over k by (I) gives + 1 x sum_i q^(w_i) N_i p[i,i];
    * face 2: by (H), q^(w_i) theta(p[k,i]) 1 = q^(w_k) p[k,i], so it
      gives -sum_ik c_ki p[k,i] x p[i,k] = -T.

    So b_theta(C(P)) = 1 x sum_i q^(w_i) N_i p[i,i] = N_0 q^(w_0) (1 x 1)
    by (T), as elements of A x A.  normalize is the linear map
    id x (id - eps(.) 1) on A x A, so it takes equal elements to equal
    ones, and it sends 1 x 1 to 1 x (1 - 1) = 0.  The certificate is then
    zero with the closure dimensions of U[0,0] followed by those of the
    trace law (groups adds up both tests' groups).

    If (H), (I) or (T) fails, the 2-leg zero test of normalize(b_theta(C(P)))
    decides, so verdicts, witnesses and cap overruns are then those of
    that test.  A cap overrun in (I) or (T) propagates as CapExceeded (a
    skipped check), never as a pass."""
    cyc = idempotent_cycle(ctx)
    cert = _cycle_from_facts(ctx)
    if cert is None:
        cert = chain_zero(normalize(twisted_boundary(cyc, twist="theta")))
    residual = boundary_counit(cyc)
    expected = ctx.field.q_power(ctx.trace_exp)
    return cert, residual, expected


def _cycle_from_facts(ctx: FlagContext):
    """The zero certificate of the normalized boundary from (H), (I) and
    (T) of verify_cycle, or None if one of them fails."""
    if not _theta_scales_cores(ctx):
        return None
    idem = verify_idempotent(ctx)
    if not idem.zero:
        return None
    trace = verify_qtrace(ctx)
    if not trace.zero:
        return None
    return ZeroCertificate(True, idem.closure_dims + trace.closure_dims,
                           idem.groups + trace.groups)


def _theta_scales_cores(ctx: FlagContext):
    """theta(a^k_0) = q^(w_k + w_0) a^k_0 and
    theta(conj(a^k_0)) = q^(-w_k - w_0) conj(a^k_0) for every k, compared
    by canonical form; w = ctx.wexp."""
    q_power = ctx.field.q_power
    w0 = ctx.wexp[0]
    for k, wk in enumerate(ctx.wexp):
        for barred, e in ((False, wk + w0), (True, -wk - w0)):
            x = ctx.alg.mc(k, 0, barred)
            if x.theta().canonical() != x.scale(q_power(e)).canonical():
                return False
    return True


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
        e0 = eps[a0]
        e1 = e0 and eps_f[a1]
        e2 = e1 and eps_e[a2]
        if e2:
            tot = tot + c * e0 * e1 * e2
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
