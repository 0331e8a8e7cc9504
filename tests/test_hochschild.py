"""Twisted complex, canonical cycle, and cocycle pairings.

Closed-form pairing oracles (checked below for every standard case):
eta_a(C(P)) = q^(2rho - alpha_a, rho_S) [ (rho_S, alpha_a-check) ]_(q_a),
so A1 -> 1; A2 full flag -> q^3 for both roots; A2 S={2} -> (q, 0);
B2 S={1} -> (0, q^3).  The boundary residual oracle is the trace weight
q^(2rho, rho_S).
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from qflag import flagproj as fp, hochschild as hh
from qflag.coord import CapExceeded, CoordElem, ZeroCertificate
from qflag.qscalar import FixedField, SymbolicField


@pytest.fixture(scope="module")
def a1():
    return fp.flag_context("A", 1, (), SymbolicField())


@pytest.fixture(scope="module")
def a2s2():
    return fp.flag_context("A", 2, (2,), SymbolicField())


@pytest.fixture(scope="module")
def b2s1():
    return fp.flag_context("B", 2, (1,), SymbolicField())


@pytest.fixture(scope="module")
def a2full():
    return fp.flag_context("A", 2, (), SymbolicField())


# -- chain plumbing ------------------------------------------------------------


def test_chain_degree_guard(a1):
    with pytest.raises(ValueError, match="degree"):
        hh.Chain(a1.alg, 2, [(a1.field.one, (a1.phat(0, 0),))])


def test_boundary_degree_one_structure(a1):
    """b(x x y) = xy - theta(y) x, checked syntactically."""
    x, y = a1.phat(0, 1), a1.phat(1, 0)
    ch = hh.Chain(a1.alg, 1, [(a1.field.one, (x, y))])
    got = hh.twisted_boundary(ch)
    assert got.degree == 0
    want = hh.Chain(a1.alg, 0, [
        (a1.field.one, (x * y,)),
        (-a1.field.one, (y.theta() * x,)),
    ])
    assert got.canonical() == want.canonical()


def test_boundary_degree_two_structure(a1):
    """b(x x y x z) = xy x z - x x yz + theta(z) x x y."""
    x, y, z = a1.phat(0, 1), a1.phat(1, 1), a1.phat(1, 0)
    ch = hh.Chain(a1.alg, 2, [(a1.field.one, (x, y, z))])
    got = hh.twisted_boundary(ch)
    want = hh.Chain(a1.alg, 1, [
        (a1.field.one, (x * y, z)),
        (-a1.field.one, (x, y * z)),
        (a1.field.one, (z.theta() * x, y)),
    ])
    assert got.canonical() == want.canonical()


def test_boundary_identity_twist_differs(a1):
    x, y = a1.alg.mc(0, 0), a1.alg.mc(1, 1)
    ch = hh.Chain(a1.alg, 1, [(a1.field.one, (x, y))])
    assert hh.twisted_boundary(ch, "theta").canonical() != \
        hh.twisted_boundary(ch, "identity").canonical()
    with pytest.raises(ValueError, match="twist"):
        hh.twisted_boundary(ch, "bogus")
    zero_deg = hh.Chain(a1.alg, 0, [(a1.field.one, (x,))])
    with pytest.raises(ValueError, match="degree"):
        hh.twisted_boundary(zero_deg)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_boundary_squares_to_zero(a1, data):
    """Property suite: b o b = 0 for both twists on random chains."""
    seed = data.draw(st.integers(0, 10 ** 6))
    twist = data.draw(st.sampled_from(["theta", "identity"]))
    w = hh.random_chain(a1, 3, seed)
    bb = hh.twisted_boundary(hh.twisted_boundary(w, twist), twist)
    assert bb.degree == 1
    assert hh.chain_zero(bb).zero


def test_boundary_square_cancels_syntactically(a1):
    """On one deterministic example the cancellation already happens at the
    expansion level (no closure needed): associativity and the
    multiplicativity of the twist are exact term operations."""
    w = hh.random_chain(a1, 3, seed=42)
    bb = hh.twisted_boundary(hh.twisted_boundary(w, "theta"), "theta")
    cert = hh.chain_zero(bb)
    assert cert.zero and cert.groups == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_normalize_idempotent(a1, seed):
    """Property suite: normalize o normalize = normalize, syntactically."""
    w = hh.random_chain(a1, 2, seed)
    once = hh.normalize(w)
    twice = hh.normalize(once)
    assert once.canonical() == twice.canonical()


def test_normalize_kills_counit_legs(a1):
    one = a1.alg.unit()
    ch = hh.Chain(a1.alg, 1, [(a1.field.one, (a1.phat(0, 0), one))])
    n = hh.normalize(ch)
    # second leg became 1 - eps(1) 1 = 0
    assert all(legs[1].canonical() == () for _, legs in n.terms)
    # leg 0 is never normalized
    assert all(legs[0].canonical() == a1.phat(0, 0).canonical()
               for _, legs in n.terms)


# -- canonical cycle ------------------------------------------------------------


def test_cycle_shape(a1, a2s2):
    c1 = hh.idempotent_cycle(a1)
    assert c1.degree == 2
    assert len(c1.terms) == 2 ** 3 + 2 ** 2
    c2 = hh.idempotent_cycle(a2s2)
    assert len(c2.terms) == 3 ** 3 + 3 ** 2


@pytest.mark.parametrize("ctxname", ["a1", "a2s2"])
def test_cycle_boundary_vanishes_normalized(ctxname, request):
    ctx = request.getfixturevalue(ctxname)
    cert, residual, expected = hh.verify_cycle(ctx)
    assert cert.zero
    # the 1-leg certificates (dim U+v, dim (U-)^T f) of U[0,0], then of the
    # trace law
    idem, trace = fp.verify_idempotent(ctx), fp.verify_qtrace(ctx)
    assert cert.closure_dims == idem.closure_dims + trace.closure_dims
    assert len(cert.closure_dims) == 4 and min(cert.closure_dims) > 0
    assert residual == expected


def test_cycle_boundary_b2_fixed_q():
    ctx = fp.flag_context("B", 2, (1,), FixedField(Q(1, 2)))
    cert, residual, expected = hh.verify_cycle(ctx)
    assert cert.zero
    assert residual == expected == Q(1, 16)  # q^(2rho, rho_S) = q^4


@pytest.mark.parametrize("ctxname", ["a1", "a2s2"])
def test_identity_twist_control_fails(ctxname, request):
    ctx = request.getfixturevalue(ctxname)
    cert = hh.identity_twist_control(ctx)
    assert not cert.zero
    assert cert.witness


def test_identity_twist_control_fails_fixed_q():
    ctx = fp.flag_context("A", 1, (), FixedField(Q(1, 2)))
    assert not hh.identity_twist_control(ctx).zero


@pytest.mark.parametrize("family,rank,subset,dims", [
    ("A", 2, (), (27, 27, 209, 71)),
    ("B", 2, (1,), (10, 10, 50, 19)),
    ("G", 2, (2,), (27, 27, 287, 55)),
])
def test_cycle_certificate_pinned(family, rank, subset, dims):
    """The 2-leg certificate (dim U+v0, dim U+v1, dim (1 (x) U-)^T D,
    dim (U-)^T G) of the normalized boundary at q = 1/2, which verify_cycle
    falls back to; a full zero closure's dimensions do not depend on how
    it is built."""
    ctx = fp.flag_context(family, rank, subset, FixedField(Q(1, 2)))
    cert = _direct_cycle_test(ctx)
    assert (cert.zero, cert.closure_dims) == (True, dims)


@pytest.mark.parametrize("family,rank,subset,dims", [
    ("A", 2, (), (8, 1, 8, 1)),
    ("B", 2, (1,), (4, 1, 4, 1)),
    ("G", 2, (2,), (7, 1, 7, 1)),
])
def test_cycle_certificate_from_facts_pinned(family, rank, subset, dims):
    """verify_cycle's certificate at q = 1/2: that of U[0,0], then that of
    the trace law."""
    ctx = fp.flag_context(family, rank, subset, FixedField(Q(1, 2)))
    cert, _, _ = hh.verify_cycle(ctx)
    assert (cert.zero, cert.closure_dims) == (True, dims)


@pytest.mark.parametrize("family,rank,subset,field,dims,value", [
    ("A", 1, (), SymbolicField(), (3, 3, 6, 4),
     "(-1 + s^4)/(2*s^2 + 2*s^6)"),
    ("A", 2, (2,), FixedField(Q(1, 2)), (6, 6, 28, 6), "-6/17"),
])
def test_identity_twist_certificate_pinned(family, rank, subset, field, dims,
                                           value, monkeypatch):
    """The full non-zero 2-leg certificate: the leg-0 closure stops at its
    first non-zero pairing, so its size and the witness value pin the
    order in which rows are built and contracted.  With CoordElem.theta
    the identity, verify_cycle's twist fact fails and its fallback gives
    the same certificate."""
    ctx = fp.flag_context(family, rank, subset, field)
    want = (False, dims, f"pairs to {value} on a closure pair")
    cert = hh.identity_twist_control(ctx)
    assert (cert.zero, cert.closure_dims, cert.witness) == want
    monkeypatch.setattr(CoordElem, "theta", lambda self: self)
    assert not hh._theta_scales_cores(ctx)
    cert, _, _ = hh.verify_cycle(ctx)
    assert (cert.zero, cert.closure_dims, cert.witness) == want


# -- the cycle from P^2 = P, the trace law and the twist, against the direct
# 2-leg test of the normalized boundary


def _direct_cycle_test(ctx):
    return hh.chain_zero(hh.normalize(hh.twisted_boundary(
        hh.idempotent_cycle(ctx))))


def _theta_entry_oracle(ctx):
    """theta(phat[k,i]) = q^(w_k - w_i) phat[k,i] at all dim^2 entries."""
    q, w = ctx.field.q_power, ctx.wexp
    return all(ctx.phat(k, i).theta().canonical()
               == ctx.phat(k, i).scale(q(w[k] - w[i])).canonical()
               for k in range(ctx.dim) for i in range(ctx.dim))


ORACLE_CASES = [
    ("A", 1, (), None), ("A", 2, (2,), None), ("B", 2, (1,), None),
    ("A", 2, (), Q(1, 2)), ("B", 2, (1,), Q(1, 2)), ("G", 2, (2,), Q(1, 2)),
    ("B", 2, (1,), Q(2, 3))]


@pytest.fixture(scope="module", params=ORACLE_CASES,
                ids=lambda c: f"{c[0]}{c[1]}-S{c[2]}-{c[3] or 'symbolic'}")
def oracle_ctx(request):
    family, rank, subset, q = request.param
    field = SymbolicField() if q is None else FixedField(q)
    return fp.flag_context(family, rank, subset, field)


def test_cycle_from_facts_agrees_with_direct_test(oracle_ctx):
    """The certificate from the three facts is zero exactly when the 2-leg
    zero test of the normalized boundary is."""
    derived = hh._cycle_from_facts(oracle_ctx)
    assert derived is not None
    assert derived.zero == _direct_cycle_test(oracle_ctx).zero
    assert hh.verify_cycle(oracle_ctx)[0] == derived


def test_theta_generator_check_matches_entry_oracle(oracle_ctx, monkeypatch):
    """The check on the 2 dim generators agrees with the dim^2 entry checks
    for theta, for the identity and for theta squared."""
    assert hh._theta_scales_cores(oracle_ctx) is True
    assert _theta_entry_oracle(oracle_ctx) is True
    theta = CoordElem.theta
    for twist in (lambda self: self, lambda self: theta(theta(self))):
        monkeypatch.setattr(CoordElem, "theta", twist)
        assert hh._theta_scales_cores(oracle_ctx) is False
        assert _theta_entry_oracle(oracle_ctx) is False


def test_cycle_falls_back_when_p_squared_fails():
    """Doubling N_1 breaks P^2 = P, and verify_cycle returns the direct
    test's non-zero certificate."""
    ctx = fp.flag_context("A", 2, (2,), FixedField(Q(1, 2)))
    norms = list(ctx.norms)
    norms[1] *= 2
    ctx.norms = norms
    assert not fp.verify_idempotent(ctx).zero
    assert hh._cycle_from_facts(ctx) is None
    cert, _, _ = hh.verify_cycle(ctx)
    assert cert == _direct_cycle_test(ctx)
    assert (cert.zero, cert.closure_dims, cert.witness) == (
        False, (6, 6, 83, 10), "pairs to -3/2 on a closure pair")


@pytest.mark.parametrize("fact,value", [
    ("_theta_scales_cores", False),
    ("verify_idempotent", ZeroCertificate(False, (2, 1), 2, "x")),
    ("verify_qtrace", ZeroCertificate(False, (2, 1), 2, "x")),
])
def test_cycle_falls_back_when_any_fact_fails(a1, monkeypatch, fact, value):
    monkeypatch.setattr(hh, fact, lambda ctx: value)
    cert, residual, expected = hh.verify_cycle(a1)
    assert cert == _direct_cycle_test(a1)
    assert (cert.zero, cert.closure_dims) == (True, (3, 3, 6, 5))
    assert residual == expected


def test_cycle_cap_overrun_in_the_facts_is_not_a_pass():
    ctx = fp.flag_context("A", 1, (), SymbolicField())
    ctx.alg.cap = 1
    with pytest.raises(CapExceeded):
        hh.verify_cycle(ctx)


def test_residual_is_trace_weight(a1):
    _, residual, expected = hh.verify_cycle(a1)
    assert residual == a1.field.q_power(1)
    assert expected == a1.field.q_power(a1.trace_exp)


# -- pairings -------------------------------------------------------------------


def test_pairing_a1(a1):
    got, want = hh.verify_pairing(a1, 1)
    assert got == want == a1.field.one


def test_pairing_a2_full(a2full):
    for a in (1, 2):
        got, want = hh.verify_pairing(a2full, a)
        assert got == want == a2full.field.q_power(3)


def test_pairing_a2_s2(a2s2):
    got, want = hh.verify_pairing(a2s2, 1)
    assert got == want == a2s2.field.q_power(1)
    got, want = hh.verify_pairing(a2s2, 2)
    assert got == want == a2s2.field.zero


def test_pairing_b2_s1(b2s1):
    got, want = hh.verify_pairing(b2s1, 1)
    assert got == want == b2s1.field.zero
    got, want = hh.verify_pairing(b2s1, 2)
    assert got == want == b2s1.field.q_power(3)


@pytest.mark.parametrize("qv", [Q(1, 2), Q(2, 3), Q(3, 5)])
def test_pairing_a2_full_fixed_q(qv):
    ctx = fp.flag_context("A", 2, (), FixedField(qv))
    got, want = hh.verify_pairing(ctx, 1)
    assert got == want == qv ** 3


def test_pairing_vanishes_exactly_on_levi(a2s2, b2s1):
    """Nonzero for a outside S, zero for a in S."""
    for ctx in (a2s2, b2s1):
        for a in range(1, ctx.rs.rank + 1):
            got, _ = hh.verify_pairing(ctx, a)
            if a in ctx.S:
                assert got == ctx.field.zero
            else:
                assert got != ctx.field.zero


def test_eta_guards(a1):
    ch = hh.idempotent_cycle(a1)
    with pytest.raises(ValueError, match="degree-2"):
        hh.eta_value(a1, 1, hh.twisted_boundary(ch))
    with pytest.raises(ValueError, match="out of range"):
        hh.eta_value(a1, 2, ch)


@pytest.mark.parametrize("bad", [True, 1.0, 1.5])
def test_eta_value_rejects_a_non_int_root_index(a2s2, bad):
    """eta_value used to read True and 1.0 as a = 1, giving s^2 on C(P),
    and raise a bare KeyError at 1.5."""
    with pytest.raises(ValueError, match="out of range"):
        hh.eta_value(a2s2, bad, hh.idempotent_cycle(a2s2))


@pytest.mark.parametrize("bad", [0, -1, 3, True])
def test_expected_pairing_rejects_bad_root_index(a2s2, bad):
    """The closed form used to read 0 at a = 0, s^4 at a = -1 (from
    lam[a - 1]) and raise a bare IndexError at a = 3."""
    with pytest.raises(ValueError, match="out of range"):
        hh.expected_pairing(a2s2, bad)


# -- cocycle property -----------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cocycle_on_core_chains(a1, seed):
    assert hh.verify_cocycle_sample(a1, 1, seed) == a1.field.zero


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cocycle_on_core_chains_rank_two(a2s2, seed):
    for a in (1, 2):
        assert hh.verify_cocycle_sample(a2s2, a, seed) == a2s2.field.zero


def test_cocycle_fails_outside_core_subalgebra(a1):
    """The cocycle identity is a property of the projection subalgebra: a
    chain of raw matrix coefficients (nonzero-weight vector legs) breaks it,
    for both twists.  This pins the domain rather than asserting a global
    identity that does not hold."""
    c = a1.alg.mc
    w = hh.Chain(a1.alg, 3, [(a1.field.one,
                              (c(0, 0), c(1, 0), c(0, 1), c(1, 1)))])
    q = a1.field.q_power
    got_twisted = hh.eta_value(a1, 1, hh.twisted_boundary(w, "theta"))
    got_plain = hh.eta_value(a1, 1, hh.twisted_boundary(w, "identity"))
    # hand-computed: q^-1 - q^-2 and q^-1 - 1 respectively
    assert got_twisted == q(-1) - q(-2)
    assert got_plain == q(-1) - a1.field.one


# -- per-leg evaluation against a term-by-term reference --------------------------
# The chain routines evaluate each distinct leg object once per call; these
# references evaluate every leg of every term afresh.


def _ref_boundary(ch, twist):
    n = ch.degree
    out = []
    for c, legs in ch.terms:
        for i in range(n):
            out.append((-c if i % 2 else c,
                        legs[:i] + (legs[i] * legs[i + 1],) + legs[i + 2:]))
        last = legs[n].theta() if twist == "theta" else legs[n]
        out.append((-c if n % 2 else c, (last * legs[0],) + legs[1:n]))
    return hh.Chain(ch.alg, n - 1, out)


def _ref_normalize(ch):
    unit = ch.alg.unit()
    return hh.Chain(ch.alg, ch.degree, [
        (c, (legs[0],) + tuple(l - unit * l.counit() for l in legs[1:]))
        for c, legs in ch.terms])


def _ref_counit(ch):
    tot = ch.alg.field.zero
    for c, legs in ch.terms:
        for l in legs:
            c = c * l.counit()
        tot = tot + c
    return tot


def _ref_eta(ctx, a, ch):
    tot = ctx.field.zero
    for c, (a0, a1, a2) in ch.terms:
        tot = tot + (c * a0.counit() * a1.act_left(("F", a)).counit()
                     * a2.act_left(("E", a)).counit())
    return tot


def _shared_leg_chain(ctx):
    """A degree-3 chain in which the leg x occurs in several terms and
    positions, next to x2, an equal but distinct object."""
    x, y = ctx.phat(0, 1), ctx.phat(1, 0)
    x2 = CoordElem(x.alg, x.terms)
    z = ctx.phat(0, 0) * ctx.phat(1, 1)
    q, r = ctx.field.q_power, ctx.field.from_fraction
    return hh.Chain(ctx.alg, 3, [
        (r(1), (x, y, x, z)),
        (q(1), (y, x, x2, x)),
        (-r(3), (x2, x, y, y)),
        (q(-1) * r(2), (z, x2, x, x2)),
        (r(1), (x, x, x, x))])


@pytest.fixture(scope="module", params=["a1", "a2s2", "b2s1_half"])
def per_leg_ctx(request):
    if request.param == "b2s1_half":
        return fp.flag_context("B", 2, (1,), FixedField(Q(1, 2)))
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("twist", ["theta", "identity"])
def test_chain_routines_match_term_by_term_reference(per_leg_ctx, twist):
    ctx = per_leg_ctx
    for ch in (hh.idempotent_cycle(ctx), _shared_leg_chain(ctx)):
        z = hh.twisted_boundary(ch, twist)
        ref_z = _ref_boundary(ch, twist)
        assert z.canonical() == ref_z.canonical()
        assert hh.normalize(z).canonical() == _ref_normalize(z).canonical()
        if z.degree == 2:
            for a in range(1, ctx.rs.rank + 1):
                assert hh.eta_value(ctx, a, z) == _ref_eta(ctx, a, ref_z)
        if ch.degree == 2:
            for a in range(1, ctx.rs.rank + 1):
                assert hh.eta_value(ctx, a, ch) == _ref_eta(ctx, a, ch)


# -- the boundary's counit read from the legs, against the built boundary ---------


def _diagonal_chain(ctx, degree):
    """Legs a^i_i and conj(a^i_i): every leg has counit 1, and theta scales
    a leg of non-zero weight by a power of q other than 1, so the
    wrap-around face's counit depends on the twist."""
    mc, r = ctx.alg.mc, ctx.field.from_fraction
    d = ctx.dim
    return hh.Chain(ctx.alg, degree, [
        (r(t + 1), tuple(mc((t + j) % d, (t + j) % d, (t + j) % 2 == 1)
                         for j in range(degree + 1)))
        for t in range(d)])


@pytest.mark.parametrize("patch", ["theta", "identity", "theta^2"])
def test_boundary_counit_matches_built_boundary(per_leg_ctx, patch,
                                                monkeypatch):
    """boundary_counit(ch) is the counit of the theta-twisted boundary
    built term by term, with CoordElem.theta itself and with the identity
    and theta^2 in its place.  Legs built from projection cores have
    eps(theta(x)) = eps(x); on the diagonal chains it differs, so there
    the value differs from that of the identity twist unless theta is the
    identity."""
    ctx = per_leg_ctx
    theta = CoordElem.theta
    if patch == "identity":
        monkeypatch.setattr(CoordElem, "theta", lambda self: self)
    elif patch == "theta^2":
        monkeypatch.setattr(CoordElem, "theta",
                            lambda self: theta(theta(self)))
    chains = [hh.idempotent_cycle(ctx), _shared_leg_chain(ctx)] + [
        hh.random_chain(ctx, degree, seed)
        for degree in (2, 3) for seed in (1, 2, 3)]
    diagonal = [_diagonal_chain(ctx, 2), _diagonal_chain(ctx, 3)]
    for ch in chains + diagonal:
        got = hh.boundary_counit(ch)
        assert got == _ref_counit(_ref_boundary(ch, "theta"))
        if ch in diagonal:
            untwisted = _ref_counit(_ref_boundary(ch, "identity"))
            assert (got == untwisted) == (patch == "identity")


def test_boundary_counit_needs_degree_one(a1):
    x = a1.phat(0, 0)
    with pytest.raises(ValueError, match="degree"):
        hh.boundary_counit(hh.Chain(a1.alg, 0, [(a1.field.one, (x,))]))
