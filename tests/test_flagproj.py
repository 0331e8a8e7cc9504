"""Projection-layer identities across the four standard cases.

Hand-derived anchors used as oracles here:

* B2, S={1}: module is the 4-dimensional V(0,1) with weights
  (0,1), (1,-1), (-1,1), (0,-1), norms (1, q, q^3, q^4); with d = (2,1) and
  2rho = (3,4) the trace exponents come out (4, 2, -2, -4) and the total
  trace exponent is 4.
* A2, S={}: V(1,1), dimension 8, trace exponent (2rho, rho) = 4.
* A2, S={2}: V(1,0), dimension 3, trace exponent 2.
"""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from qflag import flagproj as fp
from qflag.hochschild import verify_cycle, verify_pairing
from qflag.qscalar import FixedField, SymbolicField
from qflag.repn import CapExceeded


@pytest.fixture(scope="module")
def a1():
    return fp.flag_context("A", 1, (), SymbolicField())


@pytest.fixture(scope="module")
def a2s2():
    return fp.flag_context("A", 2, (2,), SymbolicField())


@pytest.fixture(scope="module")
def b2s1():
    return fp.flag_context("B", 2, (1,), FixedField(Q(1, 2)))


@pytest.fixture(scope="module")
def a2full():
    return fp.flag_context("A", 2, (), FixedField(Q(1, 2)))


@pytest.fixture(scope="module")
def g2s2():
    return fp.flag_context("G", 2, (2,), FixedField(Q(1, 2)))


@pytest.fixture(scope="module")
def a2point():
    return fp.flag_context("A", 2, (1, 2), FixedField(Q(1, 2)))


ORACLE_CASES = ["a1", "a2s2", "a2full", "b2s1", "g2s2", "a2point"]


def test_context_shapes(a1, a2s2, b2s1, a2full):
    assert (a1.dim, a2s2.dim, b2s1.dim, a2full.dim) == (2, 3, 4, 8)
    assert a1.trace_exp == 1
    assert a2s2.trace_exp == 2
    assert b2s1.trace_exp == 4
    assert a2full.trace_exp == 4


def test_b2_module_anchors(b2s1):
    m = b2s1.m
    assert list(m.weights) == [(0, 1), (1, -1), (-1, 1), (0, -1)]
    assert m.norms == [Q(1), Q(1, 2), Q(1, 8), Q(1, 16)]
    assert b2s1.wexp == (4, 2, -2, -4)


@pytest.mark.parametrize("make", [lambda: (i for i in [2]),
                                  lambda: iter([2])],
                         ids=["generator", "iterator"])
def test_one_shot_subset_keeps_its_roots(make):
    ctx = fp.flag_context("A", 2, make(), SymbolicField())
    assert (ctx.S, ctx.dim, ctx.lam) == ((2,), 3, (1, 0))


def test_bad_subset_rejected():
    with pytest.raises(ValueError, match="out of range"):
        fp.flag_context("A", 2, (3,), SymbolicField())


# -- projection laws -----------------------------------------------------------


@pytest.mark.parametrize("ctxname", ["a1", "a2s2", "b2s1", "a2full"])
def test_idempotent(ctxname, request):
    cert = fp.verify_idempotent(request.getfixturevalue(ctxname))
    assert cert.zero
    assert cert.closure_dims[0] > 0


@pytest.mark.parametrize("ctxname", ["a1", "a2s2", "b2s1", "a2full"])
def test_selfadjoint(ctxname, request):
    assert fp.verify_selfadjoint(request.getfixturevalue(ctxname))


@pytest.mark.parametrize("ctxname", ["a1", "a2s2", "b2s1", "a2full"])
def test_qtrace(ctxname, request):
    assert fp.verify_qtrace(request.getfixturevalue(ctxname)).zero


def test_idempotent_negative_control(a1):
    """Perturbing one norm weight must break the idempotent law."""
    lhs = a1.alg.zero()
    wrong = [a1.norms[0], a1.norms[1] + a1.field.one]
    for k in range(2):
        lhs = lhs + wrong[k] * (a1.phat(0, k) * a1.phat(k, 0))
    assert not a1.alg.is_zero(lhs - a1.phat(0, 0)).zero


def test_qtrace_negative_control(a1):
    """Identity-ordered (untwisted) trace weights must fail: the exponents
    are what make the trace central."""
    F = a1.field
    lhs = a1.alg.zero()
    for i in range(2):
        lhs = lhs + a1.norms[i] * a1.phat(i, i)  # missing q^(2rho, lam_i)
    rhs = a1.alg.unit() * F.q_power(a1.trace_exp)
    assert not a1.alg.is_zero(lhs - rhs).zero


# -- Levi invariance -----------------------------------------------------------


def test_levi_invariance_a2s2(a2s2):
    inv = fp.verify_levi_invariance(a2s2)
    assert set(inv) == {("E", 2), ("F", 2), ("K", 1, 1), ("K", 2, 1)}
    assert all(inv.values())


def test_levi_invariance_b2s1(b2s1):
    inv = fp.verify_levi_invariance(b2s1)
    assert set(inv) == {("E", 1), ("F", 1), ("K", 1, 1), ("K", 2, 1)}
    assert all(inv.values())


def test_full_flag_torus_invariance(a1, a2full):
    # with no marked roots the invariance subalgebra is just the torus
    inv = fp.verify_levi_invariance(a1)
    assert set(inv) == {("K", 1, 1)}
    assert all(inv.values())
    inv = fp.verify_levi_invariance(a2full)
    assert set(inv) == {("K", 1, 1), ("K", 2, 1)}
    assert all(inv.values())


def _star_law(ctx, a, b, i, j):
    """mu[a,b][j,i]^* = mu[b,a][i,j], exactly and syntactically: the
    per-entry oracle of the generator star check."""
    return (ctx.munit(a, b, j, i).star().canonical()
            == ctx.munit(b, a, i, j).canonical())


def _selfadjoint_oracle(ctx):
    """P* = P entry by entry, the star law at a = b = 0."""
    return all(_star_law(ctx, 0, 0, i, j)
               for i, j in itertools.product(range(ctx.dim), repeat=2))


def _invariance_oracle(ctx, gens):
    """{gen: every phat[i,j] annihilated (E, F) or fixed (K) by the left
    action}, entry by entry on the normal forms."""
    out = {}
    for gen in gens:
        ok = True
        for i, j in itertools.product(range(ctx.dim), repeat=2):
            p = ctx.phat(i, j)
            got = p.act_left(gen).canonical()
            ok = ok and (got == p.canonical() if gen[0] == "K" else not got)
        out[gen] = ok
    return out


def _all_generators(rs):
    return [g for i in range(1, rs.rank + 1)
            for g in (("E", i), ("F", i), ("K", i, 1))]


@pytest.mark.parametrize("ctxname", ORACLE_CASES)
def test_levi_invariance_matches_the_entry_oracle(ctxname, request,
                                                  monkeypatch):
    """The one action per generator on the shared vector leg gives the
    verdicts of the dim^2 entry checks, for every E_i, F_i and K_i: the
    Levi ones (all fixed) and the others (E_i, F_i outside S move every
    entry of a case of dimension > 1)."""
    ctx = request.getfixturevalue(ctxname)
    assert fp.verify_levi_invariance(ctx) == \
        _invariance_oracle(ctx, fp.levi_generators(ctx.rs, ctx.S))
    gens = _all_generators(ctx.rs)
    monkeypatch.setattr(fp, "levi_generators", lambda rs, S: gens)
    got = fp.verify_levi_invariance(ctx)
    assert got == _invariance_oracle(ctx, gens)
    assert got == {g: g[0] == "K" or g[1] in ctx.S or ctx.dim == 1
                   for g in gens}


@pytest.mark.parametrize("ctxname", ORACLE_CASES)
def test_selfadjoint_matches_the_entry_oracle(ctxname, request):
    ctx = request.getfixturevalue(ctxname)
    assert fp.verify_selfadjoint(ctx) is _selfadjoint_oracle(ctx) is True


def _flagless_star(self):
    """A star that keeps the conjugation flags."""
    from qflag.coord import CoordElem
    return CoordElem(self.alg, [
        (w[::-1], {k[::-1]: c for k, c in f.items()},
         {k[::-1]: c for k, c in v.items()}) for w, f, v in self.terms])


@pytest.mark.parametrize("tamper", ["flagless", "doubling"])
@pytest.mark.parametrize("ctxname", ["a1", "b2s1", "g2s2"])
def test_selfadjoint_detects_a_broken_star(ctxname, tamper, request,
                                           monkeypatch):
    """Negative control: under a tampered CoordElem.star (one that keeps
    the conjugation flags, or the true star with every functional
    coefficient doubled) both the generator check and the entry oracle
    report P* != P."""
    from qflag.coord import CoordElem

    star = CoordElem.star

    def doubling(self):
        return CoordElem(self.alg, [(w, {k: 2 * c for k, c in f.items()}, v)
                                    for w, f, v in star(self).terms])

    ctx = request.getfixturevalue(ctxname)
    monkeypatch.setattr(CoordElem, "star", _flagless_star
                        if tamper == "flagless" else doubling)
    assert fp.verify_selfadjoint(ctx) is False
    assert _selfadjoint_oracle(ctx) is False


def test_non_levi_generator_moves_entries(a2s2):
    """Negative control: E/F generators outside S must not annihilate the
    entries.  (Every K_i fixes them: the vector leg has weight zero.)"""
    for gen in (("F", 1), ("E", 1)):
        moved = a2s2.phat(0, 0).act_left(gen).canonical()
        assert moved != ()
    fixed = a2s2.phat(1, 1).act_left(("K", 1, 1)).canonical()
    assert fixed == a2s2.phat(1, 1).canonical()


# -- matrix units ---------------------------------------------------------------


def _product_law(ctx, a, b, c, d, i, j):
    """The direct product law sum_k N_k mu[a,b][i,k] mu[c,d][k,j]
    - delta_(a,d) N_a mu[c,b][i,j] as tensor terms, one per summand, in
    the order of fp._unitarity_law(ctx, a, d).  The oracle of the
    unitarity sums: its difference is a^i_b U[a,d] conj(a^j_c)."""
    terms = [(ctx.norms[k], (ctx.munit(a, b, i, k) * ctx.munit(c, d, k, j),))
             for k in range(ctx.dim)]
    if a == d:
        terms.append((-ctx.norms[a], (ctx.munit(c, b, i, j),)))
    return terms


def _doubled(terms, bad):
    """terms with the summand at position bad doubled."""
    if bad is None:
        return terms
    coeff, legs = terms[bad]
    return terms[:bad] + [(2 * coeff, legs)] + terms[bad + 1:]


def test_matrix_units_a1_all_indices(a1):
    res = fp.verify_matrix_units(a1)
    assert len(res["product"]) == 2 ** 2
    assert all(c.zero for c in res["product"].values())
    assert res["star"] is True
    assert all(c.zero for c in res["trace"].values())


def test_matrix_units_a2s2_all_indices(a2s2):
    res = fp.verify_matrix_units(a2s2)
    assert len(res["product"]) == 3 ** 2
    assert all(c.zero for c in res["product"].values())
    assert res["star"] is True
    assert len(res["trace"]) == 9
    assert all(c.zero for c in res["trace"].values())


@pytest.mark.parametrize("family,rank,subset,field", [
    ("B", 2, (1,), lambda: FixedField(Q(1, 2))),
    ("A", 3, (2, 3), SymbolicField),
], ids=["B2-S1-q12", "A3-S23-symbolic"])
def test_matrix_units_dim4_all_indices(family, rank, subset, field):
    """The unitarity sums U[a,d] against the direct product law on all
    4^6 indices of a 4-dimensional module, and the generator star check
    against the star law on all 4^4 indices, with the trace law; a cap
    overrun would raise instead of skipping."""
    ctx = fp.flag_context(family, rank, subset, field())
    assert ctx.dim == 4
    res = fp.verify_matrix_units(ctx)
    assert len(res["product"]) == 4 ** 2
    keys = list(itertools.product(range(4), repeat=6))
    direct = ctx.alg.batch_zero_test(_product_law(ctx, *k) for k in keys)
    for (a, b, c, d, i, j), cert in zip(keys, direct):
        assert cert.zero == res["product"][a, d].zero
    assert all(c.zero for c in direct)
    assert res["star"] is True
    assert all(_star_law(ctx, *abij)
               for abij in itertools.product(range(4), repeat=4))
    assert len(res["trace"]) == 16
    assert all(c.zero for c in res["trace"].values())


@pytest.mark.parametrize("ctxname", ["a1", "a2s2", "b2s1", "a2full"])
def test_unitarity_sum_without_its_unit_is_nonzero(ctxname, request):
    """Negative control: U[0,0] without its unit term is
    sum_k N_k conj(a^k_0) a^k_0, which takes the value 1 at the unit of
    U_q(g)."""
    ctx = request.getfixturevalue(ctxname)
    terms = fp._unitarity_law(ctx, 0, 0)
    assert ctx.alg.tensor_zero_test(terms).zero
    cert = ctx.alg.tensor_zero_test(terms[:-1])
    assert not cert.zero and cert.witness


def _flagged(certs, keys):
    return {k for k, c in zip(keys, certs) if not c.zero}


@pytest.mark.parametrize("bad", ["norm", "delta"])
@pytest.mark.parametrize("ctxname", ["a2s2", "b2s1"])
def test_perturbed_unitarity_flags_what_the_direct_law_flags(ctxname, bad,
                                                             request):
    """Perturb U[a,d] and the direct product law the same way, on all
    dim^6 indices: double the k = 1 summand (one norm perturbed, as in
    test_idempotent_negative_control), which makes every U[a,d] non-zero,
    or double the delta term, which breaks only the U[a,a].  The direct
    law must be non-zero at some (b, c, i, j) for exactly the (a, d) whose
    sum is non-zero."""
    ctx = request.getfixturevalue(ctxname)
    n = ctx.dim
    pos = (lambda a, d: 1) if bad == "norm" else \
        (lambda a, d: n if a == d else None)
    pairs = list(itertools.product(range(n), repeat=2))
    sums = _flagged(ctx.alg.batch_zero_test(
        _doubled(fp._unitarity_law(ctx, *ad), pos(*ad)) for ad in pairs),
        pairs)
    keys = list(itertools.product(range(n), repeat=6))
    direct = _flagged(ctx.alg.batch_zero_test(
        _doubled(_product_law(ctx, *k), pos(k[0], k[3])) for k in keys),
        keys)
    assert {(k[0], k[3]) for k in direct} == sums
    assert sums == (set(pairs) if bad == "norm"
                    else {(a, a) for a in range(n)})


def _random_elem(data, alg):
    """A random sum of scaled products of matrix coefficients, plain and
    conjugated, the unit included (the empty product)."""
    dim = alg.m.dim
    x = alg.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        y = alg.unit() * alg.field.q_power(data.draw(st.integers(-2, 2)))
        for _ in range(data.draw(st.integers(0, 3))):
            y = y * alg.mc(data.draw(st.integers(0, dim - 1)),
                           data.draw(st.integers(0, dim - 1)),
                           data.draw(st.booleans()))
        x = x + y
    return x


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_star_is_an_antimultiplicative_involution(a2s2, b2s1, data):
    """star(xy) = star(y) star(x) and star(star(x)) = x canonically, the
    two facts that reduce the star law to the generators."""
    alg = data.draw(st.sampled_from([a2s2.alg, b2s1.alg]))
    x, y = _random_elem(data, alg), _random_elem(data, alg)
    assert (x * y).star().canonical() == \
        (y.star() * x.star()).canonical()
    assert x.star().star().canonical() == x.canonical()


def test_generator_star_check_detects_a_broken_star(a1, monkeypatch):
    """Negative control: a star that keeps the conjugation flags fails the
    generator check and the star law alike."""
    from qflag.coord import CoordElem

    monkeypatch.setattr(CoordElem, "star", _flagless_star)
    assert fp.verify_matrix_units(a1, laws=("star",))["star"] is False
    assert not all(_star_law(a1, *abij)
                   for abij in itertools.product(range(2), repeat=4))


def test_matrix_units_contain_projection(a1):
    assert a1.munit(0, 0, 0, 1).canonical() == a1.phat(0, 1).canonical()


def test_matrix_unit_product_needs_delta(a1):
    """With a = d the bare weighted product must be nonzero (it equals
    N_a mu[c,b][i,j]), so the law is not vacuous."""
    alg = a1.alg
    lhs = alg.zero()
    for k in range(2):
        lhs = lhs + a1.norms[k] * (a1.munit(0, 1, 0, k) *
                                   a1.munit(1, 0, k, 0))
    assert not alg.is_zero(lhs).zero


def test_cap_propagates(a1):
    # U[0,1] needs a raising closure of dimension 3 (certificate (3, 1)):
    # cap 2 is overrun by it
    ctx = fp.flag_context("A", 1, (), SymbolicField(), cap=2)
    assert ctx.alg.cap == 2
    with pytest.raises(CapExceeded):
        fp.verify_matrix_units(ctx, laws=("product",))


def test_cap_holds_on_a_cached_closure():
    """A context enforces its cap on every call of a check, not only the
    first: nothing an overrun leaves on the context lets a second call of
    the same check through."""
    ctx = fp.flag_context("A", 1, (), SymbolicField(), cap=2)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            fp.verify_matrix_units(ctx, laws=("product",))


@pytest.mark.parametrize("laws", [("prodct",), ("product", "Trace"), "star"])
def test_matrix_units_reject_unknown_law_names(a1, laws):
    """A misspelt law name used to return {}, which reads as nothing
    failed."""
    with pytest.raises(ValueError, match="unknown matrix-unit laws"):
        fp.verify_matrix_units(a1, laws=laws)


def test_shared_group_falls_back_to_single_tests_on_the_cap():
    """The U[a,d] with a != d share their functional and are tested as one
    group, with a raising closure of dimension 15 on B2 S={1}.  At cap 12
    that closure overruns, but each member's own closures (raising
    dimension at most 11) fit: every U[a,d] is still zero, a != d with the
    certificate of a one-member test, a = d (each its own group, closures
    that fit) as at the default cap, and nothing raises."""
    free = fp.verify_matrix_units(
        fp.flag_context("B", 2, (1,), FixedField(Q(1, 2))),
        laws=("product",))["product"]
    ctx = fp.flag_context("B", 2, (1,), FixedField(Q(1, 2)), cap=12)
    capped = fp.verify_matrix_units(ctx, laws=("product",))["product"]
    assert max(c.closure_dims[0] for c in free.values()) == 15
    for (a, d), cert in capped.items():
        assert cert.zero
        if a == d:
            assert cert == free[a, d]
        else:
            single = ctx.alg.tensor_zero_test(fp._unitarity_law(ctx, a, d))
            assert cert == single
            assert single.closure_dims[0] <= 11 < free[a, d].closure_dims[0]


def _raw_terms(elem):
    return [(w, dict(f), dict(v)) for w, f, v in elem.terms]


def test_memoized_cores_survive_every_check():
    """Every check of one context shares the memoized matrix-unit cores;
    none of them may change a core."""
    ctx = fp.flag_context("A", 2, (2,), SymbolicField())
    for key in itertools.product(range(ctx.dim), repeat=4):
        ctx.munit(*key)
    cores = dict(ctx._cores)
    assert len(cores) == ctx.dim ** 4
    before = {k: (c.canonical(), _raw_terms(c)) for k, c in cores.items()}
    assert fp.verify_idempotent(ctx).zero
    res = fp.verify_matrix_units(ctx)
    assert all(c.zero for c in res["product"].values()) and res["star"]
    assert all(fp.verify_levi_invariance(ctx).values())
    assert verify_cycle(ctx)[0].zero
    for a in range(1, ctx.rs.rank + 1):
        got, want = verify_pairing(ctx, a)
        assert got == want
    assert ctx._cores == cores
    for (a, b, i, j), core in cores.items():
        assert ctx.munit(a, b, i, j) is core
        assert (core.canonical(), _raw_terms(core)) == before[a, b, i, j]
        fresh = ctx.alg.mc(i, b) * ctx.alg.mc(j, a, barred=True)
        assert core.canonical() == fresh.canonical()
        assert _raw_terms(core) == _raw_terms(fresh)


# -- laws as tensor terms ------------------------------------------------------


def _summed_unitarity(ctx, a, d, bad=None):
    """sum_k N_k conj(a^k_a) a^k_d - delta_(a,d) N_a 1 as one element,
    with the k = bad summand doubled."""
    alg = ctx.alg
    lhs = alg.zero()
    for k in range(ctx.dim):
        w = ctx.norms[k] * (2 if k == bad else 1)
        lhs = lhs + w * (alg.mc(k, a, barred=True) * alg.mc(k, d))
    if a == d:
        lhs = lhs - ctx.norms[a] * alg.unit()
    return lhs


def _summed_trace(ctx, a, b):
    """sum_i q^(2rho, lam_i) N_i mu[a,b][i,i] - delta_(a,b) N_a
    q^(2rho, lam_a) 1 as one element."""
    F = ctx.field
    lhs = ctx.alg.zero()
    for i in range(ctx.dim):
        lhs = lhs + (F.q_power(ctx.wexp[i]) * ctx.norms[i]) * \
            ctx.munit(a, b, i, i)
    if a == b:
        lhs = lhs - (ctx.norms[a] * F.q_power(ctx.wexp[a])) * ctx.alg.unit()
    return lhs


def _same_as_summed(ctx, terms, elem):
    alg = ctx.alg
    got = alg._group_terms(terms)
    assert got == alg._group_terms([(ctx.field.one, (elem,))])
    cert = alg.tensor_zero_test(terms)
    assert cert == alg.is_zero(elem)
    return cert


@pytest.mark.parametrize("ctxname", ["a1", "a2s2", "b2s1"])
def test_tensor_term_laws_group_as_the_summed_element(ctxname, request):
    """The unitarity sums and the trace law are passed to the zero test as
    their scaled summands; they give the groups (order and functionals)
    and the certificates of the summed element, for a = d and a != d, and
    for a member with one summand doubled."""
    ctx = request.getfixturevalue(ctxname)
    last = ctx.dim - 1
    for ad in [(0, 0), (last, last), (0, last), (1, 0)]:
        assert _same_as_summed(ctx, fp._unitarity_law(ctx, *ad),
                               _summed_unitarity(ctx, *ad)).zero
    bad = 1
    assert not _same_as_summed(ctx, _doubled(fp._unitarity_law(ctx, 0, 0),
                                             bad),
                               _summed_unitarity(ctx, 0, 0, bad)).zero
    for ab in [(0, 0), (last, last), (0, last)]:
        assert _same_as_summed(ctx, fp._trace_law(ctx, *ab),
                               _summed_trace(ctx, *ab)).zero


def test_group_terms_rejects_mixed_degrees(a1):
    x = a1.alg.mc(0, 0)
    one = a1.field.one
    with pytest.raises(ValueError, match="mixed"):
        a1.alg._group_terms([(one, (x,)), (one, (x, x))])


def test_group_terms_checks_the_leg_count_first(a1):
    """A 3-leg tensor is refused on its first term, before any later term
    is drawn or any grouping is done."""
    x = a1.alg.mc(0, 0)

    def terms():
        yield a1.field.one, (x, x, x)
        raise AssertionError("drawn past the first term")

    with pytest.raises(NotImplementedError):
        a1.alg._group_terms(terms())
