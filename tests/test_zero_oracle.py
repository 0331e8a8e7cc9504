"""The triangular zero test and its batches against an independent
two-sided oracle.

`CoordAlgebra.tensor_zero_test` pairs the lowering closure of the functional
with the raising closure of the vector legs, and `batch_zero_test` closes
the vector legs of members that share their functional jointly (see the
`qflag.coord` docstring).  The oracle below asks the same question
directly: close every stacked vector leg under all E_i *and* F_i, which
spans U.v, and pair the aggregated functional with every row.  It exists
only here, as a reference; both must give the same verdict on zero and
non-zero inputs, 1-leg and 2-leg, alone and in batches.  It builds its
images from the field's own scalars, keyed by the (block, key) tuples
themselves, and inserts them as they are, independently of the radix keys,
offset tables and kernel images that the zero tests use.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from qflag import flagproj as fp
from qflag import hochschild as hh
from qflag.coord import _canon_vec, _group_sort_key
from qflag.lin import span_basis
from qflag.qscalar import FixedField, SymbolicField


@functools.lru_cache(maxsize=4)
def two_sided_closure(alg, sig):
    """Closure of the stacked vector legs sig ((word, vec items) blocks)
    under every E_i and F_i, seeded by the weight components; rows are
    keyed by (block, key).  Memoized, since consecutive batch members share
    their legs; callers only read the cached rows."""
    field = alg.field
    spaces = [alg.space(w) for w, _ in sig]
    by_wt = {}
    for gi, (word, vec_items) in enumerate(sig):
        for key, c in vec_items:
            blk = by_wt.setdefault(spaces[gi].weight(key), {})
            blk[gi, key] = blk.get((gi, key), field.zero) + c
    basis = span_basis(field)
    queue = []
    for wt in sorted(by_wt):
        r = basis.insert(by_wt[wt])
        if r is not None:
            queue.append(r)
    gens = [(kind, i) for kind in ("E", "F")
            for i in range(1, alg.rs.rank + 1)]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for gen in gens:
            img = {}
            for (gi, key), c in v.items():
                for nk, f in spaces[gi].action(gen, key, False):
                    img[gi, nk] = img.get((gi, nk), field.zero) + c * f
            r = basis.insert({k: c for k, c in img.items() if c})
            if r is not None:
                queue.append(r)
    return basis.rows()


def two_sided_is_zero(alg, tensor_terms):
    """Oracle verdict: the aggregated (tensor) functional vanishes on the
    two-sided closure of every leg."""
    field = alg.field
    groups = {}
    nsides = None
    for coeff, legs in tensor_terms:
        nsides = len(legs)
        for combo in itertools.product(*(e.terms for e in legs)):
            key = (tuple(t[0] for t in combo),
                   tuple(_canon_vec(t[2]) for t in combo))
            g = groups.setdefault(key, {})
            for items in itertools.product(*(t[1].items() for t in combo)):
                fkeys = tuple(k for k, _ in items)
                fc = coeff
                for _, c in items:
                    fc = fc * c
                g[fkeys] = g.get(fkeys, field.zero) + fc
    groups = {k: {f: c for f, c in g.items() if c} for k, g in groups.items()}
    order = sorted((k for k, g in groups.items() if g), key=_group_sort_key)
    if not order:
        return True
    sides = [two_sided_closure(alg, tuple((k[0][s], k[1][s]) for k in order))
             for s in range(nsides)]
    if nsides == 1:
        rows, = sides
        fun = {(gi, fkeys[0]): c for gi, k in enumerate(order)
               for fkeys, c in groups[k].items()}
        return not any(_dot(field, fun, row) for row in rows)
    rows0, rows1 = sides
    D = {}
    for gi, k in enumerate(order):
        for (k0, k1), c in groups[k].items():
            D.setdefault((gi, k0), {})[gi, k1] = c
    for r0 in rows0:
        u = {}
        for p0, c0 in r0.items():
            for p1, c in D.get(p0, {}).items():
                u[p1] = u.get(p1, field.zero) + c0 * c
        if any(_dot(field, u, r1) for r1 in rows1):
            return False
    return True


def _dot(field, a, b):
    val = field.zero
    for k, c in a.items():
        x = b.get(k)
        if x is not None:
            val = val + c * x
    return val


# -- random inputs ----------------------------------------------------------------


def _coeff(rng, field):
    r = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))
    return field.from_fraction(r) * field.q_power(rng.randint(-2, 2))


def _munit(rng, ctx):
    n = ctx.dim
    return ctx.munit(*(rng.randrange(n) for _ in range(4)))


def _product_law(rng, ctx, tamper=False):
    """sum_k N_k mu[a,b][i,k] mu[c,d][k,j] - delta_ad N_a mu[c,b][i,j],
    which is zero; tamper scales one summand by q."""
    n = ctx.dim
    a, b, c, d, i, j = (rng.randrange(n) for _ in range(6))
    bad = rng.randrange(n) if tamper else None
    return _product_law_at(ctx, a, b, c, d, i, j, bad)


def _product_law_at(ctx, a, b, c, d, i, j, bad=None):
    """The product law at fixed indices; bad, if given, is the summand k
    scaled by q."""
    n = ctx.dim
    lhs = ctx.alg.zero()
    for k in range(n):
        w = ctx.norms[k]
        if k == bad:
            w = w * ctx.field.q_power(1)
        lhs = lhs + w * (ctx.munit(a, b, i, k) * ctx.munit(c, d, k, j))
    if a == d:
        lhs = lhs - ctx.norms[a] * ctx.munit(c, b, i, j)
    return lhs


def _coproduct_rule(rng, ctx):
    """E_i |> (xy) - (E_i |> x)(K_i |> y) - x (E_i |> y), which is zero."""
    i = rng.randint(1, ctx.rs.rank)
    x, y = _munit(rng, ctx), _munit(rng, ctx)
    return (x * y).act_left(("E", i)) \
        - x.act_left(("E", i)) * y.act_left(("K", i, 1)) \
        - x * y.act_left(("E", i))


def _zero_elem(rng, ctx):
    F = ctx.field
    kind = rng.randrange(4)
    if kind == 0:
        return _coeff(rng, F) * _product_law(rng, ctx) \
            + _coeff(rng, F) * _product_law(rng, ctx)
    if kind == 1:
        n = ctx.dim
        return _product_law(rng, ctx) * ctx.alg.mc(
            rng.randrange(n), rng.randrange(n), rng.random() < 0.5)
    if kind == 2:
        return _product_law(rng, ctx).act_right(
            ("F", rng.randint(1, ctx.rs.rank)))
    return _coproduct_rule(rng, ctx)


def _nonzero_elem(rng, ctx):
    F = ctx.field
    kind = rng.randrange(3)
    if kind == 0:
        return _product_law(rng, ctx, tamper=True)
    if kind == 1:
        return _zero_elem(rng, ctx) + _coeff(rng, F) * _munit(rng, ctx)
    x, y = _munit(rng, ctx), _munit(rng, ctx)
    return x * y - y * x.theta()


def one_leg_inputs(rng, ctx, n):
    out = []
    for t in range(n):
        e = _zero_elem(rng, ctx) if t % 2 else _nonzero_elem(rng, ctx)
        out.append([(ctx.field.one, (e,))])
    return out


def two_leg_inputs(rng, ctx, n):
    F = ctx.field
    out = []
    for t in range(n):
        x, y = _munit(rng, ctx), _munit(rng, ctx)
        terms = [(_coeff(rng, F), (_zero_elem(rng, ctx), x)),
                 (_coeff(rng, F), (y, _zero_elem(rng, ctx)))]
        if t % 2 == 0:
            terms.append((_coeff(rng, F), (x, y)))
        out.append(terms)
    return out


# case -> (flag_context args, field, 1-leg inputs, 2-leg inputs); the
# oracle's two-sided closures cost up to a few seconds per rank-two input.
# At q = 2/3 the powers q^e have numerators and denominators other than 1,
# which exercises the integer images' running lcm in both directions.
CASES = {
    "A1-symbolic": (("A", 1, ()), SymbolicField, 16, 8),
    "A2-S2-symbolic": (("A", 2, (2,)), SymbolicField, 8, 4),
    "A2-S2-q23": (("A", 2, (2,)), lambda: FixedField(Fraction(2, 3)), 8, 4),
    "B2-S1-q12": (("B", 2, (1,)), lambda: FixedField(Fraction(1, 2)), 12, 6),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    args, field, n1, n2 = CASES[request.param]
    return request.param, fp.flag_context(*args, field()), n1, n2


def _agree(ctx, inputs):
    verdicts = []
    for terms in inputs:
        cert = ctx.alg.tensor_zero_test(terms)
        assert cert.zero == two_sided_is_zero(ctx.alg, terms), terms
        assert cert.zero or cert.witness
        verdicts.append(cert.zero)
    return verdicts


def test_oracle_agrees_one_leg(case):
    name, ctx, n1, _ = case
    verdicts = _agree(ctx, one_leg_inputs(random.Random(name), ctx, n1))
    assert True in verdicts and False in verdicts


def test_oracle_agrees_two_legs(case):
    name, ctx, _, n2 = case
    verdicts = _agree(ctx, two_leg_inputs(random.Random(name + "2"), ctx, n2))
    assert True in verdicts and False in verdicts


def test_oracle_agrees_on_cycle_and_identity_twist(case):
    """The normalized twisted boundary of the canonical cycle is zero and
    the identity-twist control is not, under both tests."""
    ctx = case[1]
    good = hh.normalize(hh.twisted_boundary(hh.idempotent_cycle(ctx)))
    bad = hh.normalize(hh.twisted_boundary(hh.idempotent_cycle(ctx),
                                           twist="identity"))
    assert _agree(ctx, [list(good.terms), list(bad.terms)]) == [True, False]


# -- batches ----------------------------------------------------------------------


def _product_batch(ctx, abcd, tampered, z=None):
    """One batch: the product law of abcd at every entry (i, j), in order,
    as members that share their vector legs and differ in their
    functional; tampered maps an entry to the summand scaled by q.  With z,
    each member is the 2-leg tensor law (x) z."""
    n = ctx.dim
    members = []
    for i in range(n):
        for j in range(n):
            lhs = _product_law_at(ctx, *abcd, i, j, tampered.get((i, j)))
            legs = (lhs,) if z is None else (lhs, z)
            members.append([(ctx.field.one, legs)])
    return members


def _batch_agrees(ctx, members):
    """Batch certificates against one-member calls and the oracle.  Members
    whose functionals all differ are never tested together, so every
    certificate and witness is a one-member call's."""
    certs = ctx.alg.batch_zero_test(members)
    singles = [ctx.alg.tensor_zero_test(terms) for terms in members]
    for terms, cert in zip(members, certs):
        assert cert.zero == two_sided_is_zero(ctx.alg, terms)
    assert certs == singles
    return [c.zero for c in certs]


def test_oracle_agrees_on_batches(case):
    """Seeded product-law batches on one shared leg: all zero, exactly one
    tampered entry (only it is non-zero, with the one-member witness), a
    random mix, and a random 2-leg mix."""
    name, ctx = case[0], case[1]
    rng = random.Random(name + "batch")
    n = ctx.dim
    entries = [(i, j) for i in range(n) for j in range(n)]

    def abcd():
        return tuple(rng.randrange(n) for _ in range(4))

    def mix():
        bad = rng.sample(entries, rng.randint(1, len(entries) - 1))
        return {e: rng.randrange(n) for e in bad}

    assert _batch_agrees(ctx, _product_batch(ctx, abcd(), {})) == \
        [True] * len(entries)
    one = rng.choice(entries)
    assert _batch_agrees(ctx, _product_batch(
        ctx, abcd(), {one: rng.randrange(n)})) == [e != one for e in entries]
    bad = mix()
    assert _batch_agrees(ctx, _product_batch(ctx, abcd(), bad)) == \
        [e not in bad for e in entries]
    bad = mix()
    z = _munit(rng, ctx)
    assert _batch_agrees(ctx, _product_batch(ctx, abcd(), bad, z)) == \
        [e not in bad for e in entries]


def test_oracle_agrees_on_two_leg_batches(case):
    """2-leg batches (the product law at every entry (i, j), tensored with
    one matrix unit): all zero, and exactly one tampered entry, so only
    that member is non-zero, with the one-member witness."""
    name, ctx = case[0], case[1]
    rng = random.Random(name + "batch2")
    n = ctx.dim
    entries = [(i, j) for i in range(n) for j in range(n)]

    def abcd():
        return tuple(rng.randrange(n) for _ in range(4))

    z = _munit(rng, ctx)
    assert _batch_agrees(ctx, _product_batch(ctx, abcd(), {}, z)) == \
        [True] * len(entries)
    one = rng.choice(entries)
    assert _batch_agrees(ctx, _product_batch(
        ctx, abcd(), {one: rng.randrange(n)}, z)) == \
        [e != one for e in entries]


# -- groups that share a functional ----------------------------------------------


def _shared_laws(rng, n):
    """Four distinct (a, b, c, d): two with a != d, whose entries (i, j)
    share their functionals, and two with a = d for one a, which share
    theirs."""
    def pick(a, d):
        return (a, rng.randrange(n), rng.randrange(n), d)

    a, d = rng.sample(range(n), 2)
    out = [pick(a, d), pick(d, a)]
    e = rng.randrange(n)
    while len(out) < 4:
        abcd = pick(e, e)
        if abcd not in out:
            out.append(abcd)
    return out


def _grouped_batch_agrees(ctx, members):
    """Batch certificates of members drawn from several laws against
    one-member calls and the oracle.  Every verdict agrees.  A zero
    member's certificate has the shape of its own and closures no smaller
    (the joint ones contain its own); a non-zero member's certificate and
    witness are its own.  Returns the verdicts and whether some zero
    certificate had a larger raising closure than the member's own, which
    only a group of several members gives."""
    certs = ctx.alg.batch_zero_test(members)
    nsides = len(members[0][0][1])
    grouped = False
    for terms, cert in zip(members, certs):
        single = ctx.alg.tensor_zero_test(terms)
        assert cert.zero == single.zero == two_sided_is_zero(ctx.alg, terms)
        if cert.zero:
            assert cert.groups == single.groups
            assert len(cert.closure_dims) == len(single.closure_dims)
            assert all(j >= o for j, o in zip(cert.closure_dims,
                                               single.closure_dims))
            grouped = grouped or (cert.closure_dims[:nsides]
                                  != single.closure_dims[:nsides])
        else:
            assert cert == single
    return [c.zero for c in certs], grouped


@pytest.mark.parametrize("legs", [1, 2])
def test_oracle_agrees_on_grouped_families(case, legs):
    """Product-law batches over several (a, b, c, d) whose entries (i, j)
    share their functionals, 1-leg and 2-leg (each law (x) one matrix unit
    z): all zero, so each group passes with one raising closure per leg
    seeded with every member's legs; one tampered entry in one law, whose
    member then forms a group of its own; and a random mix in which both
    laws of one pair carry one shared random set of tampered entries, so
    that each tampered group pairs non-zero and falls back, and the other
    groups pass."""
    name, ctx = case[0], case[1]
    rng = random.Random(f"{name}grouped{legs}")
    n = ctx.dim
    entries = [(i, j) for i in range(n) for j in range(n)]
    z = _munit(rng, ctx) if legs == 2 else None

    def batch(tampered):
        members, want = [], []
        for abcd, bad in tampered:
            members += _product_batch(ctx, abcd, bad, z)
            want += [e not in bad for e in entries]
        verdicts, grouped = _grouped_batch_agrees(ctx, members)
        assert verdicts == want
        return grouped

    assert batch([(abcd, {}) for abcd in _shared_laws(rng, n)])
    laws = _shared_laws(rng, n)
    hit = rng.randrange(len(laws))
    one = {rng.choice(entries): rng.randrange(n)}
    assert batch([(abcd, one if f == hit else {})
                  for f, abcd in enumerate(laws)])
    bad = {e: rng.randrange(n)
           for e in rng.sample(entries, rng.randint(1, len(entries) - 1))}
    hit = rng.randrange(2)
    assert batch([(abcd, bad if f // 2 == hit else {})
                  for f, abcd in enumerate(_shared_laws(rng, n))])
