"""Quantized coordinate algebra elements as exact functionals.

An element is a sum of primitive terms (word, fun, vec):

* word -- a tensor word of slots of the algebra's module, each slot its
  conjugation flag (True for a conjugated slot),
* vec  -- a sparse vector in the word's tensor space (dict key -> scalar,
  keys are index tuples, one index per slot),
* fun  -- a sparse functional on the same space.

The term is the function X |-> fun(pi(X) vec) on the quantized enveloping
algebra; products concatenate words (matrix coefficients multiply through the
coproduct), the unit is the empty word.  Conjugated slots act through the bar
transport E -> -F, F -> -E, K -> K^(-1) on the same basis indices, so the
star of a term is purely syntactic: reverse the word (flipping conjugation
flags) and reverse every key; coefficients are untouched because scalars are
real.

Zero testing never materializes the full dual.  Group the terms by
(word, vector leg) and stack the groups: the element is a functional f on a
direct sum V of tensor spaces, v is the stacked vector leg, and the element
vanishes on the whole enveloping algebra U iff f vanishes on U.v.  The test
is triangular (U = U-U0U+; Jantzen, Lectures on Quantum Groups, ch. 4):

* Weight separation.  For symbolic q and for rational 0 < q < 1 distinct
  integer weight pairings give distinct powers of q, so U0 separates weights
  and a U0-stable subspace is the sum of its weight components.  Hence
  U0U+.v is spanned by the weight components of U+.v, which is the closure
  W of the weight components of v under the E_i alone (each E_i moves
  weight by a fixed root).  At q = 1 this fails, so zero tests refuse
  classical scalars.
* Reduction.  U.v = U-U0U+.v = U-.W, so f vanishes on U.v iff f o y
  vanishes on W for every y in U-, i.e. iff the closure of f under the
  transposed F_i is orthogonal to W.
* Functional split.  U.v is a submodule, hence U0-stable, hence
  weight-graded; a functional vanishes on a weight-graded subspace iff each
  of its weight components does.  So f is split by weight before closing,
  every closure row stays weight-homogeneous, and each row is paired only
  with the rows of W of its own weight.
* One leg at a time.  A tensor functional D on V_0 (x) ... (x) V_s
  vanishes on U.v_0 (x) ... (x) U.v_s, with U.v_s = U-.W_s, iff for every
  y in U- and w in W_s the functional D(..., y.w) = ((1 (x) y^T) D)(..., w)
  vanishes on U.v_0 (x) ... (x) U.v_s-1.  So the test runs from the last
  leg down to leg 0, and each step is an iff:
  - Close: close the current functionals, split by tuples of weights (the
    subspace is graded by them, as in the functional split), under F_i^T
    on leg s alone, the other legs passive labels.  The closure spans
    every (1 (x) y^T) D_c, y in U-, D_c a component.
  - Contract: pair leg s of every closure row with every row of W_s of
    the same leg-s weight (other weights pair to zero), matching keys by
    block.  By bilinearity the contractions span every D(..., y.w); each
    is weight-homogeneous on the legs left, and they are the functionals
    of the step for leg s - 1.
  At leg 0 only the block is left, and a contraction summed over its
  blocks is the pairing of a closure row with a row of W_0: the 1-leg
  reduction above.

Both sides use one closure routine and one generator-action routine (the
functional side reads the transposed tables).  Each zero-test call builds
the vector closure of every stacked leg it needs and drops it on return;
an inner leg's functional closure is built in full before it is
contracted, and the closure of leg 0 pairs each new row at once and stops
at the first non-zero value.  The certificate is the dimension of U+v_s
for each stacked leg, then of each leg's functional closure from the last
leg to leg 0: (dim U+v, dim (U-)^T f) for one leg and (dim U+v0,
dim U+v1, dim (1 (x) U-)^T D, dim (U-)^T G) for two, G the contractions
of leg 1.  A closure whose dimension exceeds the cap raises CapExceeded,
checked after every kept insert, seeds included; the cap is the
algebra's (CoordAlgebra.cap), fixed when the algebra is built.

Batches.  Identities checked together often share their functional F and
differ in their vector legs: for a != d the unitarity sums U[a,d] of
flagproj.verify_matrix_units all have the functional sum_k N_k (k, k) and
the vector leg (a, d).  So batch_zero_test tests each group, the members
phi with the same block words and the same F, in one pass: the raising
closure W of each leg is seeded with the weight components of every
member's leg V_phi in member order, and the lowering closure is that of F:

* Soundness, one leg.  U.span{V_phi} = sum_phi U.V_phi, and by the
  reduction above it is U-.W with W the closure of the weight components
  of every V_phi under the E_i.  So if (U-)^T F is orthogonal to W, F
  vanishes on every U.V_phi, which is the zero test of every member of
  the group; for one leg this is an iff.  Each member then gets the
  certificate (dim W, dim (U-)^T F): the first at least its own, the
  second its own.
* Soundness, two legs.  The argument runs leg by leg as in the one-member
  test: the closure of the last leg is each member's own, the joint
  raising closure of that leg contains each member's, so the joint
  contractions span each member's, and the joint closure of leg 0
  contains each member's.  Seeding each leg with every member's leg adds
  cross pairs (the leg 0 of one member with the leg 1 of another), so
  here the joint test is sufficient only, and the fallback decides.  The
  certificate holds the joint closure dimensions.
* Cap.  A member's own closures lie inside the joint ones, so joint
  closures that never exceed the cap bound every member's closures too.
* Fallback.  If the group's test pairs non-zero or overruns the cap,
  every member of the group is tested on its own exactly as a one-member
  call, so per-member verdicts, witnesses and cap overruns do not depend
  on the batching.  A group of one member is tested that way at once.

Closures run on integers wherever the scalars allow:

* Offset tables.  The algebra's module never changes and a slot's action
  tables depend only on its conjugation flag, so pi(gen) on a key of a word,
  or its transpose, is a function of (word, gen, key, dual) alone.  A
  word's _Space owns its slot data, key indices, generator action and
  index -> weight table; each (word, gen, dual) has an offset table, a
  Memo from a key's index i to the action encoded for the span kernel,
  (den, ((dk, num), ...)): image index i + dk, coefficient num / den.
  Both fill entries on first lookup, never for the whole space (a length-4
  word of a 26-dimensional module has 456,976 keys), and neither refers
  back to the algebra, so a dropped algebra is freed without the cyclic
  collector.
* Radix keys.  A closure over a stack of B blocks keys its rows by
  r = block + B (i_0 + R_0 (i_1 + ...)), i_s the index of the leg-s key
  and R_s the largest leg-s word dimension over the blocks.  With
  stride_s = B R_0 ... R_(s-1), acting on leg s adds dk stride_s to r,
  dropping the last leg s of a key is r mod stride_s, and the raising
  closure of leg s holds the matching entry at block + B i_s.
* Integer rows.  The span kernel forms each image from its stored row and
  the table entries in its own scalars, and insert returns the stored row
  itself, standing for row / row[pivot].  At fixed q rows and images are
  integers from generator action to the pairing: a contraction of two
  rows is the exact one times den_f den_w, their pivot entries, which
  changes no span, and a non-zero pairing's witness is formed exactly as
  the integer sum over den_f den_w.

Pivot order.  The kernels pivot on the largest key, so radix keys give
other stored rows than another key order would, but the same spans.  A
closure inserts its seeds, then the images of each stored row in order.
If two runs agree on the span S_k of their first k stored rows, their k-th
rows differ by a non-zero factor and a vector of S_(k-1), whose images are
queued, and inserted, before those of the k-th row; so by induction the
span after every candidate is the same in both runs, whatever rows
represent it.  Which candidates are kept, every closure dimension, every
verdict and every zero certificate are therefore independent of the pivot
order.  Only a non-zero witness value may change, because it pairs a
differently normalized row, and for two legs also the last, partial,
dimension: the leg-0 seeds are the contractions of different leg-1 rows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial, reduce
from math import prod
from operator import add, mul

from qflag import Memo, Record, cartan
from qflag.lin import kernel, span_basis
from qflag.repn import CapExceeded, HWModule

DEFAULT_CAP = 6000


class ZeroCertificate(Record):
    """Verdict of a zero test.  closure_dims is dim U+v_s for each stacked
    vector leg, then the dimension of each leg's lowering closure of the
    functional, from the last leg to leg 0 (see the module docstring):
    (dim U+v, dim (U-)^T f) for a 1-leg test and (dim U+v0, dim U+v1,
    dim (1 (x) U-)^T D, dim (U-)^T G) for a 2-leg test.  On a non-zero
    verdict the last one is only the part built before the first non-zero
    pairing, and the witness holds the exact value of that pairing: a
    closure row paired with a raising row, each as normalized by the span
    kernel, so the value depends on the pivot order (see the module
    docstring) but never on integer scaling.  A zero verdict of a batch
    member certified with other members carries the dimensions of the
    group's joint closures instead (see the module docstring).  It is ()
    when the terms cancel outright; groups counts the distinct (words,
    vector legs) after cancellation."""

    __slots__ = ("zero", "closure_dims", "groups", "witness")

    def __init__(self, zero, closure_dims, groups, witness=None):
        self.zero = zero
        self.closure_dims = closure_dims
        self.groups = groups
        self.witness = witness

    def __bool__(self):
        return self.zero


class _SlotData:
    """Action data for a slot of m, conjugated if barred.  tables[gen, dual][i]
    lists, per basis index, the action of gen_i (gen "E" or "F"): its
    columns act on vectors (dual False), its rows, the transpose, on
    functionals (dual True)."""

    def __init__(self, m: HWModule, barred: bool):
        rs = m.rs
        rank = rs.rank
        sgn = -1 if barred else 1
        self.dim = m.dim
        if barred:
            self.weights = [tuple(-x for x in w) for w in m.weights]
        else:
            self.weights = list(m.weights)
        two_rho = cartan.two_rho_root(rs)
        self.r2exp = [cartan.form_rw(rs, two_rho, w) for w in self.weights]
        self.kexp = {}
        self.tables = {(g, d): {} for g in "EF" for d in (False, True)}
        for i in range(1, rank + 1):
            self.kexp[i] = [sgn * m.k_exp(i, k) for k in range(m.dim)]
            if barred:
                ec = [tuple((l, -c) for l, c in m.f_col(i, k))
                      for k in range(m.dim)]
                fc = [tuple((l, -c) for l, c in m.e_col(i, k))
                      for k in range(m.dim)]
            else:
                ec = [m.e_col(i, k) for k in range(m.dim)]
                fc = [m.f_col(i, k) for k in range(m.dim)]
            for g, cols in (("E", ec), ("F", fc)):
                self.tables[g, False][i] = cols
                self.tables[g, True][i] = _transpose(cols, m.dim)


def _transpose(cols, dim):
    rows = [[] for _ in range(dim)]
    for src, col in enumerate(cols):
        for l, c in col:
            rows[l].append((src, c))
    return [tuple(r) for r in rows]


class CoordAlgebra:
    """The matrix coefficients of one module m and of its conjugate, with
    the action data of the plain and the conjugated slot (slots[barred]),
    and Memos shared by every check on the algebra: per-word tensor spaces
    (space), offset tables per (word, gen, dual) (_action_tables, transposed
    when dual is set; see the module docstring) and Haar data per word
    (_haar_data); nothing it owns refers back to it.  cap bounds every
    zero-test closure on it."""

    def __init__(self, m: HWModule, cap=DEFAULT_CAP):
        self.m = m
        self.rs = m.rs
        self.field = m.field
        self.cap = cap
        self.slots = (_SlotData(m, False), _SlotData(m, True))
        self._kernel = kernel(m.field)
        self._spaces = Memo(partial(_Space, self.slots, m.rs.rank, m.field))
        self._action_tables = Memo(partial(
            _offset_table, self._spaces, self._kernel.encode_action))
        self._haar_data = Memo(partial(_haar_rows, m.rs, self._spaces))

    # -- elements -------------------------------------------------------------

    def unit(self):
        one = self.field.one
        return CoordElem(self, (((), {(): one}, {(): one}),))

    def zero(self):
        return CoordElem(self, ())

    def mc(self, i, j, barred=False):
        """The matrix coefficient sending X to (pi(X))_ij on the module, or
        on its conjugate if barred; basis indices are 0-based ints below
        the module's dimension."""
        for x in (i, j):
            if (not isinstance(x, int) or isinstance(x, bool)
                    or not 0 <= x < self.m.dim):
                raise ValueError(f"basis index {x!r} out of range")
        one = self.field.one
        word = (bool(barred),)
        return CoordElem(self, ((word, {(i,): one}, {(j,): one}),))

    def space(self, word) -> _Space:
        """The tensor space of the word, cached per word."""
        return self._spaces[word]

    # -- invariant integral -----------------------------------------------------

    def haar(self, elem: CoordElem):
        """The invariant integral h.  For each term (word, f, v), with t the
        zero-weight part of v, h = f(P t), P the projection of the
        zero-weight space V_0 onto the invariants I along C (below):

        * Complete reducibility of the finite-dimensional type-1 module V
          (Jantzen, Lectures on Quantum Groups) gives V_0 = I (+) C,
          C the zero-weight part of the non-trivial isotypic components.
        * C = sum_i F_i V_alpha_i.  A non-trivial irreducible component is
          spanned by F-words on its highest vector, so its zero-weight part
          is spanned by F-words ending in some F_i, which start from weight
          alpha_i; conversely the trivial components have no weight
          alpha_i.  So C is spanned by the c_m = F_i e_k, k of weight
          alpha_i.
        * E kills I and is injective on C: a zero-weight vector of a
          non-trivial component killed by every E_i would be a highest
          vector of weight 0.  So P t = t - c for the unique c in C with
          E c = E t.
        * E t lies in E C, so reducing it against the rows E c_m + tag m
          leaves only tags r_m, with E t = -sum_m r_m E c_m; by injectivity
          c = -sum_m r_m c_m.

        Hence h = f(t) + sum_m r_m f(c_m)."""
        if elem.alg is not self:
            raise ValueError("element from another algebra")
        field = self.field
        zero_wt = (0,) * self.rs.rank
        total = field.zero
        for word, fun, vec in elem.terms:
            space = self.space(word)
            t = {k: c for k, c in vec.items() if space.weight(k) == zero_wt}
            if not t:
                continue
            cs, basis = self._haar_data[word]
            r = basis.reduce(space.raising_image(t))
            if any(k[0] for k in r):
                raise AssertionError("zero-weight decomposition failed")
            total = total + _pair(field, fun, t)
            for (_, m), c in r.items():
                total = total + c * _pair(field, fun, cs[m])
        return total

    # -- zero testing ------------------------------------------------------------

    def batch_zero_test(self, batch):
        """Exact zero tests for a batch of sums of tensors of elements (1 or
        2 legs); each member is an iterable of (coeff, (elem_0, ...,
        elem_n)) as in tensor_zero_test.  Members are drawn one at a time,
        and each is kept only as its stacked vector legs, so a generator
        batch holds no more than those and its distinct functionals.
        Returns one ZeroCertificate per member, in order.

        Members with the same block words and the same functional are
        closed together, and tested one by one if that pairs non-zero or
        overruns the cap (see the module docstring), so verdicts, witnesses
        and cap overruns are those of one-member calls.
        """
        if self.field.is_classical:
            raise ValueError(
                "zero tests require symbolic q or rational 0 < q < 1 "
                "(weight separation fails at q = 1)")
        certs = []
        # (block words, functional items) -> (words, functional, [(at, legs)])
        shared = {}
        for tensor_terms in batch:
            order, groups = self._group_terms(tensor_terms)
            del tensor_terms
            if groups is None:
                certs.append(ZeroCertificate(True, (), 0))
                continue
            words = tuple(k[0] for k in order)
            fun = tuple(groups[k] for k in order)
            shared.setdefault(
                (words, tuple(tuple(sorted(f.items())) for f in fun)),
                (words, fun, []))[2].append((len(certs), order))
            certs.append(None)
        # the keys copy every distinct functional; drop them before testing
        shared = list(shared.values())
        for words, fun, members in shared:
            if len(members) > 1:
                try:
                    joint = self._lowering_test(words, self._raising_legs(
                        [order for _, order in members]), fun)
                except CapExceeded:
                    joint = None
                if joint is not None and joint.zero:
                    for at, _ in members:
                        certs[at] = joint
                    continue
            for at, order in members:
                certs[at] = self._lowering_test(
                    words, self._raising_legs([order]), fun)
        return certs

    def tensor_zero_test(self, tensor_terms):
        """Exact zero test for sums of tensors of elements (1 or 2 legs).

        tensor_terms: iterable of (coeff, (elem_0, ..., elem_n)).  Returns a
        ZeroCertificate whose closure_dims hold dim U+v_s for each stacked
        vector leg, then the dimension of each leg's lowering closure of the
        functional (see the module docstring).  A non-zero verdict stops at
        the first leg-0 closure row that pairs non-trivially, so its last
        dimension is the size of the closure built so far.
        """
        return self.batch_zero_test([tensor_terms])[0]

    def is_zero(self, elem: CoordElem) -> ZeroCertificate:
        return self.tensor_zero_test([(self.field.one, (elem,))])

    def _group_terms(self, tensor_terms):
        """Aggregate a tensor sum by (words, vector legs): returns the sorted
        group keys (the stacked vector legs) and {key: {fkeys: coeff}}, or
        ((), None) when every functional cancels; each coeff scales its
        term's functional values.  The zero tests stack these groups, and
        CoordElem.canonical reads its normal form off them.  A term with no
        leg or a leg from another algebra raises ValueError, an inexact or
        foreign coeff TypeError."""
        zero = self.field.zero
        nsides = None
        groups = {}
        for coeff, legs in tensor_terms:
            if not legs:
                raise ValueError("a tensor term needs at least one leg")
            if any(e.alg is not self for e in legs):
                raise ValueError("leg from another algebra")
            coeff = _exact(self.field, coeff)
            if nsides is None:
                nsides = len(legs)
                if nsides > 2:
                    raise NotImplementedError(
                        "zero tests are implemented for 1- and 2-leg tensors")
            elif len(legs) != nsides:
                raise ValueError("mixed tensor degrees in one zero test")
            for combo in itertools.product(*(e.terms for e in legs)):
                words, funs, vecs = zip(*combo)
                g = groups.setdefault((words, tuple(map(_canon_vec, vecs))),
                                      {})
                for items in itertools.product(*(f.items() for f in funs)):
                    fkeys, cs = zip(*items)
                    nv = g.get(fkeys, zero) + reduce(mul, cs, coeff)
                    if nv:
                        g[fkeys] = nv
                    else:
                        g.pop(fkeys, None)
        groups = {k: v for k, v in groups.items() if v}
        if not groups:
            return (), None
        return tuple(sorted(groups, key=_group_sort_key)), groups

    def _lowering_test(self, words, legs, fun):
        """Close the weight components of the functional fun (a tuple of
        one dict {fkeys: coeff} per block of the stacked legs, the blocks'
        leg words in words) under the transposed F_i one leg at a time,
        from the last leg to leg 0, and contract each leg's closure rows
        with the raising closure rows of that leg (see the module
        docstring).  Keys are radix keys of the blocks' legs 0..s.  An
        inner leg's closure is built in full, which releases its working
        span basis before the contractions grow; the rows of leg 0 are
        paired as they are inserted, and the test stops at the first
        non-zero pairing, whose witness is the exact value."""
        dims = tuple(dim for _, dim in legs)
        codec = _Radix(self, words)
        seeds = self._weight_split(codec, (
            (gi, fkeys, c) for gi, f in enumerate(fun)
            for fkeys, c in f.items()))
        for s in reversed(range(len(legs))):
            rows = self._closure_rows(codec, seeds, [
                (s, ("F", i)) for i in range(1, self.rs.rank + 1)], True)
            if s:
                rows = list(rows)
            seeds = []
            fdim = 0
            for row in rows:
                fdim += 1
                for g, w in self._contract(codec, row, legs[s]):
                    if s:
                        seeds.append(g)
                    elif val := reduce(add, g.values()):
                        val = self._kernel.ratio(
                            val, row[max(row)] * w[max(w)])
                        return ZeroCertificate(
                            False, dims + (fdim,), len(words),
                            witness=f"pairs to {val} on a closure "
                            + ("vector" if len(legs) == 1 else "pair"))
            dims += (fdim,)
            if s:
                codec = _Radix(self, [w[:s] for w in codec.words])
        return ZeroCertificate(True, dims, len(words))

    def _contract(self, codec, row, leg):
        """Contract the last leg of a weight-homogeneous row with each row
        w of the raising closure leg of its weight, matching keys by block;
        yield (contraction, w) for the non-zero contractions, in leg row
        order.  A contraction is keyed by the row's keys without their
        last leg (r mod stride); it is the exact contraction times the two
        rows' pivot entries."""
        by_wt, _ = leg
        nb = codec.nb
        stride = codec.strides[-1]
        by_p = {}
        for r, c in row.items():
            by_p.setdefault(r % nb + nb * (r // stride), []).append(
                (r % stride, c))
        for w in by_wt.get(codec.weight(next(iter(row)))[-1:], ()):
            g = {}
            for p, x in w.items():
                for key, c in by_p.get(p, ()):
                    cur = g.get(key)
                    g[key] = c * x if cur is None else cur + c * x
            g = {key: c for key, c in g.items() if c}
            if g:
                yield g, w

    def _raising_legs(self, orders):
        """The raising closure of each leg, seeded with the stacked legs of
        every member in orders (group keys with the same block words), in
        member order."""
        return [self._raising_closure([
            tuple((k[0][s], k[1][s]) for k in order) for order in orders])
            for s in range(len(orders[0][0][0]))]

    def _raising_closure(self, sigs):
        """U+ closure of the stacked vector legs described by sigs, each a
        tuple of (word, canonical vec items) blocks with the same words:
        ({(weight,): rows}, dim), rows keyed block + len(sig) * i by the
        radix keys of the one-leg blocks, seeded with the weight
        components of each stacked leg in turn."""
        codec = _Radix(self, [(w,) for w, _ in sigs[0]])
        seeds = [v for sig in sigs for v in self._weight_split(codec, (
            (gi, (key,), c)
            for gi, (_, vec_items) in enumerate(sig)
            for key, c in vec_items))]
        raising = [(0, ("E", i)) for i in range(1, self.rs.rank + 1)]
        by_wt = {}
        for row in self._closure_rows(codec, seeds, raising, False):
            by_wt.setdefault(codec.weight(next(iter(row))), []).append(row)
        return by_wt, sum(len(rows) for rows in by_wt.values())

    def _weight_split(self, codec, items):
        """Encode (block, (k_0, ..., k_n-1), coeff) items as radix keys and
        split them into weight-homogeneous vectors, in sorted weight
        order."""
        zero = self.field.zero
        by_wt = {}
        for block, keys, c in items:
            r = codec.encode(block, keys)
            blk = by_wt.setdefault(codec.weight(r), {})
            blk[r] = blk.get(r, zero) + c
        return [by_wt[wt] for wt in sorted(by_wt)]

    def _closure_rows(self, codec, seeds, gens, dual):
        """Span closure of the seed vectors under gens, yielding each stored
        row as soon as it is inserted (a caller may stop early).

        Keys are the codec's radix keys, and a generator (s, gen) acts on
        leg s alone -- on vectors, or transposed on functionals when dual
        is set -- by the offset tables of each block's leg-s word.
        Weight-homogeneous seeds give weight-homogeneous rows, because
        every generator moves weight by a fixed root.  Images are formed by
        the kernel in its own scalars.  The algebra's cap is checked after
        every kept insert, seeds included."""
        basis = span_basis(self.field)
        image = basis.image
        cap = self.cap
        nb = codec.nb
        actions = [([self._action_tables[w[s], gen, dual]
                     for w in codec.words], codec.strides[s], codec.radix[s])
                   for s, gen in gens]
        queue = []

        def candidates():
            yield from seeds
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                for tables, stride, radix in actions:
                    yield image(v, tables, nb, stride, radix)

        for v in candidates():
            if not v:
                continue
            r = basis.insert(v)
            if r is not None:
                if basis.dim > cap:
                    raise CapExceeded(
                        f"closure dimension exceeded the cap {cap}; "
                        "raise --cap")
                queue.append(r)
                yield r


class _Radix:
    """Radix keys of a stack of blocks; block b has leg words words[b].  The
    key of (b, k_0, ..., k_n-1) is r = b + B (i_0 + R_0 (i_1 + ...)), i_s
    the index of k_s in the tensor space of words[b][s], B the number of
    blocks and R_s the largest leg-s word dimension over the blocks, so
    leg s has stride B R_0 ... R_(s-1) and digit r // stride_s % R_s."""

    __slots__ = ("words", "spaces", "nb", "radix", "strides")

    def __init__(self, alg, words):
        self.words = words
        self.spaces = [[alg.space(w) for w in legs] for legs in words]
        self.nb = len(words)
        self.radix = [max(legs[s].size for legs in self.spaces)
                      for s in range(len(words[0]))]
        self.strides = list(itertools.accumulate(self.radix[:-1], mul,
                                                 initial=self.nb))

    def encode(self, block, keys):
        return block + sum(sp.index(k) * st for sp, k, st in zip(
            self.spaces[block], keys, self.strides))

    def digits(self, r):
        """(b, (i_0, ..., i_n-1)) of the radix key r."""
        return r % self.nb, tuple(r // st % rad for st, rad in zip(
            self.strides, self.radix))

    def weight(self, r):
        """Per-leg weights of the radix key r."""
        b, ix = self.digits(r)
        return tuple(sp[i] for sp, i in zip(self.spaces[b], ix))


class _Space(dict):
    """The tensor space of a word of module slots (slot_data[barred] the
    data of each slot): slot data, dims, place values of the lexicographic
    index sum_j key[j] * places[j], and the generator action; as a dict,
    index -> weight of its key, filled on lookup."""

    __slots__ = ("slots", "rank", "field", "dims", "places", "size")

    def __init__(self, slot_data, rank, field, word):
        super().__init__()
        slots = self.slots = [slot_data[b] for b in word]
        self.rank = rank
        self.field = field
        self.dims = tuple(sd.dim for sd in slots)
        self.places = tuple(prod(self.dims[j + 1:])
                            for j in range(len(slots)))
        self.size = prod(self.dims)

    def __missing__(self, i):
        value = self[i] = self.weight(self.key(i))
        return value

    def index(self, key):
        """The index of key in the space."""
        return sum(map(mul, key, self.places))

    def key(self, i):
        """The key of index i in the space."""
        return tuple(i // p % d for d, p in zip(self.dims, self.places))

    def weight(self, key):
        wt = [0] * self.rank
        for sd, k in zip(self.slots, key):
            for a, x in enumerate(sd.weights[k]):
                wt[a] += x
        return tuple(wt)

    def action(self, gen, key, dual=False):
        """pi(gen) applied to the basis vector `key`, or with dual=True the
        transposed action fun -> fun o pi(gen) on a functional key; returns
        [(new_key, coeff), ...].  gen: ("E", i) | ("F", i) | ("K", i, e),
        the last acting as K_i^e, as checked by _check_gen.  The coproduct
        puts K on the slots after an E and K^(-1) on the slots before an
        F; K is diagonal, so the transpose only swaps the column tables for
        the row tables."""
        q_power = self.field.q_power
        slots = self.slots
        kind = gen[0]
        if kind == "E" or kind == "F":
            i = gen[1]
            out = []
            for j, sd in enumerate(slots):
                col = sd.tables[kind, dual][i][key[j]]
                if not col:
                    continue
                if kind == "E":
                    exp = sum(slots[m].kexp[i][key[m]]
                              for m in range(j + 1, len(slots)))
                else:
                    exp = -sum(slots[m].kexp[i][key[m]] for m in range(j))
                f = q_power(exp)
                for l, c in col:
                    out.append((key[:j] + (l,) + key[j + 1:], c * f))
            return out
        i, e = gen[1], gen[2]
        exp = e * sum(sd.kexp[i][k] for sd, k in zip(slots, key))
        return [(key, q_power(exp))]

    def apply(self, gen, vec, dual=False):
        """pi(gen) applied to the sparse vector vec, or with dual=True the
        transposed action on the sparse functional vec."""
        zero = self.field.zero
        out = {}
        for key, c in vec.items():
            for nk, f in self.action(gen, key, dual):
                nv = out.get(nk, zero) + c * f
                if nv:
                    out[nk] = nv
                else:
                    out.pop(nk, None)
        return out

    def raising_image(self, vec):
        """E vec for E = (E_1, ..., E_rank), keyed (i, key)."""
        return {(i, k): c for i in range(1, self.rank + 1)
                for k, c in self.apply(("E", i), vec).items()}


def _offset_table(spaces, encode, key):
    """The offset table of gen on the word, for key (word, gen, dual): a
    Memo from index i to the encoded action on the key of index i
    (transposed when dual is set; see the module docstring)."""
    word, gen, dual = key
    return Memo(partial(_encoded_action, spaces[word], gen, dual, encode))


def _encoded_action(space, gen, dual, encode, i):
    return encode([(space.index(nk) - i, c)
                   for nk, c in space.action(gen, space.key(i), dual)])


def _haar_rows(rs, spaces, word):
    """The vectors c_m = F_i e_k, over the keys k of weight alpha_i, and a
    span basis of the rows E c_m + tag m (E = (E_1, ..., E_rank)) on the
    word's space.  E-image keys are (i, key) with i >= 1 and tags (0, m),
    so every tag sorts below every E-image key and elimination pivots on
    the E-image part first."""
    space = spaces[word]
    one = space.field.one
    alphas = {cartan.root_to_fund(rs, cartan.simple_root(rs, i)): i
              for i in range(1, rs.rank + 1)}
    cs = []
    basis = span_basis(space.field)
    for k in map(space.key, range(space.size)):
        i = alphas.get(space.weight(k))
        if i is None:
            continue
        c = space.apply(("F", i), {k: one})
        if c:
            row = space.raising_image(c)
            row[(0, len(cs))] = one
            basis.insert(row)
            cs.append(c)
    return cs, basis


# ---------------------------------------------------------------------------


def _pair(field, fun, vec):
    tot = field.zero
    if len(fun) > len(vec):
        fun, vec = vec, fun
    for k, c in fun.items():
        v = vec.get(k)
        if v is not None:
            tot = tot + c * v
    return tot


def _exact(field, x):
    """x as a scalar of field; an inexact or foreign scalar raises
    TypeError."""
    if isinstance(x, type(field.zero)):
        return x
    if isinstance(x, (int, Fraction)):
        return field.from_fraction(x)
    raise TypeError(f"scalar {x!r} is not exact in {field!r}")


def _check_gen(rs, gen):
    """Raise ValueError unless gen is ("E", i), ("F", i) or ("K", i, e),
    i a simple-root index of rs and e an int exponent (not a bool)."""
    if not (isinstance(gen, tuple) and (
            len(gen) == 2 and gen[0] in ("E", "F")
            or len(gen) == 3 and gen[0] == "K" and type(gen[2]) is int)):
        raise ValueError(f"unknown generator {gen!r}")
    cartan.simple_root(rs, gen[1])


def _canon_vec(vec):
    # keys are distinct, so sorting the items never compares two values
    return tuple(sorted(vec.items()))


def _group_sort_key(k):
    words, vecs = k
    return (words, tuple(tuple((kk, str(c)) for kk, c in v) for v in vecs))


class CoordElem:
    """A finite sum of primitive matrix-coefficient terms."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = tuple(terms)

    # -- ring structure ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CoordElem):
            if other.alg is not self.alg:
                raise ValueError("elements from different algebras")
            return CoordElem(self.alg, self.terms + other.terms)
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CoordElem(self.alg, tuple(
            (w, {k: -c for k, c in f.items()}, v) for w, f, v in self.terms))

    def __mul__(self, other):
        if isinstance(other, CoordElem):
            if other.alg is not self.alg:
                raise ValueError("elements from different algebras")
            out = []
            for wa, fa, va in self.terms:
                for wb, fb, vb in other.terms:
                    out.append((wa + wb,
                                _outer(fa, fb),
                                _outer(va, vb)))
            return CoordElem(self.alg, out)
        return self.scale(_exact(self.alg.field, other))

    __rmul__ = __mul__  # only a scalar factor reaches it

    def scale(self, c):
        if not c:
            return self.alg.zero()
        return CoordElem(self.alg, tuple(
            (w, {k: c * x for k, x in f.items()}, v)
            for w, f, v in self.terms))

    def canonical(self):
        """Hashable normal form: one (word, functional items, vector items)
        per group of CoordAlgebra._group_terms.  Vector legs are normalized
        first (leading coefficient 1, the factor moved into the functional
        leg) so proportional legs merge and the form does not depend on how
        scalars were split across the two legs.  Scalars are stringified;
        exact because the scalar string form is canonical."""
        one = self.alg.field.one
        terms = []
        for w, f, v in self.terms:
            v = {k: c for k, c in v.items() if c}
            if not v:
                continue
            lead = v[min(v)]
            if lead != one:
                v = {k: c / lead for k, c in v.items()}
                f = {k: c * lead for k, c in f.items()}
            terms.append((w, f, v))
        order, groups = self.alg._group_terms(
            [(one, (CoordElem(self.alg, terms),))])
        return tuple(
            (words[0], tuple(sorted(
                (k, str(c)) for (k,), c in groups[words, vecs].items())),
             tuple((k, str(c)) for k, c in vecs[0]))
            for words, vecs in order)

    # -- coalgebra-ish operations -------------------------------------------------

    def counit(self):
        field = self.alg.field
        tot = field.zero
        for _, f, v in self.terms:
            tot = tot + _pair(field, f, v)
        return tot

    def star(self):
        out = []
        for w, f, v in self.terms:
            nw = tuple(not barred for barred in reversed(w))
            nf = {tuple(reversed(k)): c for k, c in f.items()}
            nv = {tuple(reversed(k)): c for k, c in v.items()}
            out.append((nw, nf, nv))
        return CoordElem(self.alg, out)

    def act_left(self, gen):
        """gen |> elem  (left regular action on the vector legs); gen is
        checked as in _check_gen."""
        alg = self.alg
        _check_gen(alg.rs, gen)
        out = []
        for w, f, v in self.terms:
            nv = alg.space(w).apply(gen, v)
            if nv:
                out.append((w, f, nv))
        return CoordElem(alg, out)

    def act_right(self, gen):
        """elem <| gen  (right regular action, on the functional legs); gen
        is checked as in _check_gen."""
        alg = self.alg
        _check_gen(alg.rs, gen)
        out = []
        for w, f, v in self.terms:
            nf = alg.space(w).apply(gen, f, dual=True)
            if nf:
                out.append((w, nf, v))
        return CoordElem(alg, out)

    def theta(self):
        """The modular twist: conjugation by the 2-rho group-like, computed
        by weights (each key is an eigenvector)."""
        alg = self.alg
        field = alg.field
        out = []
        for w, f, v in self.terms:
            slots = alg.space(w).slots

            def scaled(d):
                nd = {}
                for k, c in d.items():
                    exp = sum(slots[j].r2exp[k[j]] for j in range(len(w)))
                    nd[k] = c * field.q_power(exp)
                return nd

            out.append((w, scaled(f), scaled(v)))
        return CoordElem(alg, out)

    def theta_via_action(self):
        """The same twist through the generic generator action: K_2rho =
        prod_i K_i^c_i for 2 rho = sum_i c_i alpha_i, applied on both
        sides; kept as an independent cross-check of theta's exponent
        bookkeeping (r2exp)."""
        out = self
        for i, c in enumerate(cartan.two_rho_root(self.alg.rs), start=1):
            if c:
                out = out.act_left(("K", i, c)).act_right(("K", i, c))
        return out


def _outer(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = ca * cb
    return out
