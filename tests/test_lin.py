"""Kernel implementations against a naive dense-Gaussian oracle, and against
each other.

The two implementations (generic field kernel, integer-row kernel) must
produce identical spans, ranks, and reductions on identical input order,
and closure images that insert as the same row.  insert returns the stored
row in the kernel's own scalars, standing for row / row[pivot]; _exact
turns it back into Fractions.
"""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from qflag._pure import FieldSpanBasis, FractionSpanBasis
from qflag.lin import kernel_name, span_basis
from qflag.qscalar import FixedField, QScalar, SymbolicField

IMPLS = [FieldSpanBasis, FractionSpanBasis]


def _exact(row):
    """The Fraction vector a stored row returned by insert stands for."""
    den = row[max(row)]
    return {k: Q(c) / den for k, c in row.items()}


def _dense_rank(vectors, n):
    """Oracle: row-reduce a dense matrix over Q, returning the rank."""
    m = [[v.get(j, Q(0)) for j in range(n)] for v in vectors]
    rank = 0
    for col in range(n - 1, -1, -1):  # mirror the kernels' max-key pivoting
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


vec_entries = st.dictionaries(
    st.integers(0, 7),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=6)
vector_lists = st.lists(vec_entries, min_size=1, max_size=10)


@settings(max_examples=120)
@given(vector_lists)
def test_rank_matches_dense_oracle(vecs):
    for impl in IMPLS:
        basis = impl()
        for v in vecs:
            basis.insert(v)
        assert basis.dim == _dense_rank(vecs, 8)


@settings(max_examples=120)
@given(vector_lists, vec_entries)
def test_impls_agree_exactly(vecs, probe):
    results = []
    for impl in IMPLS:
        basis = impl()
        grew = [basis.insert(v) for v in vecs]
        results.append((basis.dim,
                        [g if g is None else _exact(g) for g in grew],
                        sorted((sorted(r.items()) for r in basis.rows())),
                        dict(basis.reduce(probe))))
    for other in results[1:]:
        assert other == results[0]


@settings(max_examples=80)
@given(vector_lists)
def test_reduce_detects_membership(vecs):
    basis = FractionSpanBasis()
    inserted = []
    for v in vecs:
        if basis.insert(v) is not None:
            inserted.append(v)
    # every original vector reduces to zero against the finished span
    for v in vecs:
        assert not basis.reduce(v)
    # pivot rows are normalized
    for row in basis.rows():
        assert row[max(row)] == 1


def test_field_kernel_handles_symbolic_scalars():
    s = QScalar.s_power
    basis = FieldSpanBasis()
    assert basis.insert({0: s(2), 1: s(-2)}) is not None
    assert basis.insert({0: s(4), 1: QScalar.from_fraction(1)}) is None
    assert basis.insert({0: s(4), 1: QScalar.from_fraction(2)}) is not None
    assert basis.dim == 2
    assert not basis.reduce({0: s(6), 1: s(2)})


def test_span_basis_selects_by_field():
    sym = span_basis(SymbolicField())
    assert isinstance(sym, FieldSpanBasis)
    fixed = span_basis(FixedField(Q(1, 2)))
    assert isinstance(fixed, FractionSpanBasis)
    assert kernel_name() == "pure"


action_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 7),
                       st.fractions(min_value=-5, max_value=5,
                                    max_denominator=9)), max_size=4),
    min_size=8, max_size=8)


@settings(max_examples=60)
@given(vector_lists, action_lists)
def test_images_are_multiples_of_the_exact_image(vecs, acts):
    """For every stored row r, standing for the exact row e, the field
    kernel's image is exactly sum_k e[k] * act_k and the integer kernel's
    image is an integer multiple of it by one non-zero factor, so both
    insert as the same row.  Keys are k = b + 2 i (two blocks b, digits i
    of radix 4, stride 2); act_k sends k to b + 2 (j mod 4) for each of its
    pairs (j, f), encoded as the offset (j mod 4) - i in block b's table."""
    for impl in IMPLS:
        basis = impl()
        tables = [{}, {}]
        for k, pairs in enumerate(acts):
            b, i = k % 2, k // 2
            tables[b][i] = impl.encode_action([(j % 4 - i, f)
                                               for j, f in pairs])
        for v in vecs:
            r = basis.insert(v)
            if r is None:
                continue
            want = {}
            for k, c in _exact(r).items():
                for j, f in acts[k]:
                    t = k % 2 + 2 * (j % 4)
                    want[t] = want.get(t, Q(0)) + c * f
            want = {j: c for j, c in want.items() if c}
            got = basis.image(r, tables, 2, 2, 4)
            assert got.keys() == want.keys()
            if impl is FieldSpanBasis:
                assert got == want
            elif got:
                assert all(type(n) is int for n in got.values())
                ratio = {Q(n) / want[j] for j, n in got.items()}
                assert len(ratio) == 1 and 0 not in ratio
