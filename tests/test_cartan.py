"""Root-system data against hand-typed textbook values.

The golden files under tests/golden were written by hand from the standard
tables (they are the oracle); the module must reproduce them byte for byte.
"""

import itertools
from fractions import Fraction as Q
from pathlib import Path

import pytest

from qflag import cartan

GOLDEN = Path(__file__).parent / "golden"


def _all_systems():
    out = []
    for letter, ranks in [("A", (1, 2, 3, 4)), ("B", (2, 3, 4)),
                          ("C", (2, 3, 4)), ("D", (4,)), ("F", (4,)),
                          ("G", (2,))]:
        for r in ranks:
            out.append(cartan.root_system(letter, r))
    return out


# -- Cartan matrices and symmetrizers ---------------------------------------

def test_known_cartan_matrices():
    assert cartan.root_system("A", 2).cartan == ((2, -1), (-1, 2))
    assert cartan.root_system("B", 2).cartan == ((2, -1), (-2, 2))
    assert cartan.root_system("C", 2).cartan == ((2, -2), (-1, 2))
    assert cartan.root_system("G", 2).cartan == ((2, -3), (-1, 2))
    assert cartan.root_system("B", 3).cartan == (
        (2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan.root_system("C", 3).cartan == (
        (2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert cartan.root_system("F", 4).cartan == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    assert cartan.root_system("D", 4).cartan == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def test_symmetrizers():
    assert cartan.root_system("B", 2).d == (2, 1)
    assert cartan.root_system("C", 2).d == (1, 2)
    assert cartan.root_system("G", 2).d == (1, 3)
    assert cartan.root_system("F", 4).d == (2, 2, 1, 1)


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_symmetrized_form_is_symmetric_and_matches_cartan(rs):
    for i in range(1, rs.rank + 1):
        for j in range(1, rs.rank + 1):
            ai, aj = cartan.simple_root(rs, i), cartan.simple_root(rs, j)
            v = cartan.form_rr(rs, ai, aj)
            assert v == cartan.form_rr(rs, aj, ai)
            assert v == rs.d[i - 1] * rs.cartan[i - 1][j - 1]


# -- positive roots -----------------------------------------------------------

KNOWN_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
                "B4": 16, "C2": 4, "C3": 9, "C4": 16, "D4": 12, "F4": 24,
                "G2": 6}


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_positive_root_counts(rs):
    assert len(rs.pos_roots) == KNOWN_COUNTS[rs.name]


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_reflection_closure_is_idempotent(rs):
    full = set(rs.pos_roots) | {tuple(-c for c in r) for r in rs.pos_roots}
    for beta in full:
        for i in range(rs.rank):
            assert cartan._reflect(beta, i, rs.cartan) in full


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_golden_root_files(name):
    rs = cartan.root_system(name[0], int(name[1]))
    stored = (GOLDEN / f"roots_{name}.txt").read_text()
    assert cartan.roots_file_text(rs) == stored
    d, roots = cartan.parse_roots_file(stored)
    assert d == rs.d
    assert roots == rs.pos_roots


# -- weights, forms, conversions ---------------------------------------------

@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_fundamental_weight_duality(rs):
    for i in range(1, rs.rank + 1):
        for j in range(1, rs.rank + 1):
            omega = tuple(int(j == k) for k in range(1, rs.rank + 1))
            alpha = cartan.simple_root(rs, i)
            assert cartan.coroot_pairing(rs, alpha, omega) == int(i == j)
            # (alpha_i, omega_j) = d_i delta_ij
            assert cartan.form_rw(rs, alpha, omega) == (
                rs.d[i - 1] if i == j else 0)


@pytest.mark.parametrize("bad", [0, -1, 3, 2.0, True, "1"])
def test_simple_root_rejects_bad_index(bad):
    """Only the ints 1..rank name a simple root: anything else used to
    give the zero root, or index alpha from the end."""
    a2 = cartan.root_system("A", 2)
    assert [cartan.simple_root(a2, i) for i in (1, 2)] == [(1, 0), (0, 1)]
    with pytest.raises(ValueError, match="simple root index .* out of range"):
        cartan.simple_root(a2, bad)


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_coordinate_roundtrip(rs):
    for alpha in rs.pos_roots:
        lam = cartan.root_to_fund(rs, alpha)
        back = cartan.fund_to_root(rs, lam)
        assert tuple(Q(c) for c in alpha) == back


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_two_rho(rs):
    two_rho = cartan.two_rho_root(rs)
    rho_r = cartan.fund_to_root(rs, cartan.rho_fund(rs))
    assert tuple(2 * c for c in rho_r) == tuple(Q(c) for c in two_rho)
    # (2 rho, lam) is an integer for every integral weight
    for lam in itertools.product(range(-2, 3), repeat=rs.rank):
        v = cartan.form_rw(rs, two_rho, lam)
        assert isinstance(v, int)


def test_two_rho_known_values():
    assert cartan.two_rho_root(cartan.root_system("A", 1)) == (1,)
    assert cartan.two_rho_root(cartan.root_system("A", 2)) == (2, 2)
    assert cartan.two_rho_root(cartan.root_system("B", 2)) == (3, 4)
    assert cartan.two_rho_root(cartan.root_system("G", 2)) == (10, 6)


# -- Weyl dimensions ----------------------------------------------------------

def test_weyl_dim_known_values():
    a1 = cartan.root_system("A", 1)
    for n in range(6):
        assert cartan.weyl_dim(a1, (n,)) == n + 1
    a2 = cartan.root_system("A", 2)
    assert cartan.weyl_dim(a2, (1, 0)) == 3
    assert cartan.weyl_dim(a2, (0, 1)) == 3
    assert cartan.weyl_dim(a2, (1, 1)) == 8
    assert cartan.weyl_dim(a2, (3, 0)) == 10
    assert cartan.weyl_dim(a2, (2, 2)) == 27
    b2 = cartan.root_system("B", 2)
    assert cartan.weyl_dim(b2, (1, 0)) == 5
    assert cartan.weyl_dim(b2, (0, 1)) == 4
    assert cartan.weyl_dim(b2, (1, 1)) == 16
    g2 = cartan.root_system("G", 2)
    assert cartan.weyl_dim(g2, (1, 0)) == 7
    assert cartan.weyl_dim(g2, (0, 1)) == 14


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_weyl_dim_of_rho_is_two_to_the_positives(rs):
    assert cartan.weyl_dim(rs, cartan.rho_fund(rs)) == 2 ** len(rs.pos_roots)


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError, match="not dominant"):
        cartan.weyl_dim(cartan.root_system("A", 2), (-1, 0))


@pytest.mark.parametrize("lam", [(1, 0, 5), (1.5, 0), (1,), (True, 0)],
                         ids=["extra-entry", "float", "short", "bool"])
def test_weyl_dim_rejects_a_weight_of_the_wrong_shape(lam):
    """An extra entry used to be ignored (dimension 3), a float tripped a
    bare AssertionError and a short weight a bare IndexError."""
    with pytest.raises(ValueError, match="needs 2 integer entries"):
        cartan.weyl_dim(cartan.root_system("A", 2), lam)


def test_dominant_weight_reads_an_iterable_once():
    rs = cartan.root_system("A", 2)
    assert cartan.dominant_weight(rs, iter([1, 0])) == (1, 0)
    assert cartan.weyl_dim(rs, (x for x in [1, 1])) == 8


# -- parabolic data -----------------------------------------------------------

def test_parabolic_b2_levi_1():
    rs = cartan.root_system("B", 2)
    p = cartan.parabolic(rs, [1])
    assert p.levi_pos == ((1, 0),)
    assert p.nil_pos == ((0, 1), (1, 1), (1, 2))
    assert p.rho_S == (0, 1)
    assert [cartan.form_rw(rs, a, p.rho_S) for a in p.nil_pos] == [1, 1, 2]


def test_parabolic_a2():
    rs = cartan.root_system("A", 2)
    p = cartan.parabolic(rs, [2])
    assert p.nil_pos == ((1, 0), (1, 1))
    assert p.rho_S == (1, 0)
    assert [cartan.form_rw(rs, a, p.rho_S) for a in p.nil_pos] == [1, 1]
    full = cartan.parabolic(rs, [])
    assert full.nil_pos == rs.pos_roots
    assert full.rho_S == (1, 1)


@pytest.mark.parametrize("rs", _all_systems(), ids=lambda r: r.name)
def test_parabolic_partitions_and_coroot_normalization(rs):
    for size in range(rs.rank + 1):
        for S in itertools.combinations(range(1, rs.rank + 1), size):
            p = cartan.parabolic(rs, S)
            assert set(p.levi_pos) | set(p.nil_pos) == set(rs.pos_roots)
            assert not set(p.levi_pos) & set(p.nil_pos)
            for i in range(1, rs.rank + 1):
                want = 0 if i in S else 1
                assert cartan.coroot_pairing(
                    rs, cartan.simple_root(rs, i), p.rho_S) == want


@pytest.mark.parametrize("make", [lambda: (i for i in [2]),
                                  lambda: iter([2])],
                         ids=["generator", "iterator"])
def test_parabolic_reads_a_one_shot_subset_once(make):
    """A subset that can be read only once used to be used up by the
    validation loop, and the case silently became the full flag case."""
    a2 = cartan.root_system("A", 2)
    assert cartan.parabolic(a2, make()) == cartan.parabolic(a2, (2,))
    assert cartan.parabolic(a2, make()).S == (2,)
    with pytest.raises(ValueError, match="integers"):
        cartan.parabolic(a2, (x for x in ["2"]))


def test_root_system_and_parabolic_are_equal_hashable_values():
    """Two calls give equal values that hash alike and are refused
    assignment; a different system or subset is not equal."""
    a2, b2 = cartan.root_system("A", 2), cartan.root_system("a", 2)
    assert a2 == b2 and a2 is not b2 and hash(a2) == hash(b2)
    assert a2 != cartan.root_system("B", 2) and a2 != ("A", 2)
    p, p2 = cartan.parabolic(a2, [2]), cartan.parabolic(b2, (2,))
    assert p == p2 and hash(p) == hash(p2)
    assert p != cartan.parabolic(a2, [1])
    assert len({a2, b2, p, p2}) == 2
    assert repr(p) == ("Parabolic(S=(2,), levi_pos=((0, 1),), "
                       "nil_pos=((1, 0), (1, 1)), rho_S=(1, 0))")
    with pytest.raises(AttributeError):
        a2.rank = 3
    with pytest.raises(AttributeError):
        del p.S
    assert a2.rank == 2 and p.S == (2,)


# -- rejection ----------------------------------------------------------------

def test_unsupported_systems_are_rejected():
    with pytest.raises(ValueError, match="cap"):
        cartan.root_system("A", 5)
    for bad in [("D", 3), ("B", 1), ("G", 3), ("E", 4), ("X", 2)]:
        with pytest.raises(ValueError):
            cartan.root_system(*bad)
    with pytest.raises(ValueError):
        cartan.parabolic(cartan.root_system("A", 2), [3])
    for bad, message in [(("A", 2.0), "rank must be an integer, got 2.0"),
                         (("A", True), "rank must be an integer, got True"),
                         ((1, 1), "family must be a string, got 1")]:
        with pytest.raises(ValueError, match=message):
            cartan.root_system(*bad)
    a2 = cartan.root_system("A", 2)
    for bad, message in [((1.5,), "subset indices must be integers, got 1.5"),
                         ((True,), "subset indices must be integers, got True"),
                         ((2, 2), "subset repeats: 2, 2")]:
        with pytest.raises(ValueError, match=message):
            cartan.parabolic(a2, bad)
