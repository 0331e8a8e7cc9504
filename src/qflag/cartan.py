"""Finite root-system data in Bourbaki numbering, exact throughout.

Conventions, fixed once and recorded in the golden root files:

* weights live in fundamental-weight coordinates (integer tuples),
  roots in simple-root coordinates (integer tuples);
* the symmetrized form is (alpha_i, alpha_j) = d_i * a[i][j] with d_i the
  minimal positive symmetrizers, so short roots have square length 2 in the
  simply-laced case and (alpha_i, omega_j) = d_i * delta_ij;
* supported types: A1-A4, B2-B4, C2-C4, D4, F4, G2; anything of rank > 4 is
  rejected up front (dimensions explode well before the arithmetic does).

Simple-root indices in the public API are 1-based, matching the usual plates;
coordinate tuples are plain 0-indexed Python tuples.
"""

from __future__ import annotations

from fractions import Fraction

from qflag import Value

Q = Fraction

_SUPPORTED = {
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
}


class RootSystem(Value):
    """Family letter, rank, symmetrizers d, the Cartan matrix
    a[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) (rows indexed by
    the coroot), the positive roots in simple-root coordinates, and the
    inverse Cartan matrix (Fractions)."""

    __slots__ = ("letter", "rank", "d", "cartan", "pos_roots", "inv_cartan")

    @property
    def name(self):
        return f"{self.letter}{self.rank}"


def _edges(letter, rank):
    if letter == "D":
        return [(0, 1), (2, 1), (3, 1)]  # star, center = node 2 (1-based)
    return [(i, i + 1) for i in range(rank - 1)]


def _symmetrizers(letter, rank):
    if letter in ("A", "D"):
        return [1] * rank
    if letter == "B":
        return [2] * (rank - 1) + [1]     # last simple root short
    if letter == "C":
        return [1] * (rank - 1) + [2]     # last simple root long
    if letter == "F":
        return [2, 2, 1, 1]
    if letter == "G":
        return [1, 3]
    raise AssertionError(letter)


def root_system(letter: str, rank: int) -> RootSystem:
    if not isinstance(letter, str):
        raise ValueError(f"family must be a string, got {letter!r}")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    letter = letter.upper()
    if rank > 4:
        raise ValueError(
            f"rank {rank} exceeds the supported cap of 4 "
            "(module dimensions grow too fast for exact verification)")
    if (letter, rank) not in _SUPPORTED:
        raise ValueError(f"unsupported root system {letter}{rank}")
    d = _symmetrizers(letter, rank)
    # symmetric form on simple roots, then Cartan matrix rows a[i][j] = B[i][j]/d[i]
    B = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        B[i][i] = 2 * d[i]
    for i, j in _edges(letter, rank):
        B[i][j] = B[j][i] = -max(d[i], d[j])
    cartan = []
    for i in range(rank):
        row = []
        for j in range(rank):
            a, r = divmod(B[i][j], d[i])
            assert r == 0, "symmetrizers do not divide the form"
            row.append(a)
        cartan.append(tuple(row))
    cartan = tuple(cartan)

    pos = _positive_roots(rank, cartan)
    inv = _invert(cartan)
    return RootSystem(letter, rank, tuple(d), cartan, pos, inv)


def _reflect(beta, i, cartan):
    """s_i(beta) in simple-root coordinates."""
    c = sum(cartan[i][j] * beta[j] for j in range(len(beta)))
    out = list(beta)
    out[i] -= c
    return tuple(out)


def _positive_roots(rank, cartan):
    simples = [tuple(1 if j == i else 0 for j in range(rank))
               for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                g = _reflect(beta, i, cartan)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    pos = [r for r in seen if all(c >= 0 for c in r)]
    pos.sort(key=lambda r: (sum(r), r))
    neg = {tuple(-c for c in r) for r in pos}
    assert seen == set(pos) | neg, "reflection closure is not symmetric"
    return tuple(pos)


def _invert(cartan):
    n = len(cartan)
    m = [[Q(cartan[i][j]) for j in range(n)] + [Q(i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


# ---------------------------------------------------------------------------
# forms and conversions


def simple_root(rs: RootSystem, i: int):
    """alpha_i in simple-root coordinates (i is 1-based)."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i!r} out of range")
    return tuple(1 if j == i - 1 else 0 for j in range(rs.rank))


def form_rr(rs: RootSystem, a, b):
    """(x, y) for x, y in simple-root coordinates."""
    tot = 0
    for i in range(rs.rank):
        if not a[i]:
            continue
        for j in range(rs.rank):
            if b[j]:
                tot += a[i] * rs.d[i] * rs.cartan[i][j] * b[j]
    return tot


def form_rw(rs: RootSystem, alpha, lam):
    """(alpha, lam) with alpha in simple-root and lam in fundamental
    coordinates; integral whenever both are integral."""
    return sum(alpha[k] * rs.d[k] * lam[k] for k in range(rs.rank))


def fund_to_root(rs: RootSystem, lam):
    """Rewrite a weight in simple-root coordinates (Fractions in general)."""
    return tuple(
        sum(rs.inv_cartan[k][j] * lam[j] for j in range(rs.rank))
        for k in range(rs.rank))


def root_to_fund(rs: RootSystem, alpha):
    """Rewrite a root-lattice vector in fundamental coordinates (integers)."""
    return tuple(
        sum(rs.cartan[i][j] * alpha[j] for j in range(rs.rank))
        for i in range(rs.rank))


def coroot_pairing(rs: RootSystem, alpha, lam):
    """<lam, alpha^vee> = 2 (alpha, lam)/(alpha, alpha); alpha in simple-root
    coordinates, lam in fundamental coordinates."""
    val = Q(2 * form_rw(rs, alpha, lam), form_rr(rs, alpha, alpha))
    return int(val) if val.denominator == 1 else val


def rho_fund(rs: RootSystem):
    return (1,) * rs.rank


def two_rho_root(rs: RootSystem):
    """2*rho = sum of the positive roots, in integer simple-root coords."""
    return tuple(sum(r[k] for r in rs.pos_roots) for k in range(rs.rank))


def dominant_weight(rs: RootSystem, lam):
    """lam as a tuple of rank ints (no bools), all of them non-negative;
    anything else raises ValueError."""
    lam = tuple(lam)
    if len(lam) != rs.rank or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in lam):
        raise ValueError(f"highest weight {lam} needs {rs.rank} integer "
                         "entries")
    if any(x < 0 for x in lam):
        raise ValueError(f"{lam} is not dominant")
    return lam


def weyl_dim(rs: RootSystem, lam) -> int:
    """dim V(lam) by the product formula over positive roots; lam is
    checked by dominant_weight."""
    lam = dominant_weight(rs, lam)
    num, den = 1, 1
    rho = rho_fund(rs)
    lam_rho = tuple(l + 1 for l in lam)
    for alpha in rs.pos_roots:
        num *= form_rw(rs, alpha, lam_rho)
        den *= form_rw(rs, alpha, rho)
    q, r = divmod(num, den)
    assert r == 0, "Weyl dimension did not come out integral"
    return q


# ---------------------------------------------------------------------------
# parabolic data


class Parabolic(Value):
    """S, the 1-based indices kept in the Levi; the positive roots of the
    Levi and of the nilradical; rho_S in fundamental coordinates."""

    __slots__ = ("S", "levi_pos", "nil_pos", "rho_S")


def parabolic(rs: RootSystem, S) -> Parabolic:
    """Parabolic data of the marked simple roots S (distinct int indices;
    any iterable, read once)."""
    S = tuple(S)
    for i in S:
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValueError(f"subset indices must be integers, got {i!r}")
    S = tuple(sorted(S))
    if len(set(S)) != len(S):
        raise ValueError(f"subset repeats: {', '.join(map(str, S))}")
    if any(i < 1 or i > rs.rank for i in S):
        raise ValueError(f"subset {S} out of range for {rs.name}")
    sset = set(S)
    levi, nil = [], []
    for r in rs.pos_roots:
        support = {k + 1 for k in range(rs.rank) if r[k]}
        (levi if support <= sset else nil).append(r)
    rho_S = tuple(0 if i + 1 in sset else 1 for i in range(rs.rank))
    return Parabolic(S, tuple(levi), tuple(nil), rho_S)


# ---------------------------------------------------------------------------
# golden-file interface: the plain-text form that pins the conventions


def roots_file_text(rs: RootSystem) -> str:
    lines = [f"# {rs.name} positive roots, simple-root coordinates",
             f"# d = {' '.join(str(x) for x in rs.d)}"]
    for r in rs.pos_roots:
        lines.append(" ".join(str(c) for c in r))
    return "\n".join(lines) + "\n"


def parse_roots_file(text: str):
    """Inverse of roots_file_text: returns (d, roots)."""
    d = None
    roots = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# d ="):
                d = tuple(int(x) for x in line.split("=")[1].split())
            continue
        roots.append(tuple(int(x) for x in line.split()))
    return d, tuple(roots)
