"""Finite-dimensional highest-weight modules with exact orthogonal bases.

V(lam) is built level by level in its own basis b_0, b_1, ... with b_0 the
highest vector.  Bases are orthogonal with recorded norms N_k (N_0 = 1),
never orthonormal, so every matrix identity downstream carries explicit N
factors instead of square roots and all arithmetic stays rational.  The
F_i and E_i columns of b_k hold the coordinates of F_i b_k and E_i b_k.

The candidates of level n are F_i b_k over the b_k of level n-1, sorted by
weight and then by the label (i,) + word_k, where word_k is the label of
the candidate b_k was kept from (word_0 = ()).  Adjointness for the compact
star E_i^* = K_i F_i, (F_i u, w) = q^(-(wt w, alpha_i)) (u, E_i w), and
E_i F_j = F_j E_i + delta_ij [K_i; 0] give the form on two candidates of
one weight,

    (F_i b_k, F_j b_m) = q^(-(wt_m - alpha_j, alpha_i)) N_k
        * (sum_l (E_i)_lm (F_j)_kl
           + delta_ij delta_km [<wt_m, alpha_i^vee>]_{q_i}),

which reads only E columns of level n-1 and F columns of level n-2.
Gram-Schmidt runs per weight: a candidate x gets c_l = (x, b_l)/N_l on the
earlier b_l of its weight and residual (x, x) - sum c_l^2 N_l, the norm of
r = x - sum c_l b_l, and is kept as a new basis vector r iff that is
non-zero.  (x, b_l) is (x, y) for the candidate y that b_l was kept from,
minus c (x, b_l2) for each earlier b_l2 on which y has coordinate c.  The
c_l, with 1 on r when it is kept, are the F_i column of b_k: a dropped r is
orthogonal to every earlier b_l and has norm zero, so it is zero, since
the form on V(lam) is positive definite for 0 < q <= 1 (for symbolic q at
all but finitely many such q).  E_i columns follow from adjointness,
(E_i)_lk = q^((wt_k, alpha_i)) (F_i)_kl N_k / N_l, filled once a level's F
columns are complete; the tests' commutator and Serre checks test E on its
own.  The build fails unless it ends with Weyl-dimension many vectors.

The basis is the one Gram-Schmidt gives on the Verma words F_i1 ... F_in v,
taken level by level, by weight and then lexicographically.  The word
(i,) + word_k applied to v differs from F_i b_k by F_i b_l for earlier b_l
of b_k's weight, whose candidates come earlier in the same order; so the
span of the candidates up to each one, and with it every residual, norm
and coordinate, is the same exact value either way.
"""

from __future__ import annotations

from qflag import cartan


class CapExceeded(Exception):
    """A requested object exceeds the configured dimension cap."""


class HWModule:
    def __init__(self, rs, lam, field, cap=None):
        lam = cartan.dominant_weight(rs, lam)
        self.rs = rs
        self.lam = lam
        self.field = field
        expected = cartan.weyl_dim(rs, lam)
        if cap is not None and expected > cap:
            raise CapExceeded(
                f"dim V({lam}) = {expected} exceeds the cap {cap}; "
                "raise --cap")
        self._build(expected)

    # -- construction --------------------------------------------------------

    def _build(self, expected_dim):
        rs, field = self.rs, self.field
        gens = range(1, rs.rank + 1)
        zero, one = field.zero, field.one
        alpha_fund = [None] + [
            cartan.root_to_fund(rs, cartan.simple_root(rs, i)) for i in gens]
        weights, norms, words = [self.lam], [one], [()]
        basis_of, source = {self.lam: [0]}, [None]
        # cols_F[i][k] = {l: (F_i)_lk}, cols_E[i][k] = [(l, (E_i)_lk)], and
        # source[l] = (x, F column of x) for the candidate x b_l was kept from
        cols_F = {i: {} for i in gens}
        cols_E = {i: [[]] for i in gens}

        def form(x, y):
            """(F_i b_k, F_j b_m) for candidates x = (i, k), y = (j, m) of
            one weight, by adjointness and the commutator E_i F_j."""
            (i, k), (j, m) = x, y
            tot = zero
            for l, c in cols_E[i][m]:
                f = cols_F[j][l].get(k)
                if f:
                    tot = tot + c * f
            if x == y:
                tot = tot + field.q_int(weights[m][i - 1], rs.d[i - 1])
            exp = rs.d[i - 1] * (weights[m][i - 1] - alpha_fund[j][i - 1])
            return field.q_power(-exp) * norms[k] * tot

        # level by level, Gram-Schmidt per weight: candidate x = F_i b_k is
        # kept iff its residual, the norm of x - sum c_l b_l, is non-zero
        level = [0]
        while level:
            cands = sorted(
                (tuple(a - b for a, b in zip(weights[k], alpha_fund[i])),
                 (i,) + words[k], i, k) for k in level for i in gens)
            kept = []
            for mu, word, i, k in cands:
                x = (i, k)
                coords, dots, residual = {}, {}, form(x, x)
                for l in basis_of.get(mu, ()):
                    # (x, b_l) from b_l = y - sum c b_l2 over earlier l2
                    y, y_coords = source[l]
                    d = form(x, y)
                    for l2, c in y_coords.items():
                        if l2 != l:
                            d = d - c * dots[l2]
                    dots[l] = d
                    c = d / norms[l]
                    if c:
                        coords[l] = c
                        residual = residual - c * c * norms[l]
                if residual:
                    coords[len(weights)] = one
                    basis_of.setdefault(mu, []).append(len(weights))
                    kept.append(len(weights))
                    weights.append(mu)
                    norms.append(residual)
                    words.append(word)
                    source.append((x, coords))
                    for cols in cols_E.values():
                        cols.append([])
                cols_F[i][k] = coords
            # E_i from F_i by adjointness,
            # (E_i)_lk = q^((wt_k, alpha_i)) (F_i)_kl N_k / N_l
            for i in gens:
                for l in level:
                    for k, c in cols_F[i][l].items():
                        cols_E[i][k].append(
                            (l, field.q_power(rs.d[i - 1] * weights[k][i - 1])
                             * c * norms[k] / norms[l]))
            level = kept

        if len(weights) != expected_dim:
            raise AssertionError(
                f"built {len(weights)} basis vectors, Weyl dimension says "
                f"{expected_dim}")
        self.dim = expected_dim
        self.weights = weights
        self.norms = norms
        self._cols_E = {i: [tuple(col) for col in cols]
                        for i, cols in cols_E.items()}
        self._cols_F = {i: [tuple(cols[k].items()) for k in range(self.dim)]
                        for i, cols in cols_F.items()}

    # -- access ---------------------------------------------------------------

    def _check(self, i, k):
        """Raise ValueError unless i is a simple-root index and k a basis
        index (ints, not bools)."""
        cartan.simple_root(self.rs, i)
        if not isinstance(k, int) or isinstance(k, bool) or \
                not 0 <= k < self.dim:
            raise ValueError(f"basis index {k!r} out of range for "
                             f"dimension {self.dim}")

    def e_col(self, i, k):
        """((l, (E_i)_lk), ...): the coordinates of E_i b_k."""
        self._check(i, k)
        return self._cols_E[i][k]

    def f_col(self, i, k):
        """((l, (F_i)_lk), ...): the coordinates of F_i b_k."""
        self._check(i, k)
        return self._cols_F[i][k]

    def k_exp(self, i, k) -> int:
        """(wt_k, alpha_i), the q-exponent of K_i on basis vector k."""
        self._check(i, k)
        return self.rs.d[i - 1] * self.weights[k][i - 1]

    def matrix(self, gen, i):
        """Dense matrix of E_i or F_i (rows/cols 0-based)."""
        if gen not in ("E", "F"):
            raise ValueError(f"generator {gen!r} is neither 'E' nor 'F'")
        cartan.simple_root(self.rs, i)  # raises ValueError for a bad index
        cols = (self._cols_E if gen == "E" else self._cols_F)[i]
        zero = self.field.zero
        m = [[zero] * self.dim for _ in range(self.dim)]
        for k, col in enumerate(cols):
            for l, c in col:
                m[l][k] = c
        return m


def hw_module(rs, lam, field, cap=None) -> HWModule:
    return HWModule(rs, lam, field, cap=cap)


# ---------------------------------------------------------------------------
# dump format (golden regression interface): text, one datum per line


def module_dump(m: HWModule) -> str:
    lines = [f"system {m.rs.name}",
             f"lam {' '.join(str(x) for x in m.lam)}",
             f"field {m.field.name}",
             f"dim {m.dim}"]
    for k in range(m.dim):
        lines.append(f"weight {k} : {' '.join(str(x) for x in m.weights[k])}")
    for k in range(m.dim):
        lines.append(f"norm {k} : {m.norms[k]}")
    for gen in ("E", "F"):
        for i in range(1, m.rs.rank + 1):
            cols = m._cols_E[i] if gen == "E" else m._cols_F[i]
            for k in range(m.dim):
                for l, c in cols[k]:
                    lines.append(f"{gen} {i} [{l},{k}] = {c}")
    return "\n".join(lines) + "\n"
