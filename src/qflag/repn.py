"""Finite-dimensional highest-weight modules with exact orthogonal bases.

A module V(lam) is built from lowering-operator words applied to the highest
vector: the contravariant form is computed recursively on words,

    (F_i u', w) = q^(-(wt w, alpha_i)) * (u', E_i w),

which is adjointness for the compact star E_i^* = K_i F_i, with E_i on words
expanded by E_i F_j x = F_j E_i x + delta_ij [ (wt x, alpha_i^vee) ]_{q_i} x.
Bases are orthogonal with recorded norms N_k (N_0 = 1 at the highest
vector), never orthonormal, so every matrix identity downstream carries
explicit N factors instead of square roots and all arithmetic stays rational.

One routine projects a vector v onto the basis vectors b_l of one weight:
coordinates c_l = (v, b_l)/N_l and residual (v, v) - sum c_l^2 N_l.  Words
are taken level by level, by weight and then lexicographically, and w is
kept iff its residual is non-zero: by bilinearity that is the norm of the
new basis vector w - sum c_l b_l.  F_i columns are projections of F_i b_k,
whose residual must vanish.  E_i columns follow from adjointness,
(E_i)_lk = q^((wt_k, alpha_i)) (F_i)_kl N_k / N_l.  Reading it on basis
vectors needs the form to be symmetric, and E_i b_k to lie in the span of
the basis modulo the radical; the latter holds as the basis has
Weyl-dimension many orthogonal vectors of non-zero norm, so spans V(lam).
An E-side completeness check is thus implied; the tests' commutator and
Serre checks test E on its own.
"""

from __future__ import annotations

from qflag import Memo, cartan


class CapExceeded(Exception):
    """A requested object exceeds the configured dimension cap."""


class HWModule:
    def __init__(self, rs, lam, field, cap=None):
        lam = tuple(lam)
        if len(lam) != rs.rank or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in lam):
            raise ValueError(f"highest weight {lam} needs {rs.rank} integer "
                             "entries")
        if any(x < 0 for x in lam):
            raise ValueError(f"{lam} is not dominant")
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
        rank = rs.rank
        one, zero = field.one, field.zero
        alpha_fund = [None] + [
            cartan.root_to_fund(rs, cartan.simple_root(rs, i))
            for i in range(1, rank + 1)]

        wt = Memo(lambda word: tuple(
            r - a for r, a in zip(wt[word[1:]], alpha_fund[word[0]])))
        wt[()] = self.lam

        def e_image(key):
            """E_i applied to the word, for key (i, word), as {word: coeff}
            in the Verma span."""
            i, word = key
            if not word:
                return {}
            j, rest = word[0], word[1:]
            out = {}
            for w2, c in actE[i, rest].items():
                k2 = (j,) + w2
                out[k2] = out.get(k2, zero) + c
            if i == j:
                # <wt(rest), alpha_i^vee> is the i-th fundamental coordinate
                m = wt[rest][i - 1]
                c2 = field.q_int(m, rs.d[i - 1])
                out[rest] = out.get(rest, zero) + c2
            return {w: c for w, c in out.items() if c}

        actE = Memo(e_image)

        def pair_words(key):
            """The form (u, w), for key (u, w) non-empty words of one
            length and weight."""
            u, w = key
            i, u2 = u[0], u[1:]
            tot = zero
            for w2, c in actE[i, w].items():
                p = pair(u2, w2)
                if p:
                    tot = tot + c * p
            exp = rs.d[i - 1] * wt[w][i - 1]  # (wt w, alpha_i)
            return field.q_power(-exp) * tot

        pairs = Memo(pair_words)

        def pair(u, w):
            if not u:
                return one if not w else zero
            if len(u) != len(w) or wt[u] != wt[w]:
                return zero
            return pairs[u, w]

        def pair_combo(c1, c2):
            tot = zero
            for u, a in c1.items():
                for w, b in c2.items():
                    p = pair(u, w)
                    if p:
                        tot = tot + a * b * p
            return tot

        combos, weights, norms, basis_of = [], [], [], {}

        def project(vec, mu):
            """((l, c_l) for non-zero c_l = (vec, b_l)/N_l, b_l of weight mu,
            ascending l), and the residual (vec, vec) - sum c_l^2 N_l."""
            coords = []
            residual = pair_combo(vec, vec)
            for l in basis_of.get(mu, ()):
                c = pair_combo(vec, combos[l]) / norms[l]
                if c:
                    coords.append((l, c))
                    residual = residual - c * c * norms[l]
            return tuple(coords), residual

        # BFS over levels, Gram-Schmidt per weight space: a candidate word
        # is kept iff its residual, the norm of w - sum c_l b_l, is non-zero
        cand = [()]
        while cand:
            kept = []
            for w in cand:
                mu = wt[w]
                coords, r = project({w: one}, mu)
                if not r:
                    continue
                combo = {w: one}
                for l, c in coords:
                    for w2, b in combos[l].items():
                        combo[w2] = combo.get(w2, zero) - c * b
                basis_of.setdefault(mu, []).append(len(combos))
                combos.append({x: b for x, b in combo.items() if b})
                weights.append(mu)
                norms.append(r)
                kept.append(w)
            cand = sorted({(i,) + w for w in kept for i in range(1, rank + 1)},
                          key=lambda w: (wt[w], w))

        if len(combos) != expected_dim:
            raise AssertionError(
                f"built {len(combos)} basis vectors, Weyl dimension says "
                f"{expected_dim}")
        self.dim = expected_dim
        self.weights = weights
        self.norms = norms

        # action matrices as sparse columns: F_i by projection, E_i from F_i
        # by adjointness, (E_i)_lk = q^((wt_k, alpha_i)) (F_i)_kl N_k / N_l
        cols_E = {i: [[] for _ in range(self.dim)] for i in range(1, rank + 1)}
        cols_F = {i: [] for i in range(1, rank + 1)}
        for i in range(1, rank + 1):
            for l in range(self.dim):
                img = {(i,) + w: c for w, c in combos[l].items()}
                mu = tuple(a - b for a, b in zip(weights[l], alpha_fund[i]))
                col, r = project(img, mu)
                if r:
                    raise AssertionError("image left the module span")
                cols_F[i].append(col)
                for k, c in col:  # c = (F_i)_kl
                    cols_E[i][k].append(
                        (l, field.q_power(self.k_exp(i, k)) * c * norms[k]
                         / norms[l]))
        self._cols_E = {i: [tuple(col) for col in cols]
                        for i, cols in cols_E.items()}
        self._cols_F = cols_F
        # each recursive Memo holds itself through a cell: break the cycles
        del wt, actE, pair, pairs

    # -- access ---------------------------------------------------------------

    def e_col(self, i, k):
        return self._cols_E[i][k]

    def f_col(self, i, k):
        return self._cols_F[i][k]

    def k_exp(self, i, k) -> int:
        """(wt_k, alpha_i), the q-exponent of K_i on basis vector k."""
        return self.rs.d[i - 1] * self.weights[k][i - 1]

    def matrix(self, gen, i):
        """Dense matrix of E_i or F_i (rows/cols 0-based)."""
        cols = self._cols_E[i] if gen == "E" else self._cols_F[i]
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
