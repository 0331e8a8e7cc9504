"""Finite-dimensional highest-weight modules with exact orthogonal bases.

A module V(lam) is built from lowering-operator words applied to the highest
vector: the contravariant form is computed recursively on words,

    (F_i u', w) = q^(-(wt w, alpha_i)) * (u', E_i w),

which is adjointness for the compact star E_i^* = K_i F_i.  Words are
accepted level by level (lexicographically within a weight space) when they
enlarge the span, then orthogonalized *without normalizing*: bases here are
orthogonal with recorded norms N_k (N_0 = 1 at the highest vector), never
orthonormal, so every matrix identity downstream carries explicit N factors
instead of square roots and all arithmetic stays rational.

The E_i action on a word is expanded with

    E_i F_j x = F_j E_i x + delta_ij [ (wt x, alpha_i^vee) ]_{q_i} x,

and matrix columns are recovered as form coordinates c_l = (img, b_l)/N_l,
with the completeness check (img, img) = sum c_l^2 N_l guarding against a
dropped basis vector.
"""

from __future__ import annotations

from qflag import cartan


class CapExceeded(Exception):
    """A requested object exceeds the configured dimension cap."""


class HWModule:
    def __init__(self, rs, lam, field, cap=None):
        lam = tuple(int(x) for x in lam)
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

        wt_memo = {(): self.lam}

        def wt(word):
            out = wt_memo.get(word)
            if out is None:
                rest = wt(word[1:])
                af = alpha_fund[word[0]]
                out = tuple(r - a for r, a in zip(rest, af))
                wt_memo[word] = out
            return out

        actE_memo = {}

        def actE(i, word):
            """E_i applied to the word, as {word: coeff} in the Verma span."""
            if not word:
                return {}
            key = (i, word)
            out = actE_memo.get(key)
            if out is not None:
                return out
            j, rest = word[0], word[1:]
            out = {}
            for w2, c in actE(i, rest).items():
                k2 = (j,) + w2
                out[k2] = out.get(k2, zero) + c
            if i == j:
                # <wt(rest), alpha_i^vee> is the i-th fundamental coordinate
                m = wt(rest)[i - 1]
                c2 = field.q_int(m, rs.d[i - 1])
                out[rest] = out.get(rest, zero) + c2
            out = {w: c for w, c in out.items() if c}
            actE_memo[key] = out
            return out

        pair_memo = {}

        def pair(u, w):
            if not u:
                return one if not w else zero
            if len(u) != len(w) or wt(u) != wt(w):
                return zero
            key = (u, w)
            out = pair_memo.get(key)
            if out is not None:
                return out
            i, u2 = u[0], u[1:]
            tot = zero
            for w2, c in actE(i, w).items():
                p = pair(u2, w2)
                if p:
                    tot = tot + c * p
            exp = rs.d[i - 1] * wt(w)[i - 1]  # (wt w, alpha_i)
            out = field.q_power(-exp) * tot
            pair_memo[key] = out
            return out

        def pair_combo(c1, c2):
            tot = zero
            for u, a in c1.items():
                for w, b in c2.items():
                    p = pair(u, w)
                    if p:
                        tot = tot + a * b * p
            return tot

        # BFS over levels, Gram-Schmidt per weight space
        words = [()]
        combos = [{(): one}]
        weights = [self.lam]
        norms = [one]
        by_weight = {self.lam: [0]}
        level = [0]
        while level:
            cand = sorted({(i,) + words[k]
                           for k in level for i in range(1, rank + 1)})
            groups = {}
            for w in cand:
                groups.setdefault(wt(w), []).append(w)
            nxt = []
            for mu in sorted(groups):
                for w in groups[mu]:
                    combo = {w: one}
                    for l in by_weight.get(mu, ()):
                        c = pair_combo({w: one}, combos[l]) / norms[l]
                        if c:
                            for w2, b in combos[l].items():
                                nv = combo.get(w2, zero) - c * b
                                if nv:
                                    combo[w2] = nv
                                else:
                                    combo.pop(w2, None)
                    r = pair_combo({w: one}, combo)
                    if r:
                        idx = len(words)
                        words.append(w)
                        combos.append(combo)
                        weights.append(mu)
                        norms.append(r)
                        by_weight.setdefault(mu, []).append(idx)
                        nxt.append(idx)
            level = nxt

        if len(words) != expected_dim:
            raise AssertionError(
                f"built {len(words)} basis vectors, Weyl dimension says "
                f"{expected_dim}")
        self.dim = expected_dim
        self.words = words
        self.weights = weights
        self.norms = norms
        self._by_weight = by_weight

        # action matrices as sparse columns
        cols_E = {i: [] for i in range(1, rank + 1)}
        cols_F = {i: [] for i in range(1, rank + 1)}
        for k in range(self.dim):
            for i in range(1, rank + 1):
                img_f = {(i,) + w: c for w, c in combos[k].items()}
                mu_f = tuple(a - b for a, b in
                             zip(weights[k], alpha_fund[i]))
                cols_F[i].append(self._coords(img_f, mu_f, pair_combo,
                                              combos, norms, by_weight))
                img_e = {}
                for w, c in combos[k].items():
                    for w2, c2 in actE(i, w).items():
                        nv = img_e.get(w2, zero) + c * c2
                        if nv:
                            img_e[w2] = nv
                        else:
                            img_e.pop(w2, None)
                mu_e = tuple(a + b for a, b in
                             zip(weights[k], alpha_fund[i]))
                cols_E[i].append(self._coords(img_e, mu_e, pair_combo,
                                              combos, norms, by_weight))
        self._cols_E = cols_E
        self._cols_F = cols_F
        # each recursive closure holds itself in a cell: break the cycles
        del wt, actE, pair

    def _coords(self, img, mu, pair_combo, combos, norms, by_weight):
        if not img:
            return ()
        zero = self.field.zero
        out = []
        residual = pair_combo(img, img)
        for l in by_weight.get(mu, ()):
            c = pair_combo(img, combos[l]) / norms[l]
            if c:
                out.append((l, c))
                residual = residual - c * c * norms[l]
        if residual:
            raise AssertionError("image left the module span")
        return tuple(out)

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
