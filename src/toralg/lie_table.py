"""Finite-dimensional simple Lie algebra data: structure constants, the
invariant form, and enough weight-lattice data to evaluate Casimir
eigenvalues.

Tables are plain JSON documents with fields

    basis         list of generator names
    brackets      list of [i, j, k, coeff] entries: [g_i, g_j] contains
                  coeff * g_k (coeff a rational string); pairs not listed
                  in either order bracket to zero, and a listed (i, j)
                  implies the antisymmetric (j, i) unless that is listed
                  explicitly too
    form          matrix of (g_i | g_j), normalized so the highest root
                  theta has (theta | theta) = 2
    dual_coxeter  rational string
    weights       {"fundamental_gram": [[...]], "rho": [...],
                   "highest_root": [...]} in fundamental-weight
                  coordinates; empty object for the rank-0 table

The rank-0 table (empty basis) is legal everywhere and stands for the
trivial algebra.
"""

from __future__ import annotations

import json
from importlib import resources

from .linear import LinComb
from .qlinalg import invert, rank
from .scalar import Q, ZERO, qstr, parse_q


class SimpleLieTable:
    def __init__(self, basis, brackets, form, dual_coxeter, weights=None, name=""):
        self.name = name
        self.basis = list(basis)
        self.dim = len(self.basis)
        # explicit entries exactly as given, for validation
        self.explicit = {}
        for i, j, k, c in brackets:
            self.explicit.setdefault((i, j), {})
            cur = self.explicit[(i, j)].get(k, ZERO) + parse_q(c)
            self.explicit[(i, j)][k] = cur
        self.form = [[parse_q(x) for x in row] for row in form]
        self.dual_coxeter = parse_q(dual_coxeter)
        self.weights = weights or {}
        self._dual = None
        self._ad = None

    @classmethod
    def from_json(cls, doc, name=""):
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        return cls(doc["basis"], doc["brackets"], doc["form"],
                   doc["dual_coxeter"], doc.get("weights"), name=name)

    def to_json(self):
        ents = []
        for (i, j), comps in sorted(self.explicit.items()):
            for k, c in sorted(comps.items()):
                ents.append([i, j, k, qstr(c)])
        return {
            "basis": self.basis,
            "brackets": ents,
            "form": [[qstr(x) for x in row] for row in self.form],
            "dual_coxeter": qstr(self.dual_coxeter),
            "weights": self.weights,
        }

    def bracket(self, i, j):
        """[g_i, g_j] as dict k -> coeff, resolving implied antisymmetry."""
        ex = self.explicit.get((i, j))
        if ex is not None:
            return ex
        rev = self.explicit.get((j, i))
        if rev is not None:
            return {k: -c for k, c in rev.items()}
        return {}

    def pairing(self, i, j):
        return self.form[i][j]

    def dual_basis(self):
        """Columns of form^-1: g^i = sum_k dual[k][i] g_k, (g_i|g^j)=delta."""
        if self._dual is None:
            self._dual = invert(self.form)
        return self._dual

    def ad(self, i):
        """Adjoint matrix of g_i acting on column coordinate vectors."""
        if self._ad is None:
            self._ad = []
            for a in range(self.dim):
                m = [[ZERO] * self.dim for _ in range(self.dim)]
                for j in range(self.dim):
                    for k, c in self.bracket(a, j).items():
                        m[k][j] = m[k][j] + c
                self._ad.append(m)
        return self._ad[i]


def validate_lie_table(table: SimpleLieTable):
    """Check antisymmetry, Jacobi, and form axioms.

    Returns (ok, violations): each violation is a dict naming the axiom
    and the offending tuple of basis indices.
    """
    bad = []
    d = table.dim
    for i in range(d):
        for j in range(d):
            left = table.bracket(i, j)
            right = {k: -c for k, c in table.bracket(j, i).items()}
            if {k: c for k, c in left.items() if c != 0} != \
               {k: c for k, c in right.items() if c != 0}:
                bad.append({"axiom": "antisymmetry", "at": (i, j)})
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = table.bracket(b, c)
                    for m, cm in inner.items():
                        for n, cn in table.bracket(a, m).items():
                            acc[n] = acc.get(n, ZERO) + cm * cn
                if any(v != 0 for v in acc.values()):
                    bad.append({"axiom": "jacobi", "at": (i, j, k)})
    for i in range(d):
        for j in range(d):
            if table.form[i][j] != table.form[j][i]:
                bad.append({"axiom": "form-symmetric", "at": (i, j)})
    # invariance ([x,y]|z) = (x|[y,z]) on basis triples
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = sum((c * table.form[m][k] for m, c in table.bracket(i, j).items()), ZERO)
                rhs = sum((c * table.form[i][m] for m, c in table.bracket(j, k).items()), ZERO)
                if lhs != rhs:
                    bad.append({"axiom": "form-invariant", "at": (i, j, k)})
    if d and rank(table.form) != d:
        bad.append({"axiom": "form-nondegenerate", "at": ()})
    return (not bad), bad


def casimir_eigenvalue(table: SimpleLieTable, lam):
    """(lam | lam + 2 rho) for lam in fundamental-weight coordinates."""
    gram = table.weights.get("fundamental_gram")
    rho = table.weights.get("rho")
    if gram is None or rho is None:
        if not lam and table.dim == 0:
            return ZERO
        raise ValueError("table carries no weight data")
    gram = [[parse_q(x) for x in row] for row in gram]
    lam = [Q(x) for x in lam]
    if len(lam) != len(gram):
        raise ValueError("weight has wrong rank")
    mu = [l + 2 * Q(r) for l, r in zip(lam, rho)]
    return sum(lam[i] * gram[i][j] * mu[j] for i in range(len(lam)) for j in range(len(lam)))


def load_table(name: str) -> SimpleLieTable:
    """Load one of the shipped tables: 'sl2', 'sl3', 'rank0'."""
    text = resources.files("toralg").joinpath(f"data/{name}.json").read_text()
    return SimpleLieTable.from_json(text, name=name)


def load_table_file(path) -> SimpleLieTable:
    with open(path) as fh:
        return SimpleLieTable.from_json(fh.read(), name=str(path))


# ---------------------------------------------------------------------------
# programmatic sl_N with the trace form (used for the type-A current factor)

def _diag_to_cartan(diag):
    """Expand a traceless diagonal (d_1..d_N) over H_i = E_ii - E_{i+1,i+1}."""
    coeffs = []
    acc = ZERO
    for d in diag[:-1]:
        acc = acc + d
        coeffs.append(acc)
    return coeffs


def build_slN_table(N: int) -> SimpleLieTable:
    """sl_N structure constants over the basis E_ab (a != b), H_1..H_{N-1},
    with the trace form tr(xy). For N >= 2 this has (theta|theta) = 2.
    Basis elements are sparse integer matrices {(row, col): entry}."""
    if N < 2:
        return SimpleLieTable([], [], [], 0, {}, name=f"sl{N}")
    names = []
    mats = []
    for a in range(N):
        for b in range(N):
            if a != b:
                names.append(f"E{a + 1}{b + 1}")
                mats.append({(a, b): 1})
    for i in range(N - 1):
        names.append(f"H{i + 1}")
        mats.append({(i, i): 1, (i + 1, i + 1): -1})
    index = {name: k for k, name in enumerate(names)}

    def commutator(x, y):
        out = {}
        for (r, k), u in x.items():
            for (k2, c), v in y.items():
                if k == k2:
                    out[(r, c)] = out.get((r, c), 0) + u * v
                if c == r:
                    out[(k2, k)] = out.get((k2, k), 0) - u * v
        return out

    def expand(mat):
        out = {}
        for (a, b), v in sorted(mat.items()):
            if a != b and v != 0:
                out[index[f"E{a + 1}{b + 1}"]] = v
        diag = [mat.get((a, a), 0) for a in range(N)]
        for i, c in enumerate(_diag_to_cartan(diag)):
            if c != 0:
                out[N * (N - 1) + i] = c
        return out

    brackets = []
    dim = len(names)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k, coeff in expand(commutator(mats[i], mats[j])).items():
                brackets.append([i, j, k, qstr(coeff)])
    form = [[qstr(sum(u * y.get((c, r), 0) for (r, c), u in x.items()))
             for y in mats] for x in mats]
    gram = [[qstr(Q(min(i + 1, j + 1)) - Q((i + 1) * (j + 1), N))
             for j in range(N - 1)] for i in range(N - 1)]
    theta = [0] * (N - 1)
    if N == 2:
        theta = [2]
    else:
        theta[0] = theta[-1] = 1
    weights = {"fundamental_gram": gram, "rho": [1] * (N - 1), "highest_root": theta}
    return SimpleLieTable(names, brackets, form, qstr(Q(N)), weights,
                          name=f"sl{N}")


def sln_psi(N: int, p: int, s: int) -> LinComb:
    """psi(E_ps) = E_ps - delta_ps I/N over the build_slN_table basis
    (1-based p, s). Returns a combination of basis indices."""
    table_dim_off = N * (N - 1)
    if p != s:
        idx = 0
        for a in range(N):
            for b in range(N):
                if a != b:
                    if (a, b) == (p - 1, s - 1):
                        return LinComb.single(idx)
                    idx += 1
        raise AssertionError
    diag = [Q(-1, N)] * N
    diag[p - 1] = diag[p - 1] + 1
    out = {}
    for i, c in enumerate(_diag_to_cartan(diag)):
        if c != 0:
            out[table_dim_off + i] = c
    return LinComb(out)


# ---------------------------------------------------------------------------
# finite-dimensional module realizations used for Verma top spaces

class WeightModule:
    """A finite-dimensional module given by explicit matrices per basis
    generator, plus its highest weight (fundamental coordinates) for
    Casimir bookkeeping."""

    def __init__(self, table, mats, highest_weight, label):
        self.table = table
        self.mats = mats
        self.dim = len(mats[0]) if mats else 1
        self.highest_weight = tuple(highest_weight)
        self.label = label

    def act(self, gen_index, vec_index):
        """Image of basis vector vec_index under g_{gen_index}: dict
        vec -> coeff."""
        if not self.mats:
            return {}
        col = {}
        m = self.mats[gen_index]
        for r in range(self.dim):
            if m[r][vec_index] != 0:
                col[r] = m[r][vec_index]
        return col

    def casimir(self):
        return casimir_eigenvalue(self.table, self.highest_weight)


def trivial_module(table: SimpleLieTable) -> WeightModule:
    zero = [[[ZERO]] for _ in range(table.dim)]
    rank_w = len(table.weights.get("rho", []))
    return WeightModule(table, zero if table.dim else [], (0,) * rank_w, "trivial")


def adjoint_module(table: SimpleLieTable) -> WeightModule:
    if table.dim == 0:
        raise ValueError("rank-0 table has no adjoint module")
    mats = [table.ad(i) for i in range(table.dim)]
    hw = table.weights.get("highest_root")
    if hw is None:
        raise ValueError("table carries no highest-root data")
    return WeightModule(table, mats, hw, "adjoint")


MODULE_LABELS = ("trivial", "adjoint")


def module_by_label(table: SimpleLieTable, label: str) -> WeightModule:
    if label == "trivial":
        return trivial_module(table)
    if label == "adjoint":
        return adjoint_module(table)
    raise NotImplementedError(f"only trivial/adjoint modules are realized, not {label!r}")
