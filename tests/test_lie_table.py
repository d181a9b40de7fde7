import pytest

from toralg.lie_table import (
    SimpleLieTable,
    adjoint_module,
    build_slN_table,
    casimir_eigenvalue,
    load_table,
    module_by_label,
    sln_psi,
    trivial_module,
    validate_lie_table,
)
from toralg.scalar import Q, ZERO

from qmatrices import mat_mul


def brute_casimir_on_adjoint(table):
    """Independent oracle: Casimir matrix sum_i ad(g_i) ad(g^i) from the
    structure constants and the form inverse. On a simple algebra this
    must be (adjoint Casimir eigenvalue) * Id."""
    dual = table.dual_basis()
    n = table.dim
    total = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        gi = table.ad(i)
        # g^i = sum_k dual[k][i] g_k
        gdual = [[sum(dual[k][i] * table.ad(k)[r][c] for k in range(n)) for c in range(n)]
                 for r in range(n)]
        prod = mat_mul(gi, gdual)
        for r in range(n):
            for c in range(n):
                total[r][c] += prod[r][c]
    return total


@pytest.mark.parametrize("name,expected", [("sl2", Q(4)), ("sl3", Q(6))])
def test_casimir_adjoint_matches_brute_force(name, expected):
    table = load_table(name)
    mat = brute_casimir_on_adjoint(table)
    for r in range(table.dim):
        for c in range(table.dim):
            assert mat[r][c] == (expected if r == c else 0)
    hw = table.weights["highest_root"]
    assert casimir_eigenvalue(table, hw) == expected
    assert expected == 2 * table.dual_coxeter


def test_shipped_tables_validate():
    for name in ("sl2", "sl3", "rank0"):
        ok, bad = validate_lie_table(load_table(name))
        assert ok, bad


def test_sl2_bracket_values():
    t = load_table("sl2")
    e, h, f = 0, 1, 2
    assert t.bracket(e, f) == {h: Q(1)}
    assert t.bracket(f, e) == {h: Q(-1)}
    assert t.bracket(h, e) == {e: Q(2)}
    assert t.bracket(e, e) == {}
    assert t.pairing(e, f) == 1
    assert t.pairing(h, h) == 2


def test_invalid_table_reports_invariance_triple():
    doc = load_table("sl2").to_json()
    # corrupt [e,f] = h into [e,f] = 2h
    ents = [ent for ent in doc["brackets"] if not (ent[0] == 0 and ent[1] == 2)]
    ents.append([0, 2, 1, "2"])
    doc["brackets"] = ents
    bad_table = SimpleLieTable.from_json(doc)
    ok, bad = validate_lie_table(bad_table)
    assert not ok
    kinds = {v["axiom"] for v in bad}
    assert "form-invariant" in kinds
    assert any(v["at"] == (0, 2, 1) for v in bad if v["axiom"] == "form-invariant")


def test_build_slN_matches_sl2_normalization():
    t = build_slN_table(2)
    ok, bad = validate_lie_table(t)
    assert ok, bad
    # basis: E12, E21, H1; trace form gives (E12|E21)=1, (H|H)=2
    assert t.pairing(0, 1) == 1
    assert t.pairing(2, 2) == 2
    assert casimir_eigenvalue(t, t.weights["highest_root"]) == 4
    assert t.dual_coxeter == 2


def test_build_slN_psi_traceless():
    for N in (2, 3):
        t = build_slN_table(N)
        # psi(E_pp) = E_pp - I/N as a combination of basis matrices
        for p in range(1, N + 1):
            comb = sln_psi(N, p, p)
            assert comb  # nonzero
            # reconstruct the diagonal and compare
            diag = [ZERO] * N
            for idx, c in comb.items():
                i = idx - N * (N - 1)
                assert i >= 0, "diagonal psi must use Cartan generators"
                diag[i] += c
                diag[i + 1] -= c
            for a in range(N):
                want = Q(-1, N) + (1 if a == p - 1 else 0)
                assert diag[a] == want
        assert sln_psi(N, 1, 2).is_zero() is False


def test_weight_modules():
    t = load_table("sl2")
    triv = trivial_module(t)
    assert triv.dim == 1 and triv.casimir() == 0
    adj = adjoint_module(t)
    assert adj.dim == 3 and adj.casimir() == 4
    # ad(h) e = 2e
    assert adj.act(1, 0) == {0: Q(2)}
    with pytest.raises(NotImplementedError):
        module_by_label(t, "49-dimensional")


def test_rank0_table():
    t = load_table("rank0")
    assert t.dim == 0
    assert casimir_eigenvalue(t, ()) == 0
    assert trivial_module(t).dim == 1
