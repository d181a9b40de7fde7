"""Dense rational matrix helpers for the tests: product and identity,
used as independent oracles for qlinalg and the Lie tables."""

from toralg.scalar import ONE, ZERO


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(p):
                if bk[j] != 0:
                    oi[j] = oi[j] + c * bk[j]
    return out


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
