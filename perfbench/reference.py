"""Independent lhs/rhs sums for the statements whose sums have a short form.

Written from the statement definitions with plain ``Fraction`` pairs, without
importing the package, so the benchmark can check verdicts for every seed and
not only for the seeds whose outputs are stored. Each entry gives the
difference operator, the lhs and rhs index ranges as offsets from the first
index b and the last index e (both ends inclusive), and the constant.
"""

from __future__ import annotations

from fractions import Fraction


def _opial(l1, l2, n):
    return Fraction(l2 * (n + 1) ** l1, l1 + l2)


def _half(l1, l2, m):
    return Fraction(l2 * (m // 2 + 1) ** l1, l1 + l2)


def _classical(l1, l2, n):
    return Fraction((n + 1) // 2, 2)


# statement -> (operator, lhs offsets, rhs offsets, constant of (l1, l2, e - b))
SINGLE = {
    "T3_1": ("nabla", (1, 0), (1, 0), _opial),
    "T3_3": ("nabla", (1, 0), (1, 0), _opial),
    "L3_01": ("nabla", (1, 0), (1, 0), _opial),
    "T3_5": ("nabla", (1, -1), (1, 0), _half),
    "T4_1": ("delta", (0, -1), (0, -1), _opial),
    "T4_5": ("delta", (1, -1), (0, -1), _half),
    "T2_2": ("delta", (1, -1), (0, -1), _classical),
}


def _gh(a, c):
    d0, d1 = a[0] - c[0], a[1] - c[1]
    return (min(d0, d1), max(d0, d1))


def _mul(a, c):
    ps = (a[0] * c[0], a[0] * c[1], a[1] * c[0], a[1] * c[1])
    return (min(ps), max(ps))


def _pow(a, k):
    lo, hi = a
    if k % 2 == 1 or lo >= 0:
        return (lo ** k, hi ** k)
    if hi <= 0:
        return (hi ** k, lo ** k)
    return (Fraction(0), max(-lo, hi) ** k)


def _norm(a):
    return max(-a[0], a[1])


def _seq(raw):
    return [(Fraction(str(lo)), Fraction(str(hi))) for lo, hi in raw]


def sums_for(tid, doc, l1, l2):
    """(lhs, rhs) of statement ``tid`` on ``doc``, or None if not covered.

    ``doc`` holds "u" (and "v" for pairs) as [lo, hi] lists of ints,
    Fractions or "p/q" strings, and "base_index".
    """
    if doc is None:
        return None
    u = _seq(doc["u"])
    b = doc.get("base_index", 0)
    e = b + len(u) - 1
    at = lambda s, i: s[i - b]  # noqa: E731
    if tid == "T3_6":
        v = _seq(doc["v"])
        lhs = rhs = Fraction(0)
        for i in range(b + 1, e + 1):
            nu, nv = _gh(at(u, i), at(u, i - 1)), _gh(at(v, i), at(v, i - 1))
            t = _mul(at(u, i - 1), nv)
            s = _mul(at(v, i), nu)
            lhs += _norm((t[0] + s[0], t[1] + s[1]))
            p, q = _pow(nu, 2), _pow(nv, 2)
            rhs += _norm((p[0] + q[0], p[1] + q[1]))
        return lhs, Fraction(e - b, 2) * rhs
    if tid not in SINGLE:
        return None
    op, (ls, le), (rs, re), const = SINGLE[tid]
    if tid == "T2_2":
        l1 = l2 = 1
    if op == "nabla":
        diff = {i: _gh(at(u, i), at(u, i - 1)) for i in range(b + 1, e + 1)}
    else:
        diff = {i: _gh(at(u, i + 1), at(u, i)) for i in range(b, e)}
    lhs = sum((_norm(_mul(_pow(at(u, i), l1), _pow(diff[i], l2)))
               for i in range(b + ls, e + le + 1)), Fraction(0))
    rhs = sum((_norm(diff[i]) ** (l1 + l2) for i in range(b + rs, e + re + 1)), Fraction(0))
    return lhs, const(l1, l2, e - b) * rhs
