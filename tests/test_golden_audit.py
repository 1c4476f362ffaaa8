"""Audit perfbench/golden.json from (n, k) and projective space alone.

The golden file is written by the program itself, so this audit rebuilds
what it can of it with no code of pgpairs: [Gr(2,n)] by counting the cells of
the 2 x (n-2) box, [H(2,n)] = [P^(n-3) or P^(n-2)] (1 + L^2 + ... + L^(n-2)),
the classes [P^j], and P(Y) where Y lives on projective space alone:

- for even n with dim Y >= 1, Y is a smooth degree-n/2 hypersurface in
  P^(k-1), whose middle Betti number is its Jacobian-ring row's sum
  (Griffiths, Ann. of Math. 1969);
- for even n and k = 2, Y is n/2 points;
- for odd n = 2r + 1 and k = 4, Y is chi(O_Y) points, read off the
  Buchsbaum-Eisenbud resolution 0 -> O(-n) -> O(-r-1)^n -> O(-r)^n -> O on
  P^3 (Amer. J. Math. 1977).

P(X) then comes out of the cut-and-paste relation, in Poincare polynomials,

    t^(2(k-1)) P(X) = [P^(k-1)][H] + t^(2s) P(Y) - [P^(k-2)][Gr],

whose coefficients below t^(2(k-1)) must vanish.  The count of exceptional
objects of homological projective duality (Kuznetsov, math/0610957) checks
P_X(1) - P_Y(1) on every `betti_sweep` record, from (n, k) alone.  Odd n with
dim Y > 0 needs e(Y) by localization and is not audited here.

Polynomials are lists of coefficients, lowest degree first; a class in L is
one in t = L^(1/2) with its coefficients on the even degrees.
"""

import json
import math
from pathlib import Path

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p, q, sign=1):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += sign * c
    return _trim(out)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _in_t(c):
    """A class in L as a polynomial in t."""
    out = [0] * (2 * len(c) - 1) if c else []
    out[::2] = c
    return out


def projective(j):
    """[P^j] in L; [P^(-1)] = 0."""
    return [1] * (j + 1)


def grassmannian(n):
    """[Gr(2,n)] in L: one cell L^(a+b) for each a >= b >= 0 with a <= n - 2."""
    out = [0] * (2 * (n - 2) + 1)
    for a in range(n - 1):
        for b in range(a + 1):
            out[a + b] += 1
    return out


def hyperplane_section(n):
    """[H(2,n)] in L: [P^(n-3)] for even n, [P^(n-2)] for odd n, times 1 + L^2 + ... + L^(n-2)."""
    return _mul(projective(n - 3 + n % 2), [1, 0] * ((n - 2) // 2) + [1])


def jacobian_row(d, N):
    """The middle Hodge row of a smooth degree-d hypersurface in P^N: the primitive part in
    position p is the degree (p+1)d - N - 1 piece of the Jacobian ring, with Hilbert series
    ((1 - t^(d-1)) / (1 - t))^(N+1), and the hyperplane class adds 1 at an even centre."""
    row = []
    for p in range(N):
        j = (p + 1) * d - N - 1
        primitive = sum(
            (-1) ** i * math.comb(N + 1, i) * math.comb(j - i * (d - 1) + N, N) for i in range(N + 2) if j >= i * (d - 1)
        )
        row.append(primitive + (2 * p == N - 1))
    return row


def chi_o_points(n):
    """chi(O_Y) of the points Y for odd n = 2r + 1 and k = 4: the alternating sum of
    chi(P^3, O(j)) = (j + 1)(j + 2)(j + 3) / 6 over the Buchsbaum-Eisenbud resolution."""
    r = n // 2
    return sum(sign * math.prod(range(j + 1, j + 4)) // 6 for sign, j in ((1, 0), (-n, -r), (n, -r - 1), (-1, -n)))


def dims(n, k):
    """dim X and dim Y: Y is cut from P^(k-1) by the Pfaffian hypersurface (even n) or a codimension-3 locus (odd n)."""
    return 2 * (n - 2) - k, k - 1 - (1 if n % 2 == 0 else 3)


def poincare_y(n, k):
    """P(Y) as a polynomial in t where Y lives on projective space alone, else None."""
    dim_y = dims(n, k)[1]
    if n % 2 == 0 and dim_y >= 1:
        coeffs = [1, 0] * dim_y + [1]
        coeffs[dim_y] = sum(jacobian_row(n // 2, k - 1))
        return coeffs
    if n % 2 == 0 and k == 2:
        return [n // 2]
    if n % 2 == 1 and k == 4:
        return [chi_o_points(n)]
    return None


def rebuild_poincare_x(n, k, p_y):
    """P(X) solved from the relation; AssertionError if its division by t^(2(k-1)) is not exact."""
    s = n - 2 if n % 2 == 0 else n - 1
    rhs = _add(_in_t(_mul(projective(k - 1), hyperplane_section(n))), [0] * (2 * s) + p_y)
    rhs = _add(rhs, _in_t(_mul(projective(k - 2), grassmannian(n))), -1)
    twist = 2 * (k - 1)
    assert not any(rhs[:twist]), f"({n},{k}): remainder {rhs[:twist]} below t^{twist}"
    return rhs[twist:]


def hpd_count(n, k):
    """The exceptional objects of D(X) less those of D(Y) by homological projective duality:
    Lefschetz blocks of r objects for odd n = 2r + 1; r for t < r and r - 1 for r <= t < n for
    even n = 2r."""
    r = n // 2

    def block(t):
        return 0 if t >= n else r - (n % 2 == 0 and t >= r)

    return sum(block(t) for t in range(k, n)) - sum(block(0) - block(u) for u in range(k))


def _key(key):
    n, k = map(int, key.split(","))
    return n, k


def audit_betti_sweep(records):
    """(the keys audited, a message for each mismatch) over `betti_sweep` records."""
    audited, bad = [], []
    for key, rec in records.items():
        n, k = _key(key)
        p_y = poincare_y(n, k)
        if p_y is None:
            continue
        audited.append(key)
        p_x = rebuild_poincare_x(n, k, p_y)
        if (rec["poincare_x"], rec["poincare_y"]) != (p_x, p_y):
            bad.append(f"betti_sweep {key}: golden {rec['poincare_x']}, {rec['poincare_y']}; rebuilt {p_x}, {p_y}")
    return audited, bad


def audit_grid_sweep(rows):
    """(the keys audited, a message for each mismatch) over `grid_sweep` rows."""
    audited, bad = [], []
    for key, row in rows.items():
        n, k = _key(key)
        p_y = poincare_y(n, k)
        if p_y is None:
            continue
        audited.append(key)
        dim_x, dim_y = dims(n, k)
        p_x = rebuild_poincare_x(n, k, p_y)
        b_mid = p_x[dim_x]
        gr = _in_t(grassmannian(n))
        expected = {
            "euler": sum(c * (-1) ** i for i, c in enumerate(p_x)),
            "middle_betti": b_mid,
            "variable_betti": b_mid - gr[dim_x],
            "dim_x": dim_x,
            "dim_y": dim_y,
        }
        got = {field: row[field] for field in expected}
        if got != expected:
            bad.append(f"grid_sweep {key}: golden {got}, rebuilt {expected}")
    return audited, bad


def audit_pair_cold(reports):
    """A message for each mismatch of P(X), P(Y) and X's middle row of the even-n `pair_cold`
    reports: X's row is Y's Jacobian-ring row moved by L^m, its centre from b_mid(X)."""
    bad = []
    for key in ("8,4", "10,5", "12,4"):
        n, k = _key(key)
        dim_x, dim_y = dims(n, k)
        m = (dim_x - dim_y) // 2
        p_y = poincare_y(n, k)
        p_x = rebuild_poincare_x(n, k, p_y)
        row = [0] * m + jacobian_row(n // 2, k - 1) + [0] * m
        if dim_x % 2 == 0:
            row[dim_x // 2] += p_x[dim_x] - sum(row)
        rep = reports[key]
        got = rep["poincare_x"], rep["poincare_y"], rep["hodge"]["middle_hodge"]
        if got != (p_x, p_y, row):
            bad.append(f"pair_cold {key}: golden {got}, rebuilt {(p_x, p_y, row)}")
    return bad


def audit_hpd(records):
    """A message for each `betti_sweep` record whose P_X(1) - P_Y(1) is not the HPD count."""
    bad = []
    for key, rec in records.items():
        n, k = _key(key)
        diff = sum(rec["poincare_x"]) - sum(rec["poincare_y"])
        if diff != hpd_count(n, k):
            bad.append(f"betti_sweep {key}: P_X(1) - P_Y(1) = {diff}, HPD counts {hpd_count(n, k)}")
    return bad


def audit(golden=GOLDEN):
    """Every mismatch of the audit over the golden file."""
    return (
        audit_betti_sweep(golden["betti_sweep"])[1]
        + audit_grid_sweep(golden["grid_sweep"])[1]
        + audit_pair_cold(golden["pair_cold"])
        + audit_hpd(golden["betti_sweep"])
    )


def test_betti_sweep_records_from_projective_space():
    # all 38 even-n records and the 7 odd-n ones with k = 4, of 83
    records = GOLDEN["betti_sweep"]
    audited, bad = audit_betti_sweep(records)
    assert bad == []
    assert len(records) == 83 and len(audited) == 45
    assert sorted(audited) == sorted(key for key in records if _key(key)[0] % 2 == 0 or _key(key)[1] == 4)


def test_grid_sweep_rows_from_projective_space():
    rows = GOLDEN["grid_sweep"]
    audited, bad = audit_grid_sweep(rows)
    assert bad == []
    assert len(rows) == 47 and len(audited) == 27


def test_pair_cold_reports_from_projective_space():
    assert audit_pair_cold(GOLDEN["pair_cold"]) == []


def test_hpd_count_on_every_betti_sweep_record():
    assert audit_hpd(GOLDEN["betti_sweep"]) == []


def test_audit_names_a_wrong_golden_record():
    # two classes too many in the middle of P(X) of (8,4) keep it palindromic, and each part that
    # reads the record names it
    golden = json.loads(json.dumps(GOLDEN))
    golden["betti_sweep"]["8,4"]["poincare_x"][8] += 2
    golden["grid_sweep"]["8,4"]["middle_betti"] += 2
    golden["pair_cold"]["8,4"]["hodge"]["middle_hodge"][4] += 2
    bad = audit(golden)
    assert [message.split(":")[0] for message in bad] == [
        "betti_sweep 8,4", "grid_sweep 8,4", "pair_cold 8,4", "betti_sweep 8,4"
    ]
    assert bad[-1].endswith("P_X(1) - P_Y(1) = 14, HPD counts 12")
