"""Acceptance suite: the headline reproduction and certification checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. All comparisons are exact rational arithmetic.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct

from helpers import (
    all_labels,
    all_weighted_partitions,
    brute_one_part,
    centralizer_order,
    divisor_labels,
    hurwitz_refined,
    mp_contains,
    mp_diff,
    nonzero_degree_ok,
    pairing_fixed,
    poly2_subs_t2_minus_t1,
    random_weighted_partition,
)
from symprod.algebra import Poly2, RatFunc2, char_poly_squarefree
from symprod.chenruan import expand, pairing
from symprod.hurwitz import hurwitz, one_part_double_hurwitz
from symprod.invariants import connected_two_point, disconnected_two_point
from symprod.operators import closed_form_matrix_a1n2, eigen_certify, verify_a1n2
from symprod.partitions import (
    ecurve,
    enumerate_sub_splittings,
    multipartition,
    partitions_of,
    wp_size,
)
from symprod.surface import class_of, integrate, intersection_number, tangent_weights


def _report(number: int, description: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {verdict} - {description}", flush=True)
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_matrix_reproduction():
    report = verify_a1n2(6, 6)
    ok = report.full_ok and nonzero_degree_ok(report) and report.entries_matched == 25
    _report(
        1,
        "computed divisor operator reproduces the 5x5 closed forms at "
        "u-order 6, s-order 6 (all 25 entries, all degrees)",
        ok,
    )


def test_criterion_2_hurwitz_oracle_equivalence():
    ok = True
    for k in range(1, 6):
        for sigma in partitions_of(k):
            for b in range(7):
                if one_part_double_hurwitz(sigma, b) != brute_one_part(sigma, b):
                    ok = False
    _report(
        2,
        "closed-form one-part double Hurwitz numbers equal enumeration "
        "for every partition of k <= 5 and b <= 6",
        ok,
    )


def test_criterion_3_refined_count_identities():
    ok = True
    for n in range(1, 6):
        parts = partitions_of(n)
        layouts = [
            (s, t) for s in range(1, 4) for t in range(1, 4) if s + t <= 4
        ]
        for s_len, t_len in layouts:
            for lefts in combinations_with_replacement(parts, s_len):
                for rights in combinations_with_replacement(parts, t_len):
                    total = Fraction(0)
                    for sigma in parts:
                        refined = hurwitz_refined(sigma, lefts, rights)
                        product = (
                            centralizer_order(sigma)
                            * hurwitz(list(lefts) + [sigma], n)
                            * hurwitz([sigma] + list(rights), n)
                        )
                        if refined != product:
                            ok = False
                        total += refined
                    if total != hurwitz(list(lefts) + list(rights), n):
                        ok = False
    _report(
        3,
        "refined-count product and sum identities hold exactly for all "
        "partitions of n <= 5, profile lists of total length <= 4",
        ok,
    )


def test_criterion_4_localization_gram_and_weights():
    theta = Poly2.linear(1, 1)
    ok = True
    for r in range(1, 7):
        w = tangent_weights(r)
        if w[0][0] != Poly2.linear(r + 1, 0) or w[r][1] != Poly2.linear(0, r + 1):
            ok = False
        for left, right, _ in w:
            if left + right != theta:
                ok = False
        for i in range(1, r + 1):
            if w[i - 1][1] != -w[i][0]:
                ok = False
        curves = [class_of(ecurve(i), r) for i in range(1, r + 1)]
        for i in range(r):
            for j in range(r):
                want = RatFunc2.const(intersection_number(i + 1, j + 1))
                if integrate(curves[i], curves[j]) != want:
                    ok = False
    _report(
        4,
        "localization Gram matrix equals the intersection matrix and all "
        "four tangent-weight identities hold symbolically for r = 1..6",
        ok,
    )


def test_criterion_5_pairing_consistency():
    ok = True
    for r in (1, 2):
        w = tangent_weights(r)
        for n in (1, 2, 3):
            wps = all_weighted_partitions(n, all_labels(r))
            expansions = {wp: expand(wp, r) for wp in wps}

            def fixed_path(a, b):
                ea, eb = expansions[a], expansions[b]
                small, big = (ea, eb) if len(ea) <= len(eb) else (eb, ea)
                total = RatFunc2.zero()
                for mp, ca in small.items():
                    cb = big.get(mp)
                    if cb is not None:
                        total = total + ca * cb * pairing_fixed(mp, mp, w)
                return total

            for idx, a in enumerate(wps):
                for b in wps[idx:]:
                    if fixed_path(a, b) != pairing(a, b, r):
                        ok = False
            # diagonal values on fixed-point classes are H(sigma~) t(sigma~)
            for mp_wp in wps:
                if any(label[0] != "x" for _, label in mp_wp):
                    continue
                comps = [[] for _ in range(r + 1)]
                for part, label in mp_wp:
                    comps[label[1] - 1].append(part)
                mp = multipartition(comps)
                if pairing(mp_wp, mp_wp, r) != pairing_fixed(mp, mp, w):
                    ok = False
    _report(
        5,
        "matching-sum pairing equals the fixed-basis pairing, and diagonal "
        "fixed-point pairings are H(sigma)t(sigma), for all weighted "
        "partitions of n <= 3, r <= 2",
        ok,
    )


def _multipartitions_of(n, p):
    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    out = []
    for sizes in compositions(n, p):
        pools = [partitions_of(c) for c in sizes]
        for combo in iproduct(*pools):
            out.append(multipartition(combo))
    return out


def test_criterion_6_splitting_identity():
    rng = random.Random(2024)
    ok = True
    checked = 0
    while checked < 200:
        r = rng.randint(1, 2)
        n = rng.randint(2, 4)
        lam = random_weighted_partition(rng, n, all_labels(r))
        delta = rng.choice(_multipartitions_of(n, r + 1))
        m = rng.randint(0, n)
        subs = [mp for mp in _multipartitions_of(m, r + 1) if mp_contains(delta, mp)]
        if not subs:
            continue
        sigma = rng.choice(subs)
        rest = mp_diff(delta, sigma)
        lhs = expand(lam, r).get(delta, RatFunc2.zero())
        rhs = RatFunc2.zero()
        for theta, nu in enumerate_sub_splittings(lam):
            if wp_size(theta) != m:
                continue
            rhs = rhs + expand(theta, r).get(sigma, RatFunc2.zero()) * expand(nu, r).get(
                rest, RatFunc2.zero()
            )
        if lhs != rhs:
            ok = False
        checked += 1
    _report(
        6,
        "fixed-point components satisfy the splitting identity exactly on "
        "200 randomized instances with n <= 4, r <= 2",
        ok,
    )


def test_criterion_7_structural_vanishing():
    rng = random.Random(4096)
    ok = True
    # off-chain and ineffective degrees vanish
    for _ in range(60):
        r = rng.randint(2, 3)
        n = rng.randint(1, 4)
        labels = divisor_labels(r)
        mu1 = random_weighted_partition(rng, n, labels)
        mu2 = random_weighted_partition(rng, n, labels)
        a = rng.randint(0, 3)
        bad = [0] * r
        style = rng.choice(["gap", "mixed"])
        if style == "gap" and r >= 3:
            bad[0] = rng.randint(1, 2)
            bad[2] = rng.randint(1, 2)
        else:
            bad[0] = 1
            bad[1] = 2
        if not disconnected_two_point(mu1, mu2, a, tuple(bad)).is_zero():
            ok = False
    # parity vanishing and theta-divisible polynomial values
    for _ in range(60):
        r = rng.randint(1, 2)
        n = rng.randint(1, 4)
        labels = divisor_labels(r)
        mu1 = random_weighted_partition(rng, n, labels)
        mu2 = random_weighted_partition(rng, n, labels)
        a = rng.randint(0, 4)
        i = rng.randint(1, r)
        j = rng.randint(i, r)
        beta = tuple(
            rng.randint(1, 2) if i <= k <= j else 0 for k in range(1, r + 1)
        )
        d = max(beta)
        beta = tuple(d if b else 0 for b in beta)
        conn = connected_two_point(mu1, mu2, a, beta)
        if poly2_subs_t2_minus_t1(conn) != []:
            ok = False  # not divisible by t1 + t2
        if (a - len(mu1) - len(mu2)) % 2 and not conn.is_zero():
            ok = False  # parity must kill it
        if (a - len(mu1) - len(mu2)) % 2:
            if not disconnected_two_point(mu1, mu2, a, beta).is_zero():
                ok = False
    _report(
        7,
        "disconnected invariants vanish off chain classes and under parity "
        "failure; connected values are (t1+t2)-divisible polynomials "
        "(randomized, n <= 4)",
        ok,
    )


def test_criterion_8_eigenvalue_certificate():
    rng = random.Random(777)
    ok = True
    done = 0
    while done < 5:
        t1 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        t2 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        s1 = Fraction(rng.randint(1, 7), rng.randint(8, 13))  # keeps |s| < 1 != poles
        q = Fraction(rng.randint(1, 9), rng.randint(10, 17))
        if t1 == t2 or s1 == 1 or q == 0:
            continue
        try:
            report = eigen_certify(
                closed_form_matrix_a1n2, {"t1": t1, "t2": t2, "s1": s1, "q": q}
            )
        except ZeroDivisionError:
            continue
        if not report.squarefree:
            ok = False
        done += 1
    ident = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    _, ident_squarefree = char_poly_squarefree(ident)
    if ident_squarefree:
        ok = False
    _report(
        8,
        "squarefree characteristic polynomial at 5 pole-free rational "
        "specializations; identity-matrix negative control rejected",
        ok,
    )
