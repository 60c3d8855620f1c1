"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts as
they complete.  Every numeric claim is checked exactly.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from polyevp import cli
from polyevp.boundedness import (
    find_kstar,
    is_quasi_K_lower_bounded,
)
from polyevp.evp import (
    ScaledMode,
    dominates,
    lower_section,
    solve,
    verify_certificate,
)
from polyevp.geometry import (
    ConeGen,
    Polytope,
    VPolyhedralUnion,
    cone_contains,
    union_disjoint_from,
)
from polyevp.rational import vec_sub
from polyevp.scalarization import (
    ExtendedReal,
    SeparationFunctional,
    evaluate,
    evaluate_bisection,
)
from polyevp.evp import HypothesisViolatedError

from conftest import (
    T_MAX,
    TOL,
    ae_efficient,
    all_vertices,
    brute_force_minimal_set,
    is_K_lower_bounded,
    make_chain3,
    problem_to_document,
    rand_cone_polytope,
    rand_point_in_cone,
    rand_problem,
    rand_union,
    rand_vector,
    separating_epsilon_for,
    vec_add,
)


def announce(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def convex_mix(rng, vertices):
    weights = [Fraction(rng.randint(0, 4)) for _ in vertices]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    return tuple(
        sum((w * v[r] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for r in range(len(vertices[0]))
    )


# ---------------------------------------------------------------------------
# criterion 1: worked separation values, sign violation
# ---------------------------------------------------------------------------


def test_criterion_1_segment_values():
    t0 = time.monotonic()
    K = ConeGen(2, ((1, 0), (0, 1)))
    H = Polytope(2, ((1, 1), (Fraction(1, 2), Fraction(1, 2))))
    sf = SeparationFunctional(H, K)
    ok = (
        evaluate(sf, (1, 1)) == ExtendedReal.finite(1)
        and evaluate(sf, (-1, -1)) == ExtendedReal.finite(-2)
        and evaluate(sf, (0, 0)) == ExtendedReal.finite(0)
    )
    v1 = evaluate(sf, (1, 1)).value
    v2 = evaluate(sf, (-1, -1)).value
    vsum = evaluate(sf, (0, 0)).value
    ok = ok and vsum > v1 + v2 and (v1, v2, vsum) == (1, -2, 0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    announce(1, ok, f"segment values 1/-2/0 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: functional laws on 500 random instances
# ---------------------------------------------------------------------------


def test_criterion_2_functional_law_suite():
    t0 = time.monotonic()
    rng = random.Random(2024)
    violations = 0
    instances = 0
    while instances < 500:
        n = rng.randint(2, 4)
        K, H, _ = rand_cone_polytope(rng, n, rng.randint(1, 6), rng.randint(1, 6))
        sf = SeparationFunctional(H, K)
        instances += 1

        if evaluate(sf, (0,) * n) != ExtendedReal.finite(0):
            violations += 1

        y = rand_vector(rng, n, -10, 10, 3)
        alpha = Fraction(rng.randint(0, 10), rng.randint(1, 3))
        v, va = evaluate(sf, y), evaluate(sf, tuple(alpha * c for c in y))
        if alpha == 0:
            if va != ExtendedReal.finite(0):
                violations += 1
        elif v.is_finite != va.is_finite or (
            v.is_finite and va.value != alpha * v.value
        ):
            violations += 1

        below = vec_sub(y, rand_point_in_cone(rng, K))
        if not evaluate(sf, below) <= v:
            violations += 1

        pair = []
        for _ in range(2):
            t = -Fraction(rng.randint(1, 9), rng.randint(1, 3))
            pair.append(
                vec_sub(
                    tuple(t * c for c in convex_mix(rng, H.vertices)),
                    rand_point_in_cone(rng, K),
                )
            )
        n1, n2 = evaluate(sf, pair[0]), evaluate(sf, pair[1])
        nsum = evaluate(sf, vec_add(pair[0], pair[1]))
        if not (n1.value < 0 and n2.value < 0 and nsum.value <= n1.value + n2.value):
            violations += 1

        z1, z2 = rand_vector(rng, n, -10, 10, 3), rand_vector(rng, n, -10, 10, 3)
        p1, p2 = evaluate(sf, z1), evaluate(sf, z2)
        if p1.is_finite and p2.is_finite and p1.value > 0 and p2.value > 0:
            if not evaluate(sf, vec_add(z1, z2)) <= ExtendedReal.finite(
                p1.value + p2.value
            ):
                violations += 1

        t = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        reachable = vec_sub(
            tuple(t * c for c in convex_mix(rng, H.vertices)),
            rand_point_in_cone(rng, K),
        )
        val = evaluate(sf, reachable)
        from polyevp.geometry import scaled_H_minus_K_contains

        if not (
            val.is_finite
            and scaled_H_minus_K_contains(H, K, reachable, val.value)
        ):
            violations += 1

    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    announce(
        2,
        ok,
        f"{instances} instances, {violations} violations ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: evaluate vs bisection on 500 finite queries
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_agreement():
    t0 = time.monotonic()
    rng = random.Random(3033)
    disagreements = 0
    queries = 0
    while queries < 500:
        K, H, _ = rand_cone_polytope(rng, rng.randint(2, 3), 3, 2)
        sf = SeparationFunctional(H, K)
        for _ in range(5):
            t = Fraction(rng.randint(-8, 8), rng.randint(1, 2))
            y = vec_sub(
                tuple(t * c for c in convex_mix(rng, H.vertices)),
                rand_point_in_cone(rng, K),
            )
            lp_val = evaluate(sf, y)
            bis = evaluate_bisection(sf, y, TOL, T_MAX)
            queries += 1
            if not (
                lp_val.is_finite
                and bis.is_finite
                and abs(lp_val.value - bis.value) <= Fraction(1, 10**6)
            ):
                disagreements += 1
            if queries >= 500:
                break
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60.0
    announce(3, ok, f"{queries} queries, {disagreements} disagreements ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: the three worked ranges, exactly
# ---------------------------------------------------------------------------


def test_criterion_4_worked_ranges():
    t0 = time.monotonic()
    halfline = ConeGen(2, ((1, 0),))
    orthant = ConeGen(2, ((1, 0), (0, 1)))

    strip = VPolyhedralUnion(2, ((((0, -1), (0, 1)), ((1, 0),)),))
    ok = is_quasi_K_lower_bounded(strip, halfline)
    ok = ok and not is_K_lower_bounded(strip, halfline)[0]

    vee = VPolyhedralUnion(2, ((((0, 0),), ((1, 1),)), (((0, 0),), ((1, -1),))))
    simplex_seg = Polytope(2, ((1, 0), (0, 1)))
    ok = ok and not is_quasi_K_lower_bounded(vee, orthant)
    ks = find_kstar(vee, orthant, simplex_seg)
    ok = ok and ks is not None and ks[0] == ks[1] and ks[0] > 0

    cross = VPolyhedralUnion(
        2,
        (
            (((0, 0),), ((1, 0),)),
            (((0, 0),), ((-1, 0),)),
            (((0, 0),), ((0, 1),)),
            (((0, 0),), ((0, -1),)),
        ),
    )
    slanted = Polytope(2, ((1, 1), (2, 1)))
    ok = ok and find_kstar(cross, orthant, slanted) is None
    ok = ok and union_disjoint_from(cross, (0, 0), 1, slanted, orthant)

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    announce(4, ok, f"strip/vee/cross classifications exact ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 5: ladder consistency on 200 random ranges
# ---------------------------------------------------------------------------


def test_criterion_5_ladder_on_random_ranges():
    t0 = time.monotonic()
    rng = random.Random(5055)
    failures = 0
    for _ in range(200):
        K, H, _ = rand_cone_polytope(
            rng, rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 2)
        )
        M = rand_union(rng, K)
        k_lower, witness_b = is_K_lower_bounded(M, K)
        quasi = is_quasi_K_lower_bounded(M, K)
        kstar = find_kstar(M, K, H)
        if k_lower and not quasi:
            failures += 1
        if k_lower and witness_b is not None:
            if not all(
                cone_contains(K, vec_sub(v, witness_b)) for v in all_vertices(M)
            ):
                failures += 1
        if quasi and kstar is None:
            failures += 1
        if kstar is not None:
            anchor = rand_vector(rng, K.dim)
            eps = separating_epsilon_for(M, kstar, anchor)
            if not union_disjoint_from(M, anchor, eps, H, K):
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60.0
    announce(5, ok, f"200 ranges, {failures} chain violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: pre-order laws, exhaustive on 100 random problems
# ---------------------------------------------------------------------------


def test_criterion_6_preorder_laws():
    t0 = time.monotonic()
    rng = random.Random(6066)
    failures = 0
    for _ in range(100):
        p = rand_problem(rng, max_points=8, max_images=3, require_witness=False)
        labels = p.space.labels
        for x in labels:
            if not dominates(p, x, x):
                failures += 1
        for a in labels:
            for b in labels:
                if not dominates(p, b, a):
                    continue
                for c in labels:
                    if dominates(p, c, b) and not dominates(p, c, a):
                        failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60.0
    announce(6, ok, f"100 problems, {failures} law violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 7, 8, 10 share one randomized solver batch
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solver_batch():
    t0 = time.monotonic()
    rng = random.Random(7077)
    batch = []
    attempts = 0
    while len(batch) < 100 and attempts < 500:
        attempts += 1
        scaled = len(batch) % 3 == 2
        factory = None
        if scaled:
            stretch = Fraction(rng.randint(1, 4))
            factory = lambda eps, s=stretch: ScaledMode(eps * s)
        p = rand_problem(
            rng,
            max_points=12,
            max_images=4,
            n=rng.randint(2, 3),
            mode_factory=factory,
        )
        if p is None:
            continue
        cert = solve(p)
        report = verify_certificate(p, cert)
        minimal = brute_force_minimal_set(p)
        batch.append((p, cert, report, minimal))
    return batch, time.monotonic() - t0


def test_criterion_7_solver_equivalence(solver_batch):
    batch, build_seconds = solver_batch
    t0 = time.monotonic()
    failures = 0
    scaled_count = 0
    for p, cert, report, minimal in batch:
        if cert.xbar not in minimal:
            failures += 1
        if lower_section(p, cert.xbar) != (cert.xbar,):
            failures += 1
        if not (report.a and report.b):
            failures += 1
        if isinstance(p.mode, ScaledMode):
            scaled_count += 1
            if report.c is not True:
                failures += 1
    elapsed = build_seconds + (time.monotonic() - t0)
    ok = len(batch) == 100 and failures == 0 and elapsed < 300.0
    announce(
        7,
        ok,
        f"{len(batch)} solves ({scaled_count} scaled), "
        f"{failures} failures ({elapsed:.1f}s incl. generation)",
    )


def test_criterion_8_descent_inequality(solver_batch):
    batch, _ = solver_batch
    violations = 0
    steps = 0
    for p, cert, _, _ in batch:
        sf = SeparationFunctional(p.H, p.K)
        recomputed = []
        for label in cert.chain:
            val = min(evaluate(sf, vec_sub(y, cert.y0)) for y in p.images(label))
            recomputed.append(val.value)
        if tuple(recomputed) != cert.xi_trace:
            violations += 1
        for (z1, v1), (z2, v2) in zip(
            zip(cert.chain, cert.xi_trace), zip(cert.chain[1:], cert.xi_trace[1:])
        ):
            steps += 1
            if v1 - v2 < p.scale * p.space.d(z1, z2):
                violations += 1
    ok = violations == 0
    announce(8, ok, f"{steps} chain steps, {violations} violations (exact)")


# ---------------------------------------------------------------------------
# criterion 9: the worked chain end to end
# ---------------------------------------------------------------------------


def test_criterion_9_chain3_end_to_end():
    t0 = time.monotonic()
    p5 = make_chain3(5)
    cert = solve(p5)
    ok = cert.xbar == "c" and verify_certificate(p5, cert).passed
    try:
        solve(make_chain3(1))
        ok = False
    except HypothesisViolatedError:
        pass
    ok = ok and ae_efficient(p5, "a", 5) == (4, 4)
    ok = ok and ae_efficient(p5, "a", 3) is None
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    announce(9, ok, f"three-point chain end to end ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 10: CLI round trip over the whole batch
# ---------------------------------------------------------------------------


def test_criterion_10_cli_round_trip(solver_batch, tmp_path, capsys):
    batch, _ = solver_batch
    t0 = time.monotonic()
    failures = 0
    forge_done = False
    for i, (p, cert, _, _) in enumerate(batch):
        pf = tmp_path / f"problem_{i}.json"
        pf.write_text(json.dumps(problem_to_document(p)))
        cf = tmp_path / f"problem_{i}.cert.json"
        if cli.main(["solve", str(pf), "--certificate", str(cf)]) != 0:
            failures += 1
            continue
        if cli.main(["verify", str(pf), str(cf)]) != 0:
            failures += 1
        if not forge_done and len(cert.chain) >= 2:
            doc = json.loads(cf.read_text())
            doc["xbar"] = p.x0
            doc["chain"] = [p.x0]
            doc["xi_trace"] = [doc["xi_trace"][0]]
            forged = tmp_path / f"forged_{i}.json"
            forged.write_text(json.dumps(doc))
            if cli.main(["verify", str(pf), str(forged)]) != 1:
                failures += 1
            forge_done = True
    capsys.readouterr()  # swallow the CLI chatter; verdict line follows
    elapsed = time.monotonic() - t0
    ok = failures == 0 and forge_done
    announce(
        10,
        ok,
        f"{len(batch)} round trips + forged mutation ({elapsed:.1f}s)",
    )
