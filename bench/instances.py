"""Seeded input generators for the benchmark workloads.

The logic follows the random-instance generators of the test suite
(`rand_cone_polytope`, `rand_metric_space`, `rand_problem`, `rand_union`)
but lives here, so that editing a test cannot change a workload.  Nothing
in this module imports `polyevp`: generating inputs builds no program
object, runs no LP and leaves the program's caches untouched.  Two
departures keep generation cheap and LP-free:

* the metric closure runs in integers over the common denominator of the
  edge weights, and the program's own metric validation is not run;
* the descent hypothesis is certified by the separating functional ``l``
  that `rand_cone_polytope` draws, instead of by the program's LP check.
  ``l`` is nonnegative on K and at least ``min(l.h)`` on H, so an image
  y0 of x0 escapes every ``y + eps*H + K`` once
  ``l.(y0 - y) < eps * min(l.h)`` for every image y of every point.
  That is sufficient for the hypothesis on any lower section, so eps is
  doubled until it holds, as the tests double it until the LP check does.

Every generator returns JSON-ready documents in the problem-file format
(fractions written as ``"p/q"`` strings).
"""

from __future__ import annotations

import random
from fractions import Fraction

# lcm of the edge-weight denominators 1..3 drawn by `rand_metric`
_DIST_DEN = 6


def rand_frac(rng: random.Random, lo: int = -10, hi: int = 10, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_vector(rng, n, lo=-10, hi=10, max_den=4):
    return tuple(rand_frac(rng, lo, hi, max_den) for _ in range(n))


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def rand_cone_polytope(rng: random.Random, n: int, n_gens: int, n_verts: int):
    """(gens, verts, l) with l in the dual of cone(gens), strictly positive on verts."""
    while True:
        l = rand_vector(rng, n, -3, 3, 2)
        if any(c != 0 for c in l):
            break
    gens = []
    guard = 0
    while len(gens) < n_gens:
        guard += 1
        if guard > 200:
            return rand_cone_polytope(rng, n, n_gens, n_verts)
        g = rand_vector(rng, n)
        if all(c == 0 for c in g):
            continue
        if dot(l, g) < 0:
            g = tuple(-c for c in g)
        gens.append(g)
    verts = []
    guard = 0
    while len(verts) < n_verts:
        guard += 1
        if guard > 400:
            return rand_cone_polytope(rng, n, n_gens, n_verts)
        coeffs = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in gens]
        h = tuple(
            sum((c * g[r] for c, g in zip(coeffs, gens)), Fraction(0))
            for r in range(n)
        )
        if dot(l, h) <= 0:
            continue
        if any(abs(c) > 10 for c in h):
            continue
        verts.append(h)
    return tuple(gens), tuple(verts), l


def rand_point_in_cone(rng, gens, max_coeff: int = 3):
    coeffs = [Fraction(rng.randint(0, max_coeff), rng.randint(1, 3)) for _ in gens]
    return tuple(
        sum((c * g[r] for c, g in zip(coeffs, gens)), Fraction(0))
        for r in range(len(gens[0]))
    )


def rand_union(rng: random.Random, gens, pieces_shape) -> list[tuple[tuple, tuple]]:
    """Random piecewise range; ``pieces_shape`` gives per piece the vertex
    count and, per ray, whether it is drawn inside the cone."""
    n = len(gens[0])
    pieces = []
    for n_verts, inside in pieces_shape:
        verts = tuple(rand_vector(rng, n) for _ in range(n_verts))
        rays = []
        for ray_inside in inside:
            r = rand_point_in_cone(rng, gens) if ray_inside else rand_vector(rng, n)
            if any(c != 0 for c in r):
                rays.append(r)
        pieces.append((verts, tuple(rays)))
    return pieces


def rand_metric(rng: random.Random, n_points: int) -> list[list[Fraction]]:
    """Shortest-path closure of random positive symmetric weights.

    Weights are p/q with q in 1..3, so the closure runs on integers
    scaled by 6 and is divided back once at the end.
    """
    d = [[0] * n_points for _ in range(n_points)]
    for i in range(n_points):
        for j in range(i + 1, n_points):
            w = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            d[i][j] = d[j][i] = int(w * _DIST_DEN)
    for k in range(n_points):
        dk = d[k]
        for i in range(n_points):
            di = d[i]
            dik = di[k]
            for j in range(n_points):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    return [[Fraction(v, _DIST_DEN) for v in row] for row in d]


def _convex_mix(rng, vertices):
    weights = [Fraction(rng.randint(0, 4)) for _ in vertices]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    return tuple(
        sum((w * v[r] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for r in range(len(vertices[0]))
    )


def _num(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _vecs(vs) -> list:
    return [[_num(c) for c in v] for v in vs]


def problem_shape(
    rng: random.Random, n_points: int, max_images: int, max_gens: int,
    max_verts: int, scaled: bool,
) -> dict:
    """The sizes of one descent problem, drawn as the test generator draws them."""
    return {
        "n_gens": rng.randint(1, max_gens),
        "n_verts": rng.randint(1, max_verts),
        "images": [rng.randint(1, max(1, max_images - 1)) for _ in range(n_points)],
        "x0_images": rng.randint(1, max_images),
        "planted": rng.randint(0, n_points - 1),
        # scaled(eps, eps * stretch), as in the acceptance batch
        "stretch": rng.randint(1, 4) if scaled else None,
    }


def rand_problem(rng: random.Random, shape: dict, n: int) -> dict | None:
    """Random descent problem document of the given shape in dimension n,
    or None when no eps is certified.

    A random subset of ``shape["planted"]`` points is planted below the
    start point: they share an anchor image, and every image of the start
    point is the anchor plus (largest planted distance) * H-mix plus a
    cone point.  Everything else is free noise.
    """
    gens, verts, l = rand_cone_polytope(rng, n, shape["n_gens"], shape["n_verts"])
    n_points = len(shape["images"])
    dist = rand_metric(rng, n_points)
    labels = [f"p{i}" for i in range(n_points)]
    x0 = rng.choice(labels)
    images = {
        lab: [rand_vector(rng, n) for _ in range(k)]
        for lab, k in zip(labels, shape["images"])
    }
    others = [lab for lab in labels if lab != x0]
    rng.shuffle(others)
    planted = others[: shape["planted"]]
    if planted:
        anchor = rand_vector(rng, n, -6, 6, 2)
        i0 = labels.index(x0)
        reach = max(dist[i0][labels.index(r)] for r in planted)
        step = tuple(reach * c for c in _convex_mix(rng, verts))
        for r in planted:
            images[r].append(anchor)
        base = tuple(a + s for a, s in zip(anchor, step))
        images[x0] = [
            tuple(b + k for b, k in zip(base, rand_point_in_cone(rng, gens, 2)))
            for _ in range(shape["x0_images"])
        ]

    # certify the hypothesis through l (see the module docstring)
    floor = min(dot(l, h) for h in verts)
    lowest = min(dot(l, y) for ys in images.values() for y in ys)
    gap = min(dot(l, y0) for y0 in images[x0]) - lowest
    eps = Fraction(rng.randint(1, 4))
    for _ in range(10):
        if gap < eps * floor:
            break
        eps *= 2
    else:
        return None

    doc = {
        "dimension": n,
        "cone": {"generators": _vecs(gens)},
        "H": {"vertices": _vecs(verts)},
        "space": {"labels": labels, "dist": _vecs(dist)},
        "map": {lab: _vecs(images[lab]) for lab in labels},
        "x0": x0,
        "epsilon": _num(eps),
        "mode": "plain",
    }
    if shape["stretch"] is not None:
        lam = eps * shape["stretch"]
        doc["mode"] = {"scaled": {"epsilon": _num(eps), "lambda": _num(lam)}}
    return doc


def geometry_shape(rng: random.Random) -> dict:
    """Sizes of one geometry document: dimension 3-4, 2..dim+2 generators,
    1-3 vertices of H, 1-3 range pieces with 1-3 vertices and 0-2 rays."""
    n = rng.randint(3, 4)
    return {
        "n": n,
        "n_gens": rng.randint(2, n + 2),
        "n_verts": rng.randint(1, 3),
        "pieces": [
            (rng.randint(1, 3), [rng.random() < 0.5 for _ in range(rng.randint(0, 2))])
            for _ in range(rng.randint(1, 3))
        ],
    }


def rand_geometry(rng: random.Random, shape: dict) -> tuple[dict, tuple[Fraction, ...]]:
    """(document with H, K and ranges, query point) of the given shape."""
    n = shape["n"]
    gens, verts, _ = rand_cone_polytope(rng, n, shape["n_gens"], shape["n_verts"])
    pieces = rand_union(rng, gens, shape["pieces"])
    doc = {
        "dimension": n,
        "cone": {"generators": _vecs(gens)},
        "H": {"vertices": _vecs(verts)},
        "ranges": {
            "pieces": [
                {"vertices": _vecs(pv), "rays": _vecs(pr)} for pv, pr in pieces
            ]
        },
    }
    return doc, rand_vector(rng, n)
