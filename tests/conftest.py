"""Shared fixtures and seeded random-instance generators.

Instance generation keeps every structural invariant by construction:
a nonzero functional l is drawn first, cone generators are flipped to
its nonnegative side, and perturbation vertices are positive generator
combinations with l strictly positive on them.  That guarantees the
vertices sit inside the cone, outside its negative, and the origin
stays out of H + K, so the separation functional accepts the pair.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from polyevp.evp import (
    EfficiencyMode,
    EVPProblem,
    FiniteMetricSpace,
    PlainMode,
    ScaledMode,
    SetValuedMapTable,
    condition_ii_witness,
    lower_section,
)
from polyevp.geometry import ConeGen, Polytope, VPolyhedralUnion
from polyevp.rational import dot, frac, to_jsonable


def dual_cone_contains(K: ConeGen, l) -> bool:
    """Is the linear functional l nonnegative on the whole cone?  That is
    l . g >= 0 for every generator g, so no LP is needed."""
    return all(dot(l, g) >= 0 for g in K.generators)


def vec_add(a, b) -> tuple[Fraction, ...]:
    """The coordinatewise sum of two vectors of one length."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def map_table(mapping) -> SetValuedMapTable:
    """The table of a {label: [image, ...]} mapping, in its key order."""
    return SetValuedMapTable(
        tuple((k, tuple(tuple(v) for v in vs)) for k, vs in mapping.items())
    )


def _vec_doc(v) -> list:
    return [to_jsonable(frac(c)) for c in v]


def problem_to_document(p: EVPProblem) -> dict:
    """The problem document that `problemfile.build_problem` reads back as p."""
    doc: dict = {
        "dimension": p.K.dim,
        "cone": {"generators": [_vec_doc(g) for g in p.K.generators]},
        "H": {"vertices": [_vec_doc(v) for v in p.H.vertices]},
        "space": {
            "labels": list(p.space.labels),
            "dist": [_vec_doc(row) for row in p.space.dist],
        },
        "map": {l: [_vec_doc(y) for y in p.images(l)] for l in p.space.labels},
        "x0": p.x0,
        "epsilon": to_jsonable(p.epsilon),
    }
    if isinstance(p.mode, ScaledMode):
        doc["mode"] = {
            "scaled": {
                "epsilon": to_jsonable(p.mode.epsilon),
                "lambda": to_jsonable(p.mode.lam),
            }
        }
    elif isinstance(p.mode, EfficiencyMode):
        doc["mode"] = {
            "efficiency": {
                "gamma": to_jsonable(p.mode.gamma),
                "feasible": list(p.feasible),
            }
        }
    else:
        doc["mode"] = "plain"
    return doc


def rand_frac(rng: random.Random, lo: int = -10, hi: int = 10, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_vector(rng, n, lo=-10, hi=10, max_den=4):
    return tuple(rand_frac(rng, lo, hi, max_den) for _ in range(n))


# Restarts `rand_cone_polytope` makes before it calls a shape impossible.
# The suite's own draws restart at most once, and 150 seeds of every
# shape it uses (dimension 1-4, 1-6 generators, 1-6 vertices) at most
# twice; a restart of a hopeless 20-generator shape in dimension 7 costs
# about a quarter of a second.
MAX_RESTARTS = 20


def rand_cone_polytope(rng: random.Random, n: int, n_gens: int, n_verts: int):
    """(K, H, l) with l in the dual of K and strictly positive on H.

    A draw that runs out of tries restarts from scratch on the same rng;
    after MAX_RESTARTS restarts the shape is reported as impossible.
    """
    for _ in range(MAX_RESTARTS + 1):
        drawn = _draw_cone_polytope(rng, n, n_gens, n_verts)
        if drawn is not None:
            return drawn
    raise ValueError(
        f"no cone of {n_gens} generators in dimension {n} with {n_verts} "
        f"polytope vertices after {MAX_RESTARTS} restarts"
    )


def _draw_cone_polytope(rng, n, n_gens, n_verts):
    """One attempt of `rand_cone_polytope`, or None when it runs out of tries."""
    while True:
        l = rand_vector(rng, n, -3, 3, 2)
        if any(c != 0 for c in l):
            break
    gens = []
    guard = 0
    while len(gens) < n_gens:
        guard += 1
        if guard > 200:
            return None
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
            return None
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
    return ConeGen(n, tuple(gens)), Polytope(n, tuple(verts)), l


def rand_point_in_cone(rng, K: ConeGen, max_coeff: int = 3):
    coeffs = [Fraction(rng.randint(0, max_coeff), rng.randint(1, 3)) for _ in K.generators]
    return tuple(
        sum((c * g[r] for c, g in zip(coeffs, K.generators)), Fraction(0))
        for r in range(K.dim)
    )


def rand_union(rng: random.Random, K: ConeGen, force_quasi: bool | None = None):
    """Random piecewise range; rays land inside or outside the cone."""
    n = K.dim
    pieces = []
    for _ in range(rng.randint(1, 3)):
        verts = tuple(rand_vector(rng, n) for _ in range(rng.randint(1, 3)))
        rays = []
        for _ in range(rng.randint(0, 2)):
            inside = force_quasi if force_quasi is not None else rng.random() < 0.5
            if inside:
                r = rand_point_in_cone(rng, K)
            else:
                r = rand_vector(rng, n)
            if any(c != 0 for c in r):
                rays.append(r)
        pieces.append((verts, tuple(rays)))
    return VPolyhedralUnion(n, tuple(pieces))


@st.composite
def instance_point_scales(draw):
    """(K, H, y, t1, t2) with t1 < t2, for oracle properties.

    Hypothesis draws the dimension and the generator and vertex counts,
    so a cone with fewer generators than the dimension and a one-vertex
    H are explicit draws, and what a failure shrinks to.  y is either a
    free point or t*h - k with h in H and k in K, where phi(y) is finite.
    """
    n = draw(st.integers(2, 3))
    n_gens = draw(st.integers(1, 3))
    n_verts = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10_000)))
    K, H, _ = rand_cone_polytope(rng, n, n_gens, n_verts)
    if draw(st.booleans()):
        y = rand_vector(rng, n)
    else:
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
        h = _convex_mix(rng, H.vertices)
        y = tuple(t * a - b for a, b in zip(h, rand_point_in_cone(rng, K)))
    t1 = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 3)))
    dt = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 3)))
    return K, H, y, t1, t1 + dt


def rand_metric_space(rng: random.Random, n_points: int) -> FiniteMetricSpace:
    """Shortest-path closure of random positive symmetric weights."""
    labels = tuple(f"p{i}" for i in range(n_points))
    d = [[Fraction(0)] * n_points for _ in range(n_points)]
    for i in range(n_points):
        for j in range(i + 1, n_points):
            w = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            d[i][j] = d[j][i] = w
    for k in range(n_points):
        for i in range(n_points):
            for j in range(n_points):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return FiniteMetricSpace(labels, tuple(tuple(row) for row in d))


def _convex_mix(rng, vertices):
    weights = [Fraction(rng.randint(0, 4)) for _ in vertices]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    return tuple(
        sum((w * v[r] for w, v in zip(weights, vertices)), Fraction(0)) / total
        for r in range(len(vertices[0]))
    )


def rand_problem(
    rng: random.Random,
    max_points: int = 8,
    max_images: int = 3,
    n: int = 2,
    max_gens: int = 3,
    max_verts: int = 2,
    mode_factory=None,
    require_witness: bool = True,
):
    """Random problem; eps is doubled until the descent hypothesis holds.

    A random subset of points is planted below the start point: they all
    carry a shared anchor image, and every image of the start point is
    built as anchor + (max planted distance) * H-mix + cone point, which
    keeps those points in the start section for any perturbation scale
    up to one.  Everything else is free noise, so the dominance relation
    has real structure without being rigged to a single answer.

    Returns None when no eps up to the retry bound yields the descent
    hypothesis, so callers can regenerate.
    """
    K, H, _ = rand_cone_polytope(
        rng, n, rng.randint(1, max_gens), rng.randint(1, max_verts)
    )
    space = rand_metric_space(rng, rng.randint(2, max_points))
    x0 = rng.choice(space.labels)
    images = {
        l: [rand_vector(rng, n) for _ in range(rng.randint(1, max(1, max_images - 1)))]
        for l in space.labels
    }
    others = [l for l in space.labels if l != x0]
    rng.shuffle(others)
    planted = others[: rng.randint(0, len(others))]
    if planted:
        anchor = rand_vector(rng, n, -6, 6, 2)
        reach = max(space.d(x0, r) for r in planted)
        step = tuple(reach * c for c in _convex_mix(rng, H.vertices))
        for r in planted:
            images[r].append(anchor)
        base = tuple(a + s for a, s in zip(anchor, step))
        images[x0] = [
            tuple(b + k for b, k in zip(base, rand_point_in_cone(rng, K, 2)))
            for _ in range(rng.randint(1, max_images))
        ]
    table = map_table(images)
    eps = Fraction(rng.randint(1, 4))
    for _ in range(10):
        mode = mode_factory(eps) if mode_factory else PlainMode()
        problem = EVPProblem(
            space=space, f=table, K=K, H=H, x0=x0, epsilon=eps, mode=mode
        )
        if not require_witness:
            return problem
        if condition_ii_witness(problem) is not None:
            return problem
        eps *= 2
    return None


def brute_force_minimal_set(p: EVPProblem) -> tuple[str, ...]:
    """Endpoints by exhaustive enumeration: points of the start section
    whose own section is a singleton."""
    section = lower_section(p, p.x0)
    return tuple(x for x in section if lower_section(p, x) == (x,))


# ---------------------------------------------------------------------------
# worked instances used across modules
# ---------------------------------------------------------------------------


@pytest.fixture
def orthant2() -> ConeGen:
    return ConeGen(2, ((1, 0), (0, 1)))


@pytest.fixture
def diagonal_segment(orthant2) -> Polytope:
    """Segment from (1/2, 1/2) to (1, 1): the mixed-sign showcase pair."""
    return Polytope(2, ((1, 1), (Fraction(1, 2), Fraction(1, 2))))


@pytest.fixture
def slanted_segment() -> Polytope:
    """Segment from (1, 1) to (2, 1), strictly separated from the origin."""
    return Polytope(2, ((1, 1), (2, 1)))


@pytest.fixture
def simplex_segment() -> Polytope:
    """The unit simplex segment conv{(1,0), (0,1)}."""
    return Polytope(2, ((1, 0), (0, 1)))


@pytest.fixture
def strip_range() -> VPolyhedralUnion:
    """Vertical unit strip swept along the +x ray."""
    return VPolyhedralUnion(2, ((((0, -1), (0, 1)), ((1, 0),)),))


@pytest.fixture
def vee_range() -> VPolyhedralUnion:
    """Two rays (1, 1) and (1, -1) from the origin."""
    return VPolyhedralUnion(
        2, ((((0, 0),), ((1, 1),)), (((0, 0),), ((1, -1),)))
    )


@pytest.fixture
def axis_cross_range() -> VPolyhedralUnion:
    """All four axis rays from the origin."""
    return VPolyhedralUnion(
        2,
        (
            (((0, 0),), ((1, 0),)),
            (((0, 0),), ((-1, 0),)),
            (((0, 0),), ((0, 1),)),
            (((0, 0),), ((0, -1),)),
        ),
    )


def make_chain3(epsilon, mode=PlainMode()) -> EVPProblem:
    """Three points on a line with singleton images marching to the origin."""
    space = FiniteMetricSpace(("a", "b", "c"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    table = map_table({"a": [(4, 4)], "b": [(2, 2)], "c": [(0, 0)]})
    return EVPProblem(
        space=space,
        f=table,
        K=ConeGen(2, ((1, 0), (0, 1))),
        H=Polytope(2, ((1, 1),)),
        x0="a",
        epsilon=epsilon,
        mode=mode,
    )


@pytest.fixture
def chain3_eps5() -> EVPProblem:
    return make_chain3(5)


@pytest.fixture
def chain3_eps1() -> EVPProblem:
    return make_chain3(1)
