"""JSON problem and certificate documents.

A problem document carries the geometry ("dimension", "cone", "H"),
optionally a metric-space problem ("space", "map", "x0", "epsilon",
"mode"), optionally a ranges block for boundedness diagnostics, and
optional evaluation settings ("tolerance", "t_max").  Numbers may be
written as integers, decimals, or "p/q" strings; everything is parsed
exactly, each number once, by `rational.ratio`.  The distances of
"space"."dist" go to `FiniteMetricSpace` as written, and it forms its
integer matrix from them with no Fraction in between; a bad entry is
located only when that construction fails.

Certificates serialize as {"xbar", "y0", "chain", "xi_trace", "mode",
"checks"} where checks carries "a", "b" and, when applicable, "c" and
"t66c".
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .evp import (
    EfficiencyMode,
    EVPCertificate,
    EVPProblem,
    FiniteMetricSpace,
    PlainMode,
    ScaledMode,
    SetValuedMapTable,
    VerificationReport,
)
from .geometry import ConeGen, Polytope, VPolyhedralUnion
from .rational import Vec, frac, to_jsonable
from .scalarization import SeparationFunctional

__all__ = [
    "ProblemFileError",
    "load_document",
    "build_cone",
    "build_polytope",
    "build_separation",
    "build_ranges",
    "build_problem",
    "certificate_to_document",
    "certificate_from_document",
    "write_document",
]


class ProblemFileError(ValueError):
    """Input document is malformed; the message says where and why."""


def load_document(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e}") from e
    try:
        # parse_float=str keeps the decimal digits the user wrote, so the
        # exact parser sees 0.1 as 1/10 rather than its binary expansion
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a JSON object")
    return doc


def _num(doc: Any, where: str) -> Fraction:
    try:
        return frac(doc)
    except (TypeError, ValueError) as e:
        raise ProblemFileError(f"{where}: {e}") from e


def _vector(doc: Any, dim: int, where: str) -> Vec:
    if not isinstance(doc, list):
        raise ProblemFileError(f"{where}: expected a list of {dim} numbers")
    if len(doc) != dim:
        raise ProblemFileError(
            f"{where}: has {len(doc)} entries, expected dimension {dim}"
        )
    return tuple(_num(x, f"{where}[{i}]") for i, x in enumerate(doc))


def _matrix(doc: Any, dim: int, where: str) -> tuple[Vec, ...]:
    if not isinstance(doc, list) or not doc:
        raise ProblemFileError(f"{where}: expected a nonempty list of vectors")
    return tuple(_vector(row, dim, f"{where}[{i}]") for i, row in enumerate(doc))


def _dimension(doc: dict) -> int:
    dim = doc.get("dimension")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
        raise ProblemFileError('"dimension" must be a positive integer')
    return dim


def build_cone(doc: dict) -> ConeGen:
    dim = _dimension(doc)
    block = doc.get("cone")
    if not isinstance(block, dict) or "generators" not in block:
        raise ProblemFileError('"cone" must be an object with "generators"')
    gens = _matrix(block["generators"], dim, '"cone"."generators"')
    return ConeGen(dim, gens)


def build_polytope(doc: dict) -> Polytope:
    dim = _dimension(doc)
    block = doc.get("H")
    if not isinstance(block, dict) or "vertices" not in block:
        raise ProblemFileError('"H" must be an object with "vertices"')
    verts = _matrix(block["vertices"], dim, '"H"."vertices"')
    return Polytope(dim, verts)


def evaluation_settings(doc: dict) -> tuple[Fraction, Fraction]:
    """(tolerance, t_max) with the package defaults filled in."""
    tol = _num(doc.get("tolerance", "1/1000000000"), '"tolerance"')
    t_max = _num(doc.get("t_max", 2**20), '"t_max"')
    if tol <= 0 or t_max <= 0:
        raise ProblemFileError('"tolerance" and "t_max" must be positive')
    return tol, t_max


def build_separation(
    doc: dict, settings: Optional[tuple[Fraction, Fraction]] = None
) -> SeparationFunctional:
    """The scalarizer of ``doc``; ``settings`` is (tol, t_max) already
    resolved by the caller, else the document's own `evaluation_settings`."""
    tol, t_max = settings or evaluation_settings(doc)
    return SeparationFunctional(
        build_polytope(doc), build_cone(doc), t_max=t_max, tol=tol
    )


def build_ranges(doc: dict) -> VPolyhedralUnion:
    dim = _dimension(doc)
    block = doc.get("ranges")
    if not isinstance(block, dict) or "pieces" not in block:
        raise ProblemFileError('"ranges" must be an object with "pieces"')
    pieces = block["pieces"]
    if not isinstance(pieces, list) or not pieces:
        raise ProblemFileError('"ranges"."pieces" must be a nonempty list')
    parsed = []
    for i, piece in enumerate(pieces):
        where = f'"ranges"."pieces"[{i}]'
        if not isinstance(piece, dict) or "vertices" not in piece:
            raise ProblemFileError(f"{where}: expected an object with vertices")
        verts = _matrix(piece["vertices"], dim, f"{where}.vertices")
        rays_doc = piece.get("rays", [])
        rays: tuple[Vec, ...] = ()
        if rays_doc:
            rays = _matrix(rays_doc, dim, f"{where}.rays")
        parsed.append((verts, rays))
    return VPolyhedralUnion(dim, tuple(parsed))


def _build_mode(doc: dict) -> tuple[Any, Optional[tuple[str, ...]]]:
    mode_doc = doc.get("mode", "plain")
    if mode_doc == "plain":
        return PlainMode(), None
    if isinstance(mode_doc, dict) and "scaled" in mode_doc:
        block = mode_doc["scaled"]
        if not isinstance(block, dict):
            raise ProblemFileError('"mode"."scaled" must be an object')
        eps = _num(block.get("epsilon"), '"mode"."scaled"."epsilon"')
        lam = _num(block.get("lambda"), '"mode"."scaled"."lambda"')
        return ScaledMode(eps, lam), None
    if isinstance(mode_doc, dict) and "efficiency" in mode_doc:
        block = mode_doc["efficiency"]
        if not isinstance(block, dict):
            raise ProblemFileError('"mode"."efficiency" must be an object')
        gamma = _num(block.get("gamma"), '"mode"."efficiency"."gamma"')
        feasible = block.get("feasible")
        if feasible is not None:
            if not isinstance(feasible, list) or not all(
                isinstance(l, str) for l in feasible
            ):
                raise ProblemFileError(
                    '"mode"."efficiency"."feasible" must be a list of labels'
                )
            feasible = tuple(feasible)
        return EfficiencyMode(gamma), feasible
    raise ProblemFileError(
        '"mode" must be "plain", {"scaled": {...}}, or {"efficiency": {...}}'
    )


def _build_space(labels: tuple[str, ...], dist_doc: list) -> FiniteMetricSpace:
    """The metric space, its distances read once by the space itself.

    A bad row or entry is located only when construction fails: the
    row-by-row parse then names the first one in row-major order, as
    `"space"."dist"[i]` or `"space"."dist"[i][j]`.  A failure with no bad
    entry (a metric axiom, a duplicate label) propagates as it is.
    """
    n = len(labels)
    try:
        if all(isinstance(row, list) and len(row) == n for row in dist_doc):
            return FiniteMetricSpace(labels, dist_doc)
    except (TypeError, ValueError):
        pass  # located below; a failure with no bad entry is raised again
    for i, row in enumerate(dist_doc):
        _vector(row, n, f'"space"."dist"[{i}]')
    return FiniteMetricSpace(labels, dist_doc)


def build_problem(doc: dict) -> EVPProblem:
    dim = _dimension(doc)
    K = build_cone(doc)
    H = build_polytope(doc)

    space_doc = doc.get("space")
    if not isinstance(space_doc, dict):
        raise ProblemFileError('"space" must be an object with labels and dist')
    labels = space_doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ProblemFileError('"space"."labels" must be a list of strings')
    dist_doc = space_doc.get("dist")
    if not isinstance(dist_doc, list) or len(dist_doc) != len(labels):
        raise ProblemFileError('"space"."dist" must be a square matrix over labels')
    space = _build_space(tuple(labels), dist_doc)

    map_doc = doc.get("map")
    if not isinstance(map_doc, dict):
        raise ProblemFileError('"map" must be an object from labels to vector lists')
    missing = [l for l in labels if l not in map_doc]
    if missing:
        raise ProblemFileError(f'"map" is missing entries for {missing}')
    entries = []
    for label in labels:
        entries.append((label, _matrix(map_doc[label], dim, f'"map"."{label}"')))
    table = SetValuedMapTable(tuple(entries))

    x0 = doc.get("x0")
    if not isinstance(x0, str):
        raise ProblemFileError('"x0" must be a label string')
    eps = _num(doc.get("epsilon"), '"epsilon"')
    mode, feasible = _build_mode(doc)

    return EVPProblem(
        space=space, f=table, K=K, H=H, x0=x0, epsilon=eps, mode=mode,
        feasible=feasible,
    )


def _vec_doc(v) -> list:
    return [to_jsonable(frac(c)) for c in v]


def certificate_to_document(
    cert: EVPCertificate, p: EVPProblem, report: VerificationReport
) -> dict:
    checks: dict = {"a": report.a, "b": report.b}
    if report.c is not None:
        checks["c"] = report.c
    if report.coradiant_gap is not None:
        checks["t66c"] = report.coradiant_gap
    return {
        "xbar": cert.xbar,
        "y0": _vec_doc(cert.y0),
        "chain": list(cert.chain),
        "xi_trace": [to_jsonable(v) for v in cert.xi_trace],
        "mode": p.mode.name,
        "checks": checks,
    }


def certificate_from_document(doc: dict, p: EVPProblem) -> EVPCertificate:
    if not isinstance(doc, dict):
        raise ProblemFileError("certificate must be a JSON object")
    for key in ("xbar", "y0", "chain", "xi_trace"):
        if key not in doc:
            raise ProblemFileError(f'certificate is missing "{key}"')
    xbar = doc["xbar"]
    if not isinstance(xbar, str) or xbar not in p.space.labels:
        raise ProblemFileError(f'certificate "xbar" {xbar!r} is not a point of the space')
    y0 = _vector(doc["y0"], p.K.dim, 'certificate "y0"')
    chain_doc = doc["chain"]
    if not isinstance(chain_doc, list) or not all(
        isinstance(l, str) for l in chain_doc
    ):
        raise ProblemFileError('certificate "chain" must be a list of labels')
    unknown = [l for l in chain_doc if l not in p.space.labels]
    if unknown:
        raise ProblemFileError(f'certificate "chain" has unknown labels {unknown}')
    trace_doc = doc["xi_trace"]
    if not isinstance(trace_doc, list):
        raise ProblemFileError('certificate "xi_trace" must be a list of numbers')
    trace = tuple(_num(v, f'certificate "xi_trace"[{i}]') for i, v in enumerate(trace_doc))
    mode_name = doc.get("mode")
    if mode_name is not None and mode_name != p.mode.name:
        raise ProblemFileError(
            f'certificate mode {mode_name!r} does not match problem mode {p.mode.name!r}'
        )
    return EVPCertificate(xbar=xbar, y0=y0, chain=tuple(chain_doc), xi_trace=trace)


def write_document(path, doc: dict) -> None:
    try:
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    except OSError as e:
        raise ProblemFileError(f"cannot write {path}: {e}") from e
