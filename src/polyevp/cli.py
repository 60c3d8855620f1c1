"""Command-line front end.

Four workflows over JSON problem files:

* ``scalarize``: evaluate the cone-separation functional at a point by
  both the exact route and the bisection cross-check, whose tolerance
  and bracket bound come from the document or ``--tol``/``--t-max``
  (`problemfile.evaluation_settings`); the exact route certifies that
  its value is attained.
* ``diagnose``: classify a ranges block on the lower-boundedness ladder.
* ``solve``: run the descent, self-verify, and write a certificate.
* ``verify``: independently re-check a certificate against its problem.

Exit codes are fixed for CI use: 0 ok, 1 verification failed, 2 bad
input, 3 internal inconsistency or error, 4 descent hypothesis
violated, 5 the solver's own certificate failed self-verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import boundedness, evp, geometry, problemfile, scalarization
from .problemfile import ProblemFileError
from .rational import frac, to_jsonable

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_HYPOTHESIS = 4
EXIT_SELF_CHECK = 5


def _vec_text(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


# ---------------------------------------------------------------------------
# single-file command bodies: (path, document, (tolerance, t_max), parsed
# arguments) -> (exit_code, output_text); `_worker` reads the middle two
# ---------------------------------------------------------------------------


def _do_scalarize(path: str, doc: dict, settings, args) -> tuple[int, str]:
    tol, t_max = settings
    sf = scalarization.SeparationFunctional(
        problemfile.build_polytope(doc), problemfile.build_cone(doc)
    )
    point_text = args.point
    try:
        y = tuple(frac(c) for c in point_text.split(","))
    except ValueError as e:
        raise ProblemFileError(f"cannot parse point {point_text!r}: {e}") from e
    if len(y) != sf.H.dim:
        raise ProblemFileError(
            f"point has {len(y)} coordinates, expected {sf.H.dim}"
        )

    phi = scalarization.evaluate(sf, y)
    bis = scalarization.evaluate_bisection(sf, y, tol, t_max)
    if bis.is_finite:
        agree = phi.is_finite and abs(phi.value - bis.value) <= tol
    else:
        # +inf is unconfirmed at t_max: bisection probed t_max itself, so
        # only phi > t_max agrees
        agree = not phi.is_finite or phi.value > t_max

    if args.json:
        payload = {
            "phi": to_jsonable(phi.value) if phi.is_finite else "+inf",
            "bisection": to_jsonable(bis.value) if bis.is_finite else "+inf",
            "bisection_unconfirmed_at_t_max": not bis.is_finite,
            "agreement": agree,
            # with compact H and closed K a finite phi is attained: `evaluate`
            # has checked that its own weights place y in phi*H - K
            "attained": True if phi.is_finite else None,
        }
        text = json.dumps(payload, sort_keys=True)
    else:
        lines = [f"phi = {phi}"]
        suffix = "" if bis.is_finite else " (unconfirmed at t_max)"
        lines.append(f"bisection = {bis}{suffix}")
        lines.append(f"agreement: {'ok' if agree else 'MISMATCH'}")
        if phi.is_finite:
            lines.append("attained: yes")
        text = "\n".join(lines)
    if not agree:
        return EXIT_INTERNAL, text + "\nexact and bisection routes disagree"
    return EXIT_OK, text


def _do_diagnose(path: str, doc: dict, settings, args) -> tuple[int, str]:
    K = problemfile.build_cone(doc)
    H = problemfile.build_polytope(doc)
    M = problemfile.build_ranges(doc)
    report = boundedness.classify(M, K, H)

    if args.json:
        payload = {
            "k_lower": report.k_lower,
            "k_lower_witness": [to_jsonable(c) for c in report.k_lower_witness]
            if report.k_lower_witness is not None
            else None,
            "quasi_k_lower": report.quasi_k_lower,
            "kstar_h_lower": report.kstar_h_lower,
            "kstar_witness": [to_jsonable(c) for c in report.kstar_witness]
            if report.kstar_witness is not None
            else None,
            "h_lower": True if report.h_lower else "unknown",
            "h_lower_witness": {
                "y0": [to_jsonable(c) for c in report.h_lower_witness[0]],
                "epsilon": to_jsonable(report.h_lower_witness[1]),
            }
            if report.h_lower_witness is not None
            else None,
            "ladder_consistent": report.ladder_consistent,
        }
        return EXIT_OK, json.dumps(payload, sort_keys=True)

    def yn(b):
        return "yes" if b else "no"

    lines = []
    w = f"  (b = {_vec_text(report.k_lower_witness)})" if report.k_lower_witness else ""
    lines.append(f"K-lower bounded: {yn(report.k_lower)}{w}")
    lines.append(f"quasi K-lower bounded: {yn(report.quasi_k_lower)}")
    w = f"  (k* = {_vec_text(report.kstar_witness)})" if report.kstar_witness else ""
    lines.append(f"k*(H)-lower bounded: {yn(report.kstar_h_lower)}{w}")
    if report.h_lower:
        y0, eps = report.h_lower_witness
        lines.append(f"H-lower bounded: yes  (y0 = {_vec_text(y0)}, eps = {eps})")
    else:
        lines.append("H-lower bounded: unknown (no candidate translate verified)")
    lines.append(f"ladder consistent: {yn(report.ladder_consistent)}")
    return EXIT_OK, "\n".join(lines)


def _do_solve(path: str, doc: dict, settings, args) -> tuple[int, str]:
    problem = problemfile.build_problem(doc)
    cert = evp.solve(problem)
    report = evp.verify_certificate(problem, cert)
    if not report.passed:
        return (
            EXIT_SELF_CHECK,
            "self-verification FAILED: " + " ".join(report.failures),
        )
    cert_doc = problemfile.certificate_to_document(cert, problem, report)
    cert_path = args.certificate
    if cert_path is None:
        p = Path(path)
        cert_path = str(p.with_name(p.stem + ".cert.json"))
    problemfile.write_document(cert_path, cert_doc)

    if args.json:
        payload = dict(cert_doc)
        payload["certificate_path"] = str(cert_path)
        return EXIT_OK, json.dumps(payload, sort_keys=True)
    lines = [
        f"xbar = {cert.xbar}",
        "chain: " + " -> ".join(cert.chain),
        "xi trace: " + " -> ".join(str(v) for v in cert.xi_trace),
        "checks: "
        + " ".join(
            f"{k}={'pass' if v else 'FAIL'}"
            for k, v in cert_doc["checks"].items()
        ),
        f"certificate written to {cert_path}",
    ]
    return EXIT_OK, "\n".join(lines)


def _do_verify(path: str, doc: dict, settings, args) -> tuple[int, str]:
    problem = problemfile.build_problem(doc)
    cert_doc = problemfile.load_document(args.certificate)
    cert = problemfile.certificate_from_document(cert_doc, problem)
    report = evp.verify_certificate(problem, cert)

    if args.json:
        payload = {
            "a": report.a,
            "b": report.b,
            "c": report.c,
            "t66c": report.coradiant_gap,
            "chain_valid": report.chain_valid,
            "trace_consistent": report.trace_consistent,
            "witness_valid": report.witness_valid,
            "passed": report.passed,
            "failures": list(report.failures),
        }
        text = json.dumps(payload, sort_keys=True)
    else:
        def mark(v):
            return "pass" if v else "FAIL"

        lines = [
            f"(a) start point dominated by xbar: {mark(report.a)}",
            f"(b) xbar strictly minimal: {mark(report.b)}",
        ]
        if report.c is not None:
            lines.append(f"(c) distance bound: {mark(report.c)}")
        if report.coradiant_gap is not None:
            lines.append(f"(t66c) coradiant escape: {mark(report.coradiant_gap)}")
        lines.append(f"chain: {mark(report.chain_valid)}")
        lines.append(f"trace: {mark(report.trace_consistent)}")
        lines.append(f"hypothesis witness: {mark(report.witness_valid)}")
        if report.failures:
            lines.append("verification FAILED: " + " ".join(report.failures))
        else:
            lines.append("verification passed")
        text = "\n".join(lines)
    return (EXIT_OK if report.passed else EXIT_VERIFY_FAILED), text


_COMMANDS = {
    "scalarize": _do_scalarize,
    "diagnose": _do_diagnose,
    "solve": _do_solve,
    "verify": _do_verify,
}


def _worker(task: tuple[str, argparse.Namespace]) -> tuple[str, int, str]:
    """(path, exit_code, output_text) for one file: load it, read its
    settings with any ``--tol``/``--t-max`` override (a malformed setting is
    bad input to every command), run the command, map errors to exit codes."""
    path, args = task
    try:
        doc = problemfile.load_document(path)
        settings = problemfile.evaluation_settings(
            doc, getattr(args, "tol", None), getattr(args, "t_max", None)
        )
        return (path, *_COMMANDS[args.command](path, doc, settings, args))
    except evp.HypothesisViolatedError as e:
        return path, EXIT_HYPOTHESIS, f"hypothesis violated: {e}"
    except (
        geometry.InternalConsistencyError,
        scalarization.BracketExhaustedError,
    ) as e:
        return path, EXIT_INTERNAL, f"internal consistency failure: {e}"
    except ValueError as e:
        # ProblemFileError, InvalidConfigurationError, DimensionMismatchError
        # and LPFormatError are all ValueErrors
        return path, EXIT_INPUT, f"input error: {e}"
    except Exception as e:
        # any other failure is a bug; report it for this file only, so a
        # batch keeps the other files' results
        return path, EXIT_INTERNAL, f"internal error: {type(e).__name__}: {e}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and each build leaves a few hundred objects in reference
    cycles that only the cyclic garbage collector frees."""
    parser = argparse.ArgumentParser(
        prog="polyevp",
        description="polyhedral scalarization, boundedness diagnostics, and "
        "certified variational descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("scalarize", help="evaluate the separation functional")
    sp.add_argument("files", nargs=1, metavar="file")
    sp.add_argument(
        "--point", required=True,
        help="comma-separated coordinates; a negative first coordinate needs "
        "the = form, --point=-3,1 (--point -3,1 reads as a missing value)",
    )
    sp.add_argument("--tol", default=None, help="tolerance override")
    sp.add_argument("--t-max", dest="t_max", default=None,
                    help="bisection bracket bound override")
    common(sp)

    sp = sub.add_parser("diagnose", help="lower-boundedness ladder for a ranges block")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--batch", action="store_true", help="run files concurrently")
    common(sp)

    sp = sub.add_parser("solve", help="run the descent and write a certificate")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--certificate", default=None, help="certificate output path")
    sp.add_argument("--batch", action="store_true", help="run files concurrently")
    common(sp)

    sp = sub.add_parser("verify", help="re-check a certificate")
    sp.add_argument("files", nargs=1, metavar="file")
    sp.add_argument("certificate")
    common(sp)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # only diagnose and solve take several files, and only they have --batch
    files = args.files
    if len(files) > 1 and getattr(args, "certificate", None) is not None:
        print("input error: --certificate needs a single input file")
        return EXIT_INPUT
    if len(files) > 1 and not args.batch:
        print("input error: multiple files need --batch")
        return EXIT_INPUT

    tasks = [(f, args) for f in files]
    if len(tasks) > 1 and args.batch:
        # imported here: the process pool and multiprocessing are about a
        # fifth of the package's import time, and only a batch needs them
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(tasks), os.cpu_count() or 2, 8)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [_worker(t) for t in tasks]

    worst = EXIT_OK
    for path, code, text in results:
        if len(results) > 1:
            print(f"=== {path} ===")
        print(text)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
