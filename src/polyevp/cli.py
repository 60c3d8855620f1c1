"""Command-line front end.

Four workflows over JSON problem files:

* ``scalarize``: evaluate the cone-separation functional at a point by
  both the exact route and the bisection cross-check, whose tolerance
  and bracket bound come from the document or ``--tol``/``--t-max``
  (`problemfile.evaluation_settings`), and check that the exact value
  is attained.
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
# single-file command bodies; each returns (exit_code, output_text)
# ---------------------------------------------------------------------------


def _do_scalarize(path: str, opts: dict) -> tuple[int, str]:
    doc = problemfile.load_document(path)
    tol, t_max = problemfile.evaluation_settings(doc, opts["tol"], opts["t_max"])
    sf = scalarization.SeparationFunctional(
        problemfile.build_polytope(doc), problemfile.build_cone(doc)
    )
    point_text = opts["point"]
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
    attained = None
    if phi.is_finite:
        # with compact H and closed K the infimum is attained, so a "no"
        # here is a bug detector rather than a legitimate outcome
        attained = geometry.scaled_H_minus_K_contains(sf.H, sf.K, y, phi.value)

    if opts.get("json"):
        payload = {
            "phi": to_jsonable(phi.value) if phi.is_finite else "+inf",
            "bisection": to_jsonable(bis.value) if bis.is_finite else "+inf",
            "bisection_unconfirmed_at_t_max": not bis.is_finite,
            "agreement": agree,
            "attained": attained,
        }
        text = json.dumps(payload, sort_keys=True)
    else:
        lines = [f"phi = {phi}"]
        suffix = "" if bis.is_finite else " (unconfirmed at t_max)"
        lines.append(f"bisection = {bis}{suffix}")
        lines.append(f"agreement: {'ok' if agree else 'MISMATCH'}")
        if attained is not None:
            lines.append(f"attained: {'yes' if attained else 'NO'}")
        text = "\n".join(lines)
    if not agree:
        return EXIT_INTERNAL, text + "\nexact and bisection routes disagree"
    return EXIT_OK, text


def _do_diagnose(path: str, opts: dict) -> tuple[int, str]:
    doc = problemfile.load_document(path)
    problemfile.evaluation_settings(doc)  # a malformed setting is bad input
    K = problemfile.build_cone(doc)
    H = problemfile.build_polytope(doc)
    M = problemfile.build_ranges(doc)
    report = boundedness.classify(M, K, H)

    if opts.get("json"):
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


def _do_solve(path: str, opts: dict) -> tuple[int, str]:
    doc = problemfile.load_document(path)
    problemfile.evaluation_settings(doc)  # a malformed setting is bad input
    problem = problemfile.build_problem(doc)
    cert = evp.solve(problem)
    report = evp.verify_certificate(problem, cert)
    if not report.passed:
        return (
            EXIT_SELF_CHECK,
            "self-verification FAILED: " + " ".join(report.failures),
        )
    cert_doc = problemfile.certificate_to_document(cert, problem, report)
    cert_path = opts.get("certificate")
    if cert_path is None:
        p = Path(path)
        cert_path = str(p.with_name(p.stem + ".cert.json"))
    problemfile.write_document(cert_path, cert_doc)

    if opts.get("json"):
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


def _do_verify(path: str, opts: dict) -> tuple[int, str]:
    doc = problemfile.load_document(path)
    problemfile.evaluation_settings(doc)  # a malformed setting is bad input
    problem = problemfile.build_problem(doc)
    cert_doc = problemfile.load_document(opts["certificate"])
    cert = problemfile.certificate_from_document(cert_doc, problem)
    report = evp.verify_certificate(problem, cert)

    if opts.get("json"):
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


def _guarded(command: str, path: str, opts: dict) -> tuple[int, str]:
    try:
        return _COMMANDS[command](path, opts)
    except evp.HypothesisViolatedError as e:
        return EXIT_HYPOTHESIS, f"hypothesis violated: {e}"
    except (
        scalarization.InternalConsistencyError,
        scalarization.BracketExhaustedError,
    ) as e:
        return EXIT_INTERNAL, f"internal consistency failure: {e}"
    except ValueError as e:
        # ProblemFileError, InvalidConfigurationError, DimensionMismatchError
        # and LPFormatError are all ValueErrors
        return EXIT_INPUT, f"input error: {e}"
    except Exception as e:
        # any other failure is a bug; report it for this file only, so a
        # batch keeps the other files' results
        return EXIT_INTERNAL, f"internal error: {type(e).__name__}: {e}"


def _worker(task: tuple[str, str, dict]) -> tuple[str, int, str]:
    command, path, opts = task
    code, text = _guarded(command, path, opts)
    return path, code, text


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
    opts = {"json": args.json}

    if args.command == "scalarize":
        opts.update(point=args.point, tol=args.tol, t_max=args.t_max)
    elif args.command in ("solve", "verify"):
        opts["certificate"] = args.certificate

    # only diagnose and solve take several files, and only they have --batch
    files = args.files
    if len(files) > 1 and opts.get("certificate") is not None:
        print("input error: --certificate needs a single input file")
        return EXIT_INPUT
    if len(files) > 1 and not args.batch:
        print("input error: multiple files need --batch")
        return EXIT_INPUT

    tasks = [(args.command, f, opts) for f in files]
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
