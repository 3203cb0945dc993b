"""Command-line front end: counts, bases, verification, operator checks.

stdout carries exactly one report per invocation (JSON or a stable text
rendering); diagnostics and errors go to stderr.  Exit status: 0 all checks
passed, 1 a check failed, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from math import comb

from .constructors import KINDS, count
from .equations import count_eq_unknowns
from .operators import (
    build_symmetry_operator,
    check_symmetry,
    conformal_symmetry_operator,
    kgf,
)
from .solver import AnsatzSpec, full_rank_check, solve_basis, verify_basis
from .tensors import Basis, Signature


class ConfigError(Exception):
    pass


# The default of --max-unknowns, op-check's cap on the unknowns of one
# element's operator completion, and prolong-rank's cap on the equations and
# the unknowns of its system.  The largest ansatz of the paper's tables
# (p + q <= 4), conformal j = 4 on m = 4, has 17 325 unknowns; ordinary
# j = 4 on m = 12 has 2 484 300 and, unchecked, ran for more than 15 s
# before it had built its monomial list.
MAX_UNKNOWNS = 20_000


def _signature(args) -> Signature:
    if args.m is not None:
        if args.p is not None or args.q is not None:
            raise ConfigError("--m is a shorthand for --p N --q 0; do not mix")
        p, q = args.m, 0
    else:
        p = args.p if args.p is not None else 0
        q = args.q if args.q is not None else 0
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise ConfigError(f"{exc}: need p, q >= 0 and p + q >= 1 (use --p/--q or --m)")


# Encoder chunks joined into one write.  The pure-Python encoder yields a
# few bytes per chunk, so a write is about 9 KB, and no report is held whole:
# whole, the 3.4 MB conformal j=3 (1,3) basis took `basis` from 27 to 49 MiB.
_BATCH = 1024


def _report(args, payload: dict | None, lines):
    """The report in order, as pieces to write: the JSON document (the bytes
    of `json.dumps(payload, indent=2)` and a newline) or each text line."""
    if args.format == "text":
        for line in lines:
            yield line + "\n"
        return
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, _BATCH)):
        yield batch
    yield "\n"


def _emit(args, payload: dict | None, lines) -> None:
    """Write the report to --output or stdout; `payload` is the JSON report
    and `lines` the text one.  A failed write is a ConfigError."""
    pieces = _report(args, payload, lines)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                for piece in pieces:
                    fh.write(piece)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {args.output!r}: {exc}")
        return
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except OSError as exc:
        # What is still buffered would fail again when the interpreter flushes
        # stdout at exit, with a second report; it goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ConfigError(f"cannot write report to stdout: {exc}")


def _add_max_unknowns(sub):
    sub.add_argument(
        "--max-unknowns", type=int, default=MAX_UNKNOWNS,
        help=f"refuse an ansatz with more unknowns than this (default {MAX_UNKNOWNS})",
    )


def _add_common(sub, signature=True):
    if signature:
        sub.add_argument("--p", type=int, default=None, help="number of +1 metric entries")
        sub.add_argument("--q", type=int, default=None, help="number of -1 metric entries")
        sub.add_argument("--m", type=int, default=None, help="Euclidean shorthand: p=m, q=0")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--output", default=None, help="write the report to this path")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktk",
        description="Exact Killing-tensor bases and wave-operator symmetries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("count", help="closed-form family dimension")
    c.add_argument("--kind", choices=KINDS, required=True)
    c.add_argument("--rank", type=int, required=True, help="tensor rank j / operator order n")
    c.add_argument("--order", type=int, default=1, help="order s of the defining system")
    c.add_argument("--solve", action="store_true", help="also run the solver and compare")
    c.add_argument("--max-degree", type=int, default=None)
    _add_max_unknowns(c)
    _add_common(c)

    b = subs.add_parser("basis", help="solve for a complete basis, emit Basis JSON")
    b.add_argument("--kind", choices=("ordinary", "conformal"), required=True)
    b.add_argument("--rank", type=int, required=True)
    b.add_argument("--order", type=int, default=1)
    b.add_argument("--max-degree", type=int, default=None)
    _add_max_unknowns(b)
    _add_common(b)

    v = subs.add_parser("verify", help="re-check residuals/independence of a Basis JSON")
    v.add_argument("path", help="Basis JSON file")
    _add_common(v, signature=False)

    o = subs.add_parser("op-check", help="build symmetry operators from a basis file")
    o.add_argument("path", help="Basis JSON file")
    o.add_argument("--kappa2", default="0", help="mass-squared parameter, a rational like 3/7")
    _add_common(o, signature=False)

    r = subs.add_parser("prolong-rank", help="rank report for one prolonged system")
    r.add_argument("--rank", type=int, required=True, help="tensor rank j")
    r.add_argument("--k", type=int, required=True, help="prolongation rank k")
    r.add_argument("--order", type=int, default=1)
    _add_common(r)

    return parser


def _solve(args, sig: Signature) -> Basis:
    """`solve_basis` for the command's ansatz, refused before assembly when it
    has more unknowns than --max-unknowns."""
    try:
        spec = AnsatzSpec(args.kind, args.rank, args.order, sig, args.max_degree)
        # len(unknown_labels(j, m, degree)): rank-j indices times monomials
        unknowns = comb(spec.j + sig.m - 1, spec.j) * comb(spec.resolved_degree() + sig.m, sig.m)
        if unknowns > args.max_unknowns:
            raise ConfigError(
                f"the ansatz has {unknowns} unknowns, more than the cap of "
                f"{args.max_unknowns}; raise it with --max-unknowns"
            )
        return solve_basis(spec)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _run_count(args) -> int:
    sig = _signature(args)
    try:
        value = count(args.kind, sig.m, args.rank, args.order)
    except ValueError as exc:
        raise ConfigError(str(exc))
    payload = {
        "kind": args.kind,
        "m": sig.m,
        "j": args.rank,
        "s": args.order,
        "count": value,
    }
    lines = [f"count[{args.kind}, m={sig.m}, j={args.rank}, s={args.order}] = {value}"]
    status = 0
    if args.solve:
        if args.kind not in ("ordinary", "conformal"):
            raise ConfigError("--solve applies to ordinary/conformal kinds only")
        basis = _solve(args, sig)
        payload["solved"] = len(basis)
        payload["match"] = len(basis) == value
        lines.append(f"solver dimension = {len(basis)}")
        lines.append("match" if payload["match"] else "MISMATCH")
        if not payload["match"]:
            status = 1
    _emit(args, payload, lines)
    return status


def _run_basis(args) -> int:
    sig = _signature(args)
    basis = _solve(args, sig)
    header = (
        f"{basis.kind} basis: j={basis.j} s={basis.s} signature=({sig.p},{sig.q}) "
        f"degree<={basis.degree_bound}: {len(basis)} elements"
    )
    # a readable listing is still JSON per element, one per line
    elements = (json.dumps(el.to_json()) for el in basis.elements)
    payload = basis.to_json() if args.format == "json" else None
    _emit(args, payload, chain([header], elements))
    return 0


def _load_basis(path: str) -> Basis:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return Basis.from_json(data)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: `json.load` on arrays or objects nested too deep
        raise ConfigError(f"cannot load basis file {path!r}: {exc}")


def _run_verify(args) -> int:
    # Reading and checking a basis make no reference cycles, and most of what
    # they make lives to the end, so the cyclic collector would only trace it
    # again and again: about a quarter of reading and checking the 3.4 MB
    # conformal j=3 file (2 vCPUs, Python 3.11.7).  It is paused for the
    # command and then put back as it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        basis = _load_basis(args.path)
        problems = verify_basis(basis)
    finally:
        if collecting:
            gc.enable()
    payload = {
        "kind": basis.kind,
        "j": basis.j,
        "s": basis.s,
        "signature": [basis.signature.p, basis.signature.q],
        "count": len(basis),
        "ok": not problems,
        "problems": problems,
    }
    lines = [f"{len(basis)} elements: " + ("all checks passed" if not problems else "FAILED")]
    lines.extend(problems)
    _emit(args, payload, lines)
    for p in problems:
        print(p, file=sys.stderr)
    return 0 if not problems else 1


def _run_op_check(args) -> int:
    basis = _load_basis(args.path)
    if basis.s != 1:
        raise ConfigError(
            f"op-check builds operators from order-1 fields; the basis has s={basis.s}"
        )
    try:
        kappa2 = Fraction(args.kappa2)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--kappa2 must be rational, got {args.kappa2!r}")
    m = basis.signature.m
    for n, F in enumerate(basis.elements):
        if F.rank != basis.j or F.signature != basis.signature:
            raise ConfigError(f"element {n}: rank/signature mismatch")
        if basis.kind == "conformal":
            # Units x^alpha d^beta with |beta| < rank and |alpha| <= D bound what F's
            # completion builds: a lead term has weight <= D - rank, so a unit of a
            # grade its remainder reaches has |alpha| <= D - 1 (D at rank 0).
            units = comb(max(F.rank, 1) - 1 + m, m) * comb(max(F.max_degree(), 0) + m, m)
            if units > MAX_UNKNOWNS:
                raise ConfigError(
                    f"element {n}: its operator completion has {units} unknowns, "
                    f"more than the cap of {MAX_UNKNOWNS}"
                )
    L = kgf(basis.signature, kappa2)
    build = (
        build_symmetry_operator if basis.kind == "ordinary" else conformal_symmetry_operator
    )
    results = []
    ok = True
    for n, F in enumerate(basis.elements):
        try:
            Q = build(F)
        except ValueError as exc:
            raise ConfigError(f"element {n}: {exc}")
        rep = check_symmetry(Q, L)
        ok = ok and rep.is_symmetry
        results.append(
            {
                "element": n,
                "is_symmetry": rep.is_symmetry,
                "alpha": rep.alpha.to_json(),
            }
        )
    payload = {
        "kind": basis.kind,
        "kappa2": str(kappa2),
        "count": len(basis),
        "all_pass": ok,
        "results": results,
    }
    lines = [
        f"element {r['element']}: "
        + ("symmetry" if r["is_symmetry"] else "NOT a symmetry")
        for r in results
    ]
    lines.append("all pass" if ok else "FAILED")
    _emit(args, payload, lines)
    return 0 if ok else 1


def _run_prolong_rank(args) -> int:
    sig = _signature(args)
    if args.rank < 0 or args.k < 0 or args.order < 1:
        raise ConfigError("need rank >= 0, k >= 0, order >= 1")
    n_e, n_u = count_eq_unknowns(args.rank, args.k, args.order, sig.m)
    if max(n_e, n_u) > MAX_UNKNOWNS:
        raise ConfigError(
            f"the prolonged system has N_e = {n_e} equations and N_u = {n_u} unknowns, "
            f"more than the cap of {MAX_UNKNOWNS}"
        )
    report = full_rank_check(args.rank, args.k, args.order, sig)
    payload = report.to_json()
    text = (
        f"prolonged system j={args.rank} k={args.k} s={args.order} "
        f"signature=({sig.p},{sig.q}): {report.n_e} equations, {report.n_u} unknowns, "
        f"rank {report.rank} ({'full' if report.full_row_rank else 'NOT full'} row rank)"
    )
    _emit(args, payload, [text])
    return 0 if report.full_row_rank else 1


_RUNNERS = {
    "count": _run_count,
    "basis": _run_basis,
    "verify": _run_verify,
    "op-check": _run_op_check,
    "prolong-rank": _run_prolong_rank,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ConfigError as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
