"""Command-line surface.

Exit codes: 0 all checks pass / Equivalent / Irreducible; 1 a check failed /
Inequivalent / Reducible; 2 inconclusive; 3 input error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

from . import constructors, ulrich
from .clifford import (det_factorization, equivalence_test,
                       irreducibility_check, specialize_rep, verify_relation)
from .documents import (dumps_document, load_factors_document,
                        load_mf_document, load_pencil_document,
                        pencil_document, read_json, read_pencil, save_pencil)
from .errors import CliffrepError, InputError
from .fields import parse_field
from .parsing import parse_poly
from .poly import PolyRing
from .reports import FAIL, INCONCLUSIVE, PASS, Report

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT = 0, 1, 2, 3


def _emit(report: Report, as_json: bool) -> int:
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return report.exit_code


def _ring_args(parser: argparse.ArgumentParser):
    parser.add_argument("--field", default="QQ", help="QQ or GF(p)")
    parser.add_argument("--fiber-vars", type=int, default=2,
                        help="number of fiber variables y0..yn")
    parser.add_argument("--base-vars", type=int, default=0,
                        help="number of base variables t1..tm")


def _build_ring(args) -> PolyRing:
    return PolyRing(parse_field(args.field), args.base_vars, args.fiber_vars)


def cmd_verify(args) -> int:
    rep, digest = read_pencil(args.pencil)
    report = Report(subject=f"verify {os.path.basename(args.pencil)}",
                    input_digest=digest)
    start = time.perf_counter()
    cert = verify_relation(rep)
    report.add("clifford-relation", PASS if cert.passed else FAIL,
               {"detail": cert.describe()},
               timing_ms=(time.perf_counter() - start) * 1000.0)
    return _emit(report.finalize(), args.json)


def cmd_det(args) -> int:
    rep, digest = read_pencil(args.pencil)
    report = Report(subject=f"det {os.path.basename(args.pencil)}",
                    input_digest=digest)
    verify_relation(rep)
    start = time.perf_counter()
    try:
        result = det_factorization(rep, force=args.force)
        report.add("determinant-factorization", PASS,
                   {"unit": str(result.unit), "exponent": result.exponent},
                   timing_ms=(time.perf_counter() - start) * 1000.0)
    except CliffrepError as exc:
        report.add("determinant-factorization", FAIL, {"error": str(exc)})
    return _emit(report.finalize(), args.json)


def cmd_equiv(args) -> int:
    rep1, digest1 = read_pencil(args.pencil1)
    rep2, digest2 = read_pencil(args.pencil2)
    verify_relation(rep1)
    verify_relation(rep2)
    start = time.perf_counter()
    result = equivalence_test(rep1, rep2, seed=args.seed, trials=args.budget,
                              max_base_degree=args.max_degree)
    report = Report(subject="equivalence", seed=args.seed,
                    input_digest=f"{digest1},{digest2}",
                    budgets={"trials": args.budget,
                             "max_base_degree": args.max_degree})
    status = {"equivalent": PASS, "inequivalent": FAIL,
              "inconclusive": INCONCLUSIVE}[result.verdict]
    witness = {"verdict": result.verdict, "intertwiner_dims": list(result.dims),
               "reason": result.reason}
    if result.theta is not None:
        witness["theta"] = [[str(e) for e in row] for row in result.theta]
    report.add("equivalence", status, witness,
               timing_ms=(time.perf_counter() - start) * 1000.0)
    return _emit(report.finalize(), args.json)


def cmd_irreducible(args) -> int:
    rep, digest = read_pencil(args.pencil)
    verify_relation(rep)
    start = time.perf_counter()
    result = irreducibility_check(rep, seed=args.seed,
                                  vector_trials=args.budget)
    report = Report(subject=f"irreducible {os.path.basename(args.pencil)}",
                    seed=args.seed, input_digest=digest,
                    budgets={"vector_trials": args.budget})
    status = {"irreducible": PASS, "reducible": FAIL,
              "inconclusive": INCONCLUSIVE}[result.verdict]
    witness = {"verdict": result.verdict, "algebra_dim": result.algebra_dim,
               "detail": result.detail}
    if result.subspace:
        witness["invariant_subspace"] = [[str(x) for x in vec]
                                         for vec in result.subspace]
    report.add("irreducibility", status, witness,
               timing_ms=(time.perf_counter() - start) * 1000.0)
    return _emit(report.finalize(), args.json)


def _parse_assignment(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"bad assignment {chunk!r}; expected name=value")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name in out:
            raise InputError(f"{name!r} is assigned twice")
        out[name] = value.strip()
    if not out:
        raise InputError("empty assignment")
    return out


def cmd_specialize(args) -> int:
    rep, _ = read_pencil(args.pencil)
    assignment = {name: rep.ring.field.of(value)
                  for name, value in _parse_assignment(args.at).items()}
    fiber = specialize_rep(rep, assignment)
    doc = dumps_document(pencil_document(fiber))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(doc)
    else:
        sys.stdout.write(doc)
    return EXIT_PASS


def cmd_ulrich_check(args) -> int:
    config = ulrich.CertificateConfig(max_degree=args.max_degree,
                                      sample_prime=args.prime, seed=args.seed)
    if args.corpus is not None:
        return _corpus(args, config)
    rep, digest = read_pencil(args.pencil)
    cert = ulrich.ulrich_certificate(rep, config)
    cert.report.input_digest = digest
    return _emit(cert.report, args.json)


def _corpus(args, config) -> int:
    rows = []
    worst = EXIT_PASS
    for name in sorted(os.listdir(args.corpus)):
        if not name.endswith(".pencil"):
            continue
        label = name
        try:
            doc, _ = read_json(os.path.join(args.corpus, name))
            meta = doc.get("metadata") if isinstance(doc, dict) else None
            label = meta.get("label", name) if isinstance(meta, dict) else name
            cert = ulrich.ulrich_certificate(load_pencil_document(doc), config)
        except (CliffrepError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            rows.append([label, f"error: {exc}", "", "", "", "", ""])
            worst = max(worst, EXIT_FAIL)
            continue
        by_name = {r.name: r.status for r in cert.report.records}
        rows.append([
            label, cert.report.verdict, cert.size, cert.degree,
            cert.clifford_index,  # csv writes None as an empty field
            by_name.get("hilbert-function", "skipped"),
            by_name.get("corank-sampling", "skipped"),
        ])
        worst = max(worst, cert.report.exit_code)
    writer = csv.writer(sys.stdout)
    writer.writerow(["label", "verdict", "t", "d", "r", "hilbert-ok", "corank-ok"])
    writer.writerows(rows)
    return worst


def cmd_cohomology(args) -> int:
    if args.n < 2:
        raise InputError("need ambient dimension n >= 2")
    twists = [args.j] if args.j is not None else list(range(1, args.n))
    report = Report(subject=f"cohomology n={args.n} d={args.d}")
    all_zero = True
    lines = []
    for j in twists:
        table = ulrich.hypersurface_twist_cohomology(args.n, args.d, j)
        nonzero = {i: h for i, h in table if h}
        all_zero = all_zero and not nonzero
        report.add(f"twist j={j}", PASS if not nonzero or not args.assert_ulrich
                   else FAIL,
                   {"h": {str(i): h for i, h in table}})
        lines.append((j, table))
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["j"] + [f"h{i}" for i in range(args.n)])
        for j, table in lines:
            writer.writerow([j] + [h for _, h in table])
    elif not args.json:
        header = "  j | " + " ".join(f"h{i:<4d}" for i in range(args.n))
        print(header)
        print("  " + "-" * (len(header) - 2))
        for j, table in lines:
            print(f"  {j} | " + " ".join(f"{h:<5d}" for _, h in table))
        print(f"  all twists cohomology-free: {all_zero} (degree d=1 iff yes)")
    report.finalize()
    if args.json:
        sys.stdout.write(report.to_json())
    return report.exit_code


def cmd_search(args) -> int:
    ring = _build_ring(args)
    f = parse_poly(args.f, ring)
    hits = constructors.random_search(ring, f, args.d, args.t,
                                      seed=args.seed, budget=args.budget)
    report = Report(subject=f"search d={args.d} t={args.t} over {ring.field.name}",
                    seed=args.seed, budgets={"budget": args.budget})
    for k, hit in enumerate(hits):
        label = f"hit{k}"
        report.add(label, PASS,
                   {"sample_index": hit.sample_index, "count": hit.count,
                    "maybe_duplicate": hit.maybe_duplicate})
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            save_pencil(hit.rep, os.path.join(args.out_dir, f"{label}.pencil"),
                        metadata={"label": label, "seed": args.seed,
                                  "provenance": "random_search"})
    if not hits:
        report.add("search", INCONCLUSIVE,
                   {"budget": args.budget,
                    "reason": f"no representation among {args.budget} seeded "
                              "samples; a random sample proves nothing about "
                              "absence"})
    return _emit(report.finalize(), args.json)


# the option each construct kind needs; clock-shift takes --roots or --f
_CONSTRUCT_NEEDS = {"hyperplane": "f", "gamma": "coeffs", "block-mf": "input",
                    "cyclic": "input"}


def cmd_construct(args) -> int:
    need = _CONSTRUCT_NEEDS.get(args.kind)
    if need and getattr(args, need) is None:
        raise InputError(f"construct {args.kind} needs --{need}")
    if args.kind == "hyperplane":
        ring = _build_ring(args)
        rep = constructors.hyperplane_rep(parse_poly(args.f, ring))
    elif args.kind == "clock-shift":
        ring = _build_ring(args)
        if args.roots:
            roots = [ring.field.of(r.strip()) for r in args.roots.split(",")]
        elif args.f:
            roots = constructors.split_binary_roots(parse_poly(args.f, ring))
        else:
            raise InputError("clock-shift needs --roots or --f")
        form = constructors.SplitBinaryForm.from_roots(ring, roots)
        rep = constructors.clock_shift_rep(form)
    elif args.kind == "gamma":
        coeffs = [c.strip() for c in args.coeffs.split(",")]
        ring = PolyRing(parse_field(args.field), args.base_vars, len(coeffs))
        rep = constructors.gamma_quadric_rep(ring, coeffs)
    elif args.kind == "block-mf":
        doc, _ = read_json(args.input)
        rep = constructors.block_from_mf(load_mf_document(doc))
    else:  # cyclic, the last of the kinds argparse accepts
        doc, _ = read_json(args.input)
        rep = constructors.cyclic_block_rep(*load_factors_document(doc))
    report = Report(subject=f"construct {args.kind}")
    report.add("clifford-relation", PASS,
               {"t": rep.size, "d": rep.d, "r": rep.clifford_index,
                "notes": list(rep.notes)})
    if args.output:
        save_pencil(rep, args.output, metadata={"label": args.kind})
        report.add("written", PASS, {"path": args.output})
    else:
        sys.stdout.write(dumps_document(pencil_document(rep)))
    return _emit(report.finalize(), args.json)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once per process, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cliffrep",
        description="Exact verification and construction of linear Clifford "
                    "representations and Ulrich-type certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    json_only, json_seed = [as_json], [as_json, seeded]

    p = sub.add_parser("verify", parents=json_only,
                       help="check M(y)^d = f*I for a pencil file")
    p.add_argument("pencil")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("det", parents=json_only, help="factor det M(y) as unit * f^r")
    p.add_argument("pencil")
    p.add_argument("--force", action="store_true",
                   help="factor even if the relation fails")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("equiv", parents=json_seed,
                       help="test two pencils for equivalence")
    p.add_argument("pencil1")
    p.add_argument("pencil2")
    p.add_argument("--budget", type=int, default=64,
                   help="random invertibility trials")
    p.add_argument("--max-degree", type=int, default=2,
                   help="base-variable degree bound for theta")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("irreducible", parents=json_seed,
                       help="irreducibility / invariant subspaces")
    p.add_argument("pencil")
    p.add_argument("--budget", type=int, default=24,
                   help="random spin vectors to try")
    p.set_defaults(fn=cmd_irreducible)

    p = sub.add_parser("ulrich-check", parents=json_seed,
                       help="full certificate for a pencil file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("pencil", nargs="?")
    source.add_argument("--corpus",
                        help="directory of .pencil files; emits summary CSV")
    p.add_argument("--prime", type=int, default=101,
                   help="sampling prime for rational pencils")
    p.add_argument("--max-degree", type=int, default=6,
                   help="Hilbert function degree cap")
    p.set_defaults(fn=cmd_ulrich_check)

    p = sub.add_parser("specialize", help="evaluate base variables at scalars")
    p.add_argument("pencil")
    p.add_argument("--at", required=True, help="e.g. t1=5,t2=1/2")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_specialize)

    p = sub.add_parser("cohomology", parents=json_only,
                       help="twisted structure-sheaf cohomology tables")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--d", type=int, required=True, help="hypersurface degree")
    p.add_argument("--j", type=int, help="single twist; default all 1..n-1")
    p.add_argument("--assert-ulrich", action="store_true",
                   help="exit 1 unless every table is zero")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("search", parents=json_seed,
                       help="random search for representations over GF(p)")
    _ring_args(p)
    p.add_argument("--f", required=True, help="target form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("construct", parents=json_only, help="canonical constructions")
    p.add_argument("kind", choices=["hyperplane", "clock-shift", "gamma",
                                    "block-mf", "cyclic"])
    _ring_args(p)
    p.add_argument("--f", help="form (hyperplane, clock-shift via its roots)")
    p.add_argument("--roots", help="comma-separated roots for clock-shift")
    p.add_argument("--coeffs", help="comma-separated diagonal coefficients for gamma")
    p.add_argument("--input", help="JSON document for block-mf / cyclic")
    p.add_argument("-o", "--output", help="write the pencil file here")
    p.set_defaults(fn=cmd_construct)
    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliffrepError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
