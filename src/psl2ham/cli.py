"""Command-line surface: argument parsing, output and exit codes for
instance discovery, graph construction, certificate emission and
independent verification.

Each command that takes --k checks it, factors it as s^m and builds the
one `Field` the rest of the run works from.  `full-graph` emits the
`hamilton` certificate of Y(min S), a subgraph of the union of the chosen
orbital graphs.

Exit codes: 0 success, 2 parameter error, 3 invariant violation (stderr
names the stage that raised it), 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from .diag import solvability_report
from .errors import InvariantViolation, ParameterError
from .gf import Field, admissible, factor_prime_power, list_instances
from .orbital import build_graph, export_chunks
from .quotient import (QuotientMultigraph, build_quotient, certificate_to_text,
                       parse_certificate, run_pipeline, verify_certificate)

DESK_SCALE_MAX_K = 5000
# trial division up to sqrt(k) is then at most 2^16 steps, and no larger
# field could be tabulated anyway
MAX_K = 2**32
# instances tests every k with 10 | k-1 up to --max-k by trial division:
# about 0.7 s at 10^6 and 15 s at 10^7
INSTANCES_MAX_K = 10**6


def _add_instance_args(sp):
    sp.add_argument("--k", type=int, required=True, help="field order s^m")
    sp.add_argument("--out", default=None)


def _resolve_params(args) -> tuple[int, int]:
    """The checked (s, m) of --k."""
    if args.k > MAX_K:
        raise ParameterError(f"k = {args.k} exceeds the limit {MAX_K}")
    s, m = factor_prime_power(args.k)
    if not admissible(args.k):
        raise ParameterError(
            f"k = {args.k} is not admissible: need 10 | k-1 and (k+1)/2 prime")
    return s, m


def _write_out(chunks, out: str | None):
    """Write an iterable of text chunks; pass a whole text as [text]."""
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


def _parse_subset(text: str) -> list[int]:
    """The sorted distinct orbital indices of a comma-separated list."""
    try:
        subset = sorted({int(x) for x in text.split(",") if x.strip() != ""})
    except ValueError:
        raise ParameterError(f"malformed orbital subset {text!r}")
    if not subset:
        raise ParameterError("orbital subset must be nonempty")
    if any(not 0 <= i <= 4 for i in subset):
        raise ParameterError("orbital indices must lie in 0..4")
    return subset


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psl2ham",
        description="Hamilton cycle certificates for orbital graphs of "
                    "PSL(2,k) on 5(k+1) points")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("instances", help="list admissible parameters")
    sp.add_argument("--max-k", type=int, default=130)

    sp = sub.add_parser("build", help="build one orbital graph and export it")
    _add_instance_args(sp)
    sp.add_argument("--orbital", type=int, default=0)
    sp.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")

    sp = sub.add_parser("quotient", help="print the quotient multigraph")
    _add_instance_args(sp)
    sp.add_argument("--orbital", type=int, default=0)

    sp = sub.add_parser("hamilton", help="emit a verified Hamilton certificate")
    _add_instance_args(sp)
    sp.add_argument("--orbital", type=int, default=0)

    sp = sub.add_parser("verify", help="re-verify a certificate file")
    sp.add_argument("--cert", required=True)

    sp = sub.add_parser("weil-report", help="solvability table for one field")
    _add_instance_args(sp)

    sp = sub.add_parser("full-graph",
                        help="certificate for a union of orbital graphs")
    _add_instance_args(sp)
    sp.add_argument("--orbitals", default="0,1,2,3,4",
                    help="comma-separated orbital indices")
    return ap


def _quotient_text(q: QuotientMultigraph) -> str:
    lines = [f"orbital {q.orbital_index}  p {q.p}", "multiplicities:"]
    lines += ("  " + " ".join(f"{d:3d}" for d in row) for row in q.mult)
    lines.append("voltages:")
    lines += (f"  {a} {b}: " + ",".join(map(str, vs))
              for a, row in enumerate(q.voltages) for b, vs in enumerate(row) if vs)
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "instances":
            if args.max_k > INSTANCES_MAX_K:
                raise ParameterError(
                    f"--max-k {args.max_k} exceeds the limit "
                    f"{INSTANCES_MAX_K} of instances")
            for s, m in list_instances(args.max_k):
                k = s**m
                print(f"k={k} s={s} m={m} p={(k + 1) // 2}")
            return 0

        if args.command == "build":
            s, m = _resolve_params(args)
            if args.k > DESK_SCALE_MAX_K:  # k^2 time and output lines
                raise ParameterError(
                    f"k = {args.k} exceeds the desk-scale guard "
                    f"{DESK_SCALE_MAX_K} of build")
            field = Field(s, m)
            cls = build_graph(field, args.orbital)  # every check runs here
            _write_out(export_chunks(field, args.orbital, cls, args.format),
                       args.out)
            return 0

        if args.command == "quotient":
            quot = build_quotient(Field(*_resolve_params(args)), args.orbital)
            _write_out([_quotient_text(quot)], args.out)
            return 0

        if args.command in ("hamilton", "full-graph"):
            field = Field(*_resolve_params(args))
            union = args.command == "full-graph"
            subset = _parse_subset(args.orbitals) if union else [args.orbital]
            # the pipeline verifies every cycle edge in Y(min S), inside the union
            cert = run_pipeline(field, subset[0])
            _write_out([certificate_to_text(cert)], args.out)
            if args.out not in (None, "-"):
                where = (f"inside the union of orbitals {subset}" if union else
                         f"(orbital {subset[0]}, total voltage "
                         f"{cert.total_voltage} mod {cert.p})")
                print(f"verified Hamilton cycle on {len(cert.vertices)} "
                      f"vertices {where}")
            return 0

        if args.command == "verify":
            with open(args.cert) as fh:
                cert = parse_certificate(fh.read())
            failure = verify_certificate(cert)
            if failure is None:
                print(f"certificate OK: {len(cert.vertices)} vertices, "
                      f"orbital {cert.orbital_index}, k={cert.field.order}")
                return 0
            print(f"certificate INVALID: {failure}")
            return 4

        if args.command == "weil-report":
            field = Field(*_resolve_params(args))
            _write_out(["\n".join(solvability_report(field)) + "\n"], args.out)
            return 0

        raise AssertionError(f"unhandled command {args.command}")
    except (ParameterError, ValueError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation [stage: {exc.stage}]: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
