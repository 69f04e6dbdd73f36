"""Command-line surface: output and exit codes for instance discovery,
graph construction, certificate emission and independent verification.
argv is read against one flag table, `COMMANDS`, by exact flag names:
importing and building an argparse parser took about 4 ms of every cold run.

Each command that takes --k checks it, factors it as s^m and builds the
one `Field` the rest of the run works from.  `full-graph` emits the
`hamilton` certificate of Y(min S), a subgraph of the union of the chosen
orbital graphs.

Exit codes: 0 success, 2 parameter error, 3 invariant violation (stderr
names the stage that raised it), 4 verification failure.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .diag import solvability_report
from .errors import InvariantViolation, ParameterError
from .gf import Field, admissible, factor_prime_power, list_instances
from .orbital import build_graph, export_chunks
from .quotient import (QuotientMultigraph, build_quotient, certificate_chunks,
                       run_pipeline, verify_text)

DESK_SCALE_MAX_K = 5000
# trial division up to sqrt(k) is then at most 2^16 steps, and no larger
# field could be tabulated anyway
MAX_K = 2**32
# instances tests every k with 10 | k-1 up to --max-k by trial division:
# about 0.7 s at 10^6 and 15 s at 10^7
INSTANCES_MAX_K = 10**6

REQUIRED = object()  # the default of a flag that must be given
_K = {"--k": (int, REQUIRED, "field order s^m"), "--out": (str, None)}
_ORBITAL = {**_K, "--orbital": (int, 0)}
COMMANDS = {  # command: (help, {flag: (int, str or choices, default[, help])})
    "instances": ("list admissible parameters", {"--max-k": (int, 130)}),
    "build": ("build one orbital graph and export it", {**_ORBITAL, "--format": (
        ("edgelist", "dot"), "edgelist", "edgelist or dot")}),
    "quotient": ("print the quotient multigraph", _ORBITAL),
    "hamilton": ("emit a verified Hamilton certificate", _ORBITAL),
    "verify": ("re-verify a certificate file", {"--cert": (str, REQUIRED)}),
    "weil-report": ("solvability table for one field", _K),
    "full-graph": ("certificate for a union of orbital graphs", {
        **_K, "--orbitals": (str, "0,1,2,3,4", "comma-separated orbital indices")}),
}
USAGE = f"usage: psl2ham [-h] {{{','.join(COMMANDS)}}} [--flag value ...]"


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


def _fail(prog: str, message: str):
    sys.stderr.write(f"{USAGE}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help():
    lines = [USAGE, "", "Hamilton cycle certificates for orbital graphs of "
                        "PSL(2,k) on 5(k+1) points"]
    for command, (text, flags) in COMMANDS.items():
        lines += ["", f"{command:12} {text}"]
        lines += (f"  {flag:11} " + " ".join([*h, "(required)" if d is REQUIRED
                                              else f"(default {d})"])
                  for flag, (_, d, *h) in flags.items())
    print("\n".join(lines))
    raise SystemExit(0)


def _read(prog: str, name: str, kind, text: str):
    """text read by kind: int, str, or a tuple of the choices, whose
    index() raises ValueError on any other text."""
    try:
        return kind(text) if callable(kind) else kind[kind.index(text)]
    except ValueError:
        _fail(prog, f"argument {name}: " + (
            f"invalid {kind.__name__} value: {text!r}" if callable(kind) else
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"))


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and flag values of argv, read against COMMANDS, with
    argparse's messages; -h or --help prints the table and exits 0."""
    if argv[:1] in (["-h"], ["--help"]):
        _help()
    if not argv:
        _fail("psl2ham", "the following arguments are required: command")
    command = _read("psl2ham", "command", tuple(COMMANDS), argv[0])
    prog, flags = f"psl2ham {command}", COMMANDS[command][1]
    rest, got, extra = argv[1:], {}, []
    while rest:
        flag, eq, text = (token := rest.pop(0)).partition("=")
        if token in ("-h", "--help"):
            _help()
        if flag not in flags:
            extra.append(token)
        # a value may be "-" or a negative number, but no other "-" word
        elif eq or rest and (rest[0][:1] != "-" or rest[0] == "-"
                             or rest[0][1:2].isdigit()):
            got[flag] = _read(prog, flag, flags[flag][0], text if eq else rest.pop(0))
        else:
            _fail(prog, f"argument {flag}: expected one argument")
    args = {flag: got.get(flag, default) for flag, (_, default, *_) in flags.items()}
    if missing := [flag for flag, value in args.items() if value is REQUIRED]:
        _fail(prog, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _fail("psl2ham", f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): value for flag, value in args.items()})


def _quotient_text(q: QuotientMultigraph) -> str:
    lines = [f"orbital {q.orbital_index}  p {q.p}", "multiplicities:"]
    lines += ("  " + " ".join(f"{d:3d}" for d in row) for row in q.mult)
    lines.append("voltages:")
    lines += (f"  {a} {b}: " + ",".join(map(str, vs))
              for a, row in enumerate(q.voltages) for b, vs in enumerate(row) if vs)
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    args = parse_args(list(sys.argv[1:] if argv is None else argv))
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
            _write_out(certificate_chunks(cert), args.out)
            if args.out not in (None, "-"):
                where = (f"inside the union of orbitals {subset}" if union else
                         f"(orbital {subset[0]}, total voltage "
                         f"{cert.total_voltage} mod {cert.p})")
                print(f"verified Hamilton cycle on {len(cert.vertices)} "
                      f"vertices {where}")
            return 0

        if args.command == "verify":
            with open(args.cert, newline="") as fh:  # "\r\n" is read as is
                cert, failure = verify_text(fh.read())
            print(f"certificate INVALID: {failure}" if failure else
                  f"certificate OK: {len(cert.vertices)} vertices, "
                  f"orbital {cert.orbital_index}, k={cert.field.order}")
            return 4 if failure else 0

        if args.command == "weil-report":
            field = Field(*_resolve_params(args))
            _write_out(["\n".join(solvability_report(field)) + "\n"], args.out)
            return 0

        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation [stage: {exc.stage}]: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
