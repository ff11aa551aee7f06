"""Command line front end.

Each subcommand runs the staged pipeline up to the stage it is named
after and prints that stage's focal result; the full certificate (with
later sections marked "not run") can always be written with --out.
Exit codes: 0 for IRRATIONAL_CERTIFIED, 2 for INCONCLUSIVE, 1 for
configuration or engine errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .certificate import dump_json, dump_text
from .instance import InstanceError, load_instance
from .pipeline import (SATURATION_ORDER, STAGES, PipelineRun, build_certificate, exit_code,
                       run_pipeline)

# subcommand -> (the stage it runs through, its help line)
_COMMANDS = {
    "period": ("period", "quantum period coefficients"),
    "ansatz": ("ansatz", "quantum multiplication matrices from degree and self-adjointness"),
    "derive-operator": ("eliminate", "scalar operator by cyclic-vector elimination"),
    "solve": ("solve", "unknown parameters by coefficient matching"),
    "spectrum": ("spectrum", "characteristic polynomials and eigenvalue squares"),
    "certify": ("verdict", "full pipeline and irrationality certificate"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse defaults to exit code 2; 2 means INCONCLUSIVE here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hodgeatoms",
                     description="exact irrationality certificates from quantum periods")
    # the options every subcommand shares, added once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--instance", default="verra",
                        help="instance file path or bundled name (default: verra)")
    common.add_argument("--order", type=int, default=None, help="truncation order override")
    common.add_argument("--out", default=None, help="write the full certificate to this path")
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    common.add_argument("--through", choices=STAGES, default=None,
                        help="stop the pipeline after this stage")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, help=help_line, parents=[common])
    return parser


_PARSER = _build_parser()  # one per process; parse_args leaves it unchanged


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    through = args.through or _COMMANDS[args.command][0]

    try:
        instance = load_instance(args.instance)
    except InstanceError as e:
        print(f"hodgeatoms: {e}", file=sys.stderr)
        return 1

    order = args.order if args.order is not None else instance.order
    if order < 0:
        print("hodgeatoms: truncation order must be non-negative", file=sys.stderr)
        return 1
    if STAGES.index(through) >= STAGES.index("solve") and order < SATURATION_ORDER:
        print(f"hodgeatoms: truncation order {order} < {SATURATION_ORDER} cannot saturate the "
              f"matching system (raise --order or stop with --through eliminate)",
              file=sys.stderr)
        return 1

    # the parser reads integers of any length (through Decimal); lift the
    # interpreter's int-to-str digit limit for the run, so that they print too
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        run = run_pipeline(instance, through=through, order=order)

        if args.out:
            payload = (dump_json if args.format == "json" else dump_text)(build_certificate(run))
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as e:
                print(f"hodgeatoms: cannot write {args.out!r}: {e}", file=sys.stderr)
                return 1
            if args.command == "certify":
                print(f"verdict: {run.verdict}")
            else:
                print(_focal_text(args.command, run))
            print(f"certificate written to {args.out}")
        elif args.format == "json":
            sys.stdout.write(dump_json(build_certificate(run)))
        else:
            print(_focal_text(args.command, run))
        return exit_code(run)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _tuple_str(sol: dict, params: List[str]) -> str:
    return "(" + ", ".join(sol[p] for p in params) + ")"


def _focal_text(command: str, run: PipelineRun) -> str:
    if command == "certify":
        return dump_text(build_certificate(run)).rstrip("\n")
    section_name = {"derive-operator": "operator"}.get(command, command)
    sec = run.sections.get(section_name, {})
    lines: List[str] = []
    if sec.get("status") != "ok":
        lines.append(f"{section_name}: {sec.get('status', 'missing')}"
                     f" ({sec.get('reason', 'no detail')})")
    elif command == "period":
        lines.append(f"G(q) coefficients through q^{sec['order']}:")
        lines.append(", ".join(sec["coefficients"]))
    elif command == "ansatz":
        lines.append("symmetric block parameters: " + ", ".join(sec["symmetric_parameters"])
                     + f" (canonical: {', '.join(sec['canonical_parameters'])})")
        for row in sec["symmetric_display"]:
            lines.append("  [" + ", ".join(row) + "]")
        lines.append(f"antisymmetric parameter {sec['antisymmetric_parameter']}"
                     f" = {sec['antisymmetric_value']}")
        for row in sec["antisymmetric_display"]:
            lines.append("  [" + ", ".join(row) + "]")
    elif command == "derive-operator":
        lines.append(f"order {sec['order']} operator for component y_{sec['component']}:")
        lines.append(sec["parametric"]["display"])
    elif command == "solve":
        params = list(run.instance.parameter_order())
        lines.append("parameters: (" + ", ".join(params) + ")")
        lines.append("solution set: {" + ", ".join(
            _tuple_str(s, params) for s in sec["solutions"]) + "}")
        lines.append("after enumerativity filter: {" + ", ".join(
            _tuple_str(s, params) for s in sec["accepted"]) + "}")
        for rej in sec["rejected"]:
            lines.append(f"  rejected {_tuple_str(rej['solution'], params)}: {rej['reason']}")
        lines.append("solved operator: " + sec["solved_operator"]["display"])
    elif command == "spectrum":
        lines.append("chi(2M_+) = " + sec["symmetric"]["factored"])
        lines.append("chi(2M_-) = " + sec["antisymmetric"]["factored"])
        lines.append(f"zero multiplicities: {sec['symmetric']['zero_multiplicity']}"
                     f" and {sec['antisymmetric']['zero_multiplicity']}")
        rec = sec["reciprocity"]
        lines.append(f"reciprocity: singular squares {{{', '.join(rec['singular_squares'])}}}"
                     f" vs eigenvalue squares {{{', '.join(rec['eigen_squares'])}}}"
                     f" -> {'pass' if rec['passed'] else 'FAIL'}")
    lines.append(f"verdict: {run.verdict}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
