"""Command line front end.

`hodgeatoms certify` runs the staged pipeline through the stage named by
--through (verdict by default) and prints the certificate, whose later
sections are marked "not run"; with --out the certificate is written there
and only the verdict is printed. Exit codes: 0 for IRRATIONAL_CERTIFIED, 2
for INCONCLUSIVE, 1 for configuration or engine errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certificate import dump_json, dump_text
from .instance import InstanceError, load_instance
from .pipeline import SATURATION_ORDER, STAGES, build_certificate, exit_code, run_pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse defaults to exit code 2; 2 means INCONCLUSIVE here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# one per process; parse_args leaves it unchanged
_PARSER = _Parser(prog="hodgeatoms",
                  description="exact irrationality certificates from quantum periods")
_PARSER.add_argument("command", choices=("certify",),
                     help="run the pipeline and print its certificate")
_PARSER.add_argument("--instance", default="verra",
                     help="instance file path or bundled name (default: verra)")
_PARSER.add_argument("--order", type=int, default=None, help="truncation order override")
_PARSER.add_argument("--out", default=None, help="write the certificate to this path")
_PARSER.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default: text)")
_PARSER.add_argument("--through", choices=STAGES, default="verdict",
                     help="stop the pipeline after this stage (default: verdict)")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        instance = load_instance(args.instance)
    except InstanceError as e:
        print(f"hodgeatoms: {e}", file=sys.stderr)
        return 1

    order = args.order if args.order is not None else instance.order
    if order < 0:
        print("hodgeatoms: truncation order must be non-negative", file=sys.stderr)
        return 1
    if STAGES.index(args.through) >= STAGES.index("solve") and order < SATURATION_ORDER:
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
        run = run_pipeline(instance, through=args.through, order=order)
        payload = (dump_json if args.format == "json" else dump_text)(build_certificate(run))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            print(f"hodgeatoms: cannot write {args.out!r}: {e}", file=sys.stderr)
            return 1
        payload = f"verdict: {run.verdict}\ncertificate written to {args.out}\n"
    try:
        sys.stdout.write(payload)
        sys.stdout.flush()
    except OSError as e:  # a closed pipe or a full device
        print(f"hodgeatoms: cannot write standard output: {e}", file=sys.stderr)
        # the interpreter flushes stdout once more at exit; send what is
        # left to devnull, so that it is dropped instead of reported
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return exit_code(run)


if __name__ == "__main__":
    sys.exit(main())
