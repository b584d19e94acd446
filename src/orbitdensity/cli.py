"""Command-line driver.

Commands
--------
finite-scan      exhaustive exact verification over finite Weyl-Heisenberg systems
bergman-density  density report for a lattice orbit of Bergman kernels, with
                 the closed-form covolume and formal degree
formal-degree    closed-form formal degree (alpha - 1) / (4 pi) over the Haar scale
ball             group-ball enumeration
stabilizer       point and kernel stabilisers of a lattice at a point

Exit codes: 0 success, 1 exact-mode theorem violation, 2 usage error,
3 numerical or resource failure, 4 internal error (a programming bug; the
traceback goes to stderr). Output formats: human, csv (RFC quoting, one
table under a header row; every other record goes to stderr), json (one
object per line plus a final summary object). Floats are printed with 17
significant digits. Commands hand :class:`Emitter` tables of columns;
no write holds more than :data:`WRITE_CHARS` characters.

Each flag is declared once, in ``_COMMANDS``, with its type and default;
argparse parses it. A flat key=value config file can supply any flag of
the command, as a string default that argparse parses with the flag's
type, so explicit flags win; unknown keys are rejected. One check then
names every required flag that neither supplied.

The commands' bodies and the config, lattice and point parsers live in
:mod:`orbitdensity.commands`, which :func:`main` imports only once the
arguments parse, so ``--help`` and a usage error caught by the parser or
the required check compile no package module but this one and
:mod:`orbitdensity.errors`.
Each command imports only the modules it runs, numpy included, the parser
holds the flags of the named command only, and ``json`` and ``csv`` load
only when a record is written in their format.

The process entry is :func:`run`, for both ``python -m orbitdensity.cli``
and the ``orbit-density`` script: it runs :func:`main`, which tests call in
process, with the cyclic garbage collector off, flushes stdout and stderr,
and ends the process with ``os._exit``, skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import EXIT_INTERNAL, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION
from .errors import NotRieszError, NumericalFailure, ResourceLimitError
from .errors import TheoremViolationError, UsageError

# OverflowError: a float result left the double range, e.g. a huge weight alpha
_NUMERICAL_FAILURES = (NumericalFailure, ResourceLimitError, NotRieszError, OverflowError)

FORMATS = ("human", "csv", "json")

# marks a flag that neither the command line nor the config file may omit
REQUIRED = object()

# command: (its function's name in orbitdensity.commands, help line,
#           its flags after the common ones as (flag, type, default)); a
#           bergman-density option left at None takes density_analysis's default
_COMMANDS = {
    "finite-scan": (
        "cmd_finite_scan",
        "exhaustive exact verification scan",
        (("--n-max", int, REQUIRED), ("--windows", int, 50), ("--seed", int, 0)),
    ),
    "bergman-density": (
        "cmd_bergman_density",
        "density report for a Bergman kernel orbit",
        (
            ("--lattice", None, "psl2z"), ("--alpha", float, REQUIRED), ("--z", None, REQUIRED),
            ("--ball", float, REQUIRED), ("--probes", int, None), ("--refine-steps", int, None),
            ("--refine-delta", float, None), ("--haar-scale", float, None),
        ),
    ),
    "formal-degree": (
        "cmd_formal_degree",
        "closed-form formal degree",
        (("--alpha", float, REQUIRED), ("--haar-scale", float, 1.0)),
    ),
    "ball": ("cmd_ball", "enumerate a group ball", (("--lattice", None, "psl2z"), ("--norm", float, REQUIRED))),
    "stabilizer": (
        "cmd_stabilizer",
        "point and kernel stabilisers at a point",
        (
            ("--lattice", None, "psl2z"), ("--z", None, REQUIRED), ("--ball", float, REQUIRED),
            ("--alpha", float, 2.0), ("--tol", float, 1e-4),
        ),
    ),
}


# most characters in one write: at most 4096 bytes of UTF-8, PIPE_BUF, which a pipe takes whole
# or fails (EPIPE); unbuffered stdout drops unseen the rest of a longer write cut short by its reader
WRITE_CHARS = 1024


def _write(stream, text: str):
    for start in range(0, len(text), WRITE_CHARS):
        stream.write(text[start : start + WRITE_CHARS])


def _texts(column) -> list[str]:
    """Each value's text: true or false for a bool, 17 significant digits for
    a float, empty for None, str otherwise."""
    return [("true" if v else "false") if isinstance(v, bool) else f"{v:.17g}" if isinstance(v, float)
            else "" if v is None else str(v) for v in column]


class Emitter:
    """Serialises tables of records uniformly into the chosen format. A CSV
    stream is one table, the records of the first kind written, built in memory
    and written in slices; other records and the summary go to stderr as comment
    lines. Each human or JSON record, and the summary, is one write if it fits."""

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv_kind = None

    def table(self, kind: str, columns: dict):
        """One ``kind`` record per row of ``columns``, equally long lists of
        values keyed by field name in record order."""
        if self.fmt == "csv" and self._csv_kind in (None, kind):
            import csv
            import io

            text = io.StringIO()
            writer = csv.writer(text, lineterminator="\n")
            if self._csv_kind is None:
                self._csv_kind = kind
                writer.writerow(columns)
            writer.writerows(zip(*map(_texts, columns.values())))
            _write(self.stream, text.getvalue())
        elif self.fmt == "human":
            for texts in zip(*map(_texts, columns.values())):
                lines = "".join(f"{key} = {text}\n" for key, text in zip(columns, texts))
                _write(self.stream, f"[{kind}]\n{lines}\n")
        else:  # JSON, or records of another kind beside a CSV table
            import json

            for values in zip(*columns.values()):
                data = dict(zip(columns, values))
                if self.fmt == "json":
                    _write(self.stream, json.dumps({"type": kind, **data}) + "\n")
                else:
                    self.stream.flush()  # as in summary, the table goes out first
                    _write(sys.stderr, f"# {kind}: {json.dumps(data)}\n")

    def record(self, kind: str, data: dict):
        self.table(kind, {key: [value] for key, value in data.items()})

    def summary(self, data: dict):
        if self.fmt == "json":
            return self.record("summary", data)
        lines = [f"{key} = {text}\n" for key, text in zip(data, _texts(data.values()))]
        if self.fmt == "human":
            _write(self.stream, "[summary]\n" + "".join(lines))
        else:
            # stderr takes the CSV summary once the table is out: a reader who closed it fails the command first
            self.stream.flush()
            _write(sys.stderr, "".join(f"# {line}" for line in lines))


def build_parser(named=None, config=None) -> argparse.ArgumentParser:
    """The parser of every command name and help line, with the flags of the
    commands in ``named`` only, or of every command when it is None. The
    values of ``config`` are their flags' defaults, strings that argparse
    parses with the flags' types."""
    parser = argparse.ArgumentParser(
        prog="orbit-density",
        description="Density conditions for frames and Riesz sequences in lattice orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if named is None or command in named:
            p.add_argument("--format", choices=FORMATS, default="human")
            p.add_argument("--out", default=None, help="output file (default stdout)")
            p.add_argument("--config", default=None, help="flat key = value configuration file")
            for flag, kind, default in flags:
                p.add_argument(flag, type=kind, default=default)
            p.set_defaults(**(config or {}))
    return parser


def _join_point_values(argv: list[str]) -> list[str]:
    """Rewrite ``--z VALUE`` as ``--z=VALUE`` when VALUE is a point with a
    negative real part, which argparse would otherwise read as an option."""
    joined = []
    for token in argv:
        if joined[-1:] == ["--z"] and token[:1] == "-" and (token[1:2].isdigit() or token[1:2] == "."):
            joined[-1] = f"--z={token}"
        else:
            joined.append(token)
    return joined


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open output file: {exc}") from exc


def main(argv=None) -> int:
    argv = _join_point_values(sys.argv[1:] if argv is None else list(argv))
    # no top-level option takes a value, so the first command name is argparse's command
    named = [token for token in argv if token in _COMMANDS][:1]
    try:
        args = build_parser(named).parse_args(argv)
        config = {}
        if args.config:
            from .commands import LATTICE_KEYS, load_config

            config = load_config(args.config)
            # a config key names a flag of the command or a key of the lattice block
            flags = set(vars(args)) - {"command", "config"}
            unknown = set(config) - flags - LATTICE_KEYS
            if unknown:
                raise UsageError(f"unknown config keys: {sorted(unknown)}")
            args = build_parser(named, {key: config[key] for key in flags & set(config)}).parse_args(argv)
        missing = [f"--{name.replace('_', '-')}" for name, value in vars(args).items() if value is REQUIRED]
        if missing:
            raise UsageError(f"{args.command} requires {' and '.join(missing)}")
        # argparse checks the choices of a flag, not of a config value
        if args.format not in FORMATS:
            raise UsageError(f"format must be one of {FORMATS}, got {args.format!r}")
        from . import commands

        command = getattr(commands, _COMMANDS[args.command][0])
        if args.out:
            with _open_output(args.out) as fh:
                return command(args, config, Emitter(args.format, fh))
        return command(args, config, Emitter(args.format, sys.stdout))
    except SystemExit as exc:
        # argparse has printed the help or the usage error
        return int(exc.code) if exc.code else EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (*_NUMERICAL_FAILURES, BrokenPipeError) as exc:
        # a reader that closes the output early is no bug in this program
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:
        import traceback  # only an internal error pays for this import

        traceback.print_exc()
        print("internal error: this is a bug in orbit-density", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """:func:`main` without cyclic collections, most of which would run while
    numpy imports, then flush stdout and stderr and end the process with
    its exit code, without teardown: no module cleanup or atexit handlers."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed before the buffered rest; a failure main reported is not repeated
        if code != EXIT_NUMERICAL:
            print(f"failure: {exc}", file=sys.stderr)
            code = EXIT_NUMERICAL
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
