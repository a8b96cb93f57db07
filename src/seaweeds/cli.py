"""Command-line interface.

Subcommands: index, contact, stable, classify, verify, meander.
Environment variables (SEAWEEDS_FAMILY, SEAWEEDS_SEED, SEAWEEDS_ATTEMPTS,
SEAWEEDS_BOUND, SEAWEEDS_TRIALS, SEAWEEDS_FORMAT) supply defaults; explicit
flags always win.  Exit codes: classify returns 0 on success, 4 when any
COUNTEREXAMPLE record exists, 3 under --strict when only UNRESOLVED records
spoil the run (5 is reserved); contact/stable return 1 when the search
comes up empty; verify returns 0 for valid, 1 for invalid, 2 for
unreadable input.  index prints the index by formula (``meander`` states
the index rule) next to a randomized witness form.  A report holding a
FOUND record verifies only when it was written with --embed: verify
re-checks the certificate behind every FOUND, and a report without them
reads INVALID, with one stderr line naming its first FOUND record and
--embed.  Bad input (an unknown subcommand or flag, a
value outside an option's choices, a malformed pair, a missing --n, a rank
over the sweep limits, a negative --attempts, a --bound or --trials below
1, a non-integer environment default, an environment default outside the
subcommand's choices, an --out or --svg path that cannot be opened for
writing) exits 2 with a one-line error on stderr before any sweep or search
runs.  An environment default is checked only when the chosen subcommand
takes that option and the command line leaves it out.  The --out and --svg
files are opened, as a shell redirection opens them, before the work
starts.  An output that cannot be written, flushed or closed (an --out or
--svg file, or the standard output, on a full disk for example) exits 2 as
well, after the work, with the one line ``error: cannot write PATH:
REASON`` (PATH is ``<stdout>`` for the standard output) and nothing more on
stderr at shutdown; exit 1 stays verify's INVALID and contact/stable's
empty search.  A stderr that cannot be written changes no exit code: its
error line is lost and every code above holds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack

from .classify import LIMITS, classify, exit_status, report
from .construct import Composition, parse_pair, seaweed
from .contact import DEFAULT_ATTEMPTS, find_contact_form, find_stable_form
from .lie import DEFAULT_BOUND, DEFAULT_TRIALS, index
from .meander import census, index_formula, meander, meander_index, meander_svg
from .serialize import CERTIFICATE_SCHEMA, algebra_to_json, certificate_to_json, ratios_to_json
from .serialize import unembedded_found, verify_document


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, which ``main`` turns
    into the one-line error and exit code 2 of every other bad input, in
    place of argparse's usage block."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _env_option(parser, flag, env, fallback, choices=None, help=None):
    """Add an option whose default comes from the environment.

    An integer option when ``choices`` is None, else a choice option.  The
    default is left unset here and filled in by ``_apply_env_defaults``, so
    a variable is read and checked only when the chosen subcommand takes
    the option and the command line does not give it.
    """
    parser.add_argument(flag, type=None if choices else int, choices=choices, help=help)
    defaults = parser.get_default("env_defaults") or ()
    parser.set_defaults(env_defaults=defaults + ((flag[2:], env, fallback, choices),))


def _apply_env_defaults(args):
    for dest, env, fallback, choices in getattr(args, "env_defaults", ()):
        if getattr(args, dest) is not None:
            continue
        value = os.environ.get(env)
        if not value:
            value = fallback
        elif choices is None:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{env} must be an integer, got {value!r}") from None
        elif value not in choices:
            raise ValueError(f"{env}={value!r} is not one of {', '.join(choices)}")
        setattr(args, dest, value)


def _discard(stream):
    """Point a standard stream that failed a write at os.devnull, so the
    bytes left in its buffer go nowhere when the interpreter flushes it at
    exit, instead of raising a second time there."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return  # a stand-in stream, such as a test's capture
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_error(out, exc: OSError) -> ValueError:
    """The one-line error of a failed write, flush or close of ``out``; a
    failed standard output is discarded first (``_discard``)."""
    if out is sys.stdout:
        _discard(out)
    return ValueError(f"cannot write {out.name}: {exc.strerror}")


def _error(text: str):
    """Print ``error: text`` as one stderr line.  A stderr that cannot be
    written loses the line and is discarded (``_discard``); the exit code
    the line goes with stands."""
    try:
        print(f"error: {text}", file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)


def _close(out):
    try:
        out.close()
    except OSError as exc:
        raise _write_error(out, exc) from None


def _open_outputs(args, stack: ExitStack):
    """Replace the --out and --svg paths with files opened for writing on
    ``stack``, so an unwritable path is refused as bad input (ValueError)
    before the work starts; closing them on ``stack`` raises ValueError
    too when the bytes cannot be written."""
    for dest in ("out", "svg"):
        path = getattr(args, dest, None)
        if path:
            try:
                out = open(path, "w")
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc.strerror}") from None
            stack.callback(_close, out)
            setattr(args, dest, out)


def _emit(text: str, out=None):
    """Write ``text`` to an output of ``_open_outputs``, or to stdout."""
    out = out or sys.stdout
    try:
        out.write(text)
    except OSError as exc:
        raise _write_error(out, exc) from None


def _add_common(parser, *, formats=("text", "json"), with_search=False):
    _env_option(parser, "--seed", "SEAWEEDS_SEED", 0)
    _env_option(parser, "--bound", "SEAWEEDS_BOUND", DEFAULT_BOUND)
    if with_search:
        _env_option(parser, "--attempts", "SEAWEEDS_ATTEMPTS", DEFAULT_ATTEMPTS)
    _env_option(parser, "--format", "SEAWEEDS_FORMAT", formats[0], formats)
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _add_algebra_args(parser):
    parser.add_argument(
        "pair", nargs="?", help='composition pair "TOP|BOTTOM", e.g. "2,1|3"'
    )
    _env_option(parser, "--family", "SEAWEEDS_FAMILY", "GL", sorted(LIMITS))
    parser.add_argument("--top", help='top composition, e.g. "2,1"')
    parser.add_argument("--bot", help='bottom composition, e.g. "3"')
    parser.add_argument(
        "--n", type=int, help="rank parameter (required for SP/SO, optional check otherwise)"
    )


def _compositions(args):
    if args.pair:
        return parse_pair(args.pair)
    if args.top is None or args.bot is None:
        raise ValueError("give a TOP|BOTTOM pair or both --top and --bot")
    return Composition.parse(args.top), Composition.parse(args.bot)


def _seaweed_args(args):
    """The ``seaweed`` arguments the command line names: family, n and the
    two compositions."""
    top, bottom = _compositions(args)
    n = args.n
    if n is None:
        if args.family in ("SP", "SO"):
            raise ValueError(f"--n is required for family {args.family}")
        n = top.total
    return args.family, n, top, bottom


def _cmd_index(args):
    """The index by formula (``meander``, the index rule), and next to it
    the randomized witness: trials that stop at the first form whose
    kernel dimension reaches the formula."""
    named = _seaweed_args(args)
    g = seaweed(*named)
    value = index_formula(*named)
    rep = index(g, args.seed, trials=args.trials, bound=args.bound, floor=value)
    if args.format == "json":
        doc = {
            "label": g.label,
            "dim": g.dim,
            "index": value,
            "witness_kernel_dim": rep.index,
            "witness_form": ratios_to_json(rep.witness_coords),
            "samples_used": len(rep.trial_kernel_dims),
            "seed": args.seed,
            "trial_kernel_dims": list(rep.trial_kernel_dims),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(
            f"{g.label}: index {value} (dim {g.dim}); randomized witness kernel dim {rep.index} "
            f"(trials {len(rep.trial_kernel_dims)}, bound {args.bound}, seed {args.seed}, "
            f"kernel dims {list(rep.trial_kernel_dims)})\n",
            args.out,
        )
    return 0


def _cmd_search(args):
    g = seaweed(*_seaweed_args(args))
    search = find_contact_form if args.command == "contact" else find_stable_form
    cert = search(g, args.seed, attempts=args.attempts, bound=args.bound)
    if cert is None:
        _emit(f"{g.label}: no {args.command} form found in {args.attempts} attempts\n", args.out)
        return 1
    if args.format == "json":
        doc = {"schema": CERTIFICATE_SCHEMA, "algebra": algebra_to_json(g), "certificates": [certificate_to_json(cert)]}
        text = json.dumps(doc, indent=2)
    elif args.command == "contact":
        text = f"{g.label}: contact form found; reeb {ratios_to_json(cert.reeb_row, cert.reeb_den)}"
    else:
        span = cert.bracket_span_rows
        evidence = "a contact form" if span is None else f"bracket span dim {len(span)}"
        text = f"{g.label}: stable form found; kernel dim {len(cert.kernel_rows)}, {evidence}"
    _emit(text + "\n", args.out)
    return 0


def _cmd_meander(args):
    top, bottom = _compositions(args)
    graph = meander(top, bottom)
    if args.svg:
        _emit(meander_svg(graph), args.svg)
    cycles, paths = census(graph)
    if args.format == "json":
        doc = {
            "n": graph.n,
            "top_edges": [list(e) for e in graph.top_edges],
            "bottom_edges": [list(e) for e in graph.bottom_edges],
            "cycles": cycles,
            "paths": paths,
            "index_gl": meander_index(graph, "GL"),
            "index_sl": meander_index(graph, "SL"),
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(
            f"meander {top}|{bottom}: top arcs {list(graph.top_edges)}, "
            f"bottom arcs {list(graph.bottom_edges)}; {cycles} cycles, {paths} paths; "
            f"gl index {meander_index(graph, 'GL')}, sl index {meander_index(graph, 'SL')}\n",
            args.out,
        )
    return 0


def _cmd_classify(args):
    records = classify(
        args.family,
        args.n,
        seed=args.seed,
        attempts=args.attempts,
        bound=args.bound,
        trials=args.trials,
        force=args.force,
        embed_certificates=args.embed,
    )
    meta = {
        "family": args.family.upper(),
        "n": args.n,
        "seed": args.seed,
        "budgets": {"attempts": args.attempts, "bound": args.bound, "trials": args.trials},
    }
    _emit(report(records, args.format, meta=meta), args.out)
    return exit_status(records, strict=args.strict)


def _cmd_verify(args):
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _error(f"cannot read certificate file: {exc}")
        return 2
    try:
        ok = verify_document(doc)
    except ValueError as exc:
        _error(str(exc))
        return 2
    _emit("valid\n" if ok else "INVALID\n")
    found = None if ok else unembedded_found(doc)
    if found is not None:
        _error(f"record {found[0]} ({found[1]}) is FOUND without its certificate: classify with --embed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seaweeds",
        description="Seaweed Lie algebras over exact rationals: index, contact "
        "and stability analysis, and exhaustive small-rank classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="index of one seaweed, with a randomized witness form")
    _add_algebra_args(p)
    _add_common(p)
    _env_option(
        p, "--trials", "SEAWEEDS_TRIALS", DEFAULT_TRIALS,
        help="most random forms to draw; the draws stop at the first that reaches the index",
    )
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("contact", help="search for a contact form")
    _add_algebra_args(p)
    _add_common(p, with_search=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("stable", help="search for a stable form")
    _add_algebra_args(p)
    _add_common(p, with_search=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("meander", help="meander graph, census, and index")
    p.add_argument("pair", nargs="?", help='composition pair "TOP|BOTTOM"')
    p.add_argument("--top")
    p.add_argument("--bot")
    p.add_argument("--svg", help="write an SVG drawing to this path")
    _env_option(p, "--format", "SEAWEEDS_FORMAT", "text", ("text", "json"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_meander)

    p = sub.add_parser("classify", help="sweep all composition pairs of a family")
    _env_option(p, "--family", "SEAWEEDS_FAMILY", "GL", sorted(LIMITS))
    p.add_argument("--n", type=int, required=True)
    _env_option(p, "--seed", "SEAWEEDS_SEED", 0)
    _env_option(p, "--attempts", "SEAWEEDS_ATTEMPTS", DEFAULT_ATTEMPTS)
    _env_option(p, "--bound", "SEAWEEDS_BOUND", DEFAULT_BOUND)
    _env_option(
        p, "--trials", "SEAWEEDS_TRIALS", DEFAULT_TRIALS,
        help="written into each record; the index is a formula, so no index trial is drawn",
    )
    _env_option(p, "--format", "SEAWEEDS_FORMAT", "json", ("json", "csv", "text"))
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true", help="exit 3 on unresolved records")
    p.add_argument("--embed", action="store_true", help="embed certificates in records")
    p.add_argument("--force", action="store_true", help="override the rank limits")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "verify",
        help="re-check a certificate file or report; a report holding a FOUND "
        "record verifies only when classify wrote it with --embed",
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_env_defaults(args)
        with ExitStack() as outputs:
            _open_outputs(args, outputs)
            code = args.func(args)
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise _write_error(sys.stdout, exc) from None
        return code
    except ValueError as exc:
        _error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
