"""Command-line front end.

Commands: run, trace, verify, compile, gap, gallery-list.  Exit codes for
run: 0 accept, 1 reject, 2 indeterminate, 3 usage/parse error, 4 capacity,
5 internal.  Reports are JSON (schema 1), traces CSV or JSON; numbers are
printed with 12 significant digits and files carry full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import gallery, linalg
from .aeqs import (
    GAP_SCAN_GRID,
    AeqsError,
    adiabatic_time_bound,
    check_time_bound_args,
    commutator_check,
    commutator_negligible,
    decide,
    minimum_interpolation_gap,
)
from .compilers import CompileError
from .evolve import EvolveError, Schedule, evolve_trace
from .gallery import GALLERY_NAMES, PARAMETER_SWEEPS, GalleryError, PromiseError, build
from .linalg import CapacityError
from .qqa import QqaError
from .specdoc import DocumentError, MachineSpecDocument, hamiltonian_to_json

EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_INTERNAL = 5


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _read_document(path: str) -> MachineSpecDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return MachineSpecDocument.from_json(fh.read())


def _load_target(target: str) -> tuple:
    """(name, family) of a gallery name, or of a path to a machine document
    (endswith .json)."""
    if target in GALLERY_NAMES:
        entry = build(target)
        return entry.name, entry.family
    if target.endswith(".json"):
        doc = _read_document(target)
        return doc.name, doc.family()
    raise GalleryError(
        f"unknown target {target!r}: not a gallery name ({', '.join(GALLERY_NAMES)}) "
        f"and not a .json machine file"
    )


def _write_or_print(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload)


def cmd_run(args) -> int:
    name, family = _load_target(args.target)
    started = time.perf_counter()
    instance = family.build(args.input)
    verdict = decide(instance)
    elapsed = time.perf_counter() - started
    report = {
        "schema": 1,
        "target": name,
        "input": args.input,
        **verdict.as_dict(),
        "dimension": instance.dim,
        "size_bits": instance.size_bits,
        "tags": list(family.tags),
        "promised": family.promised(args.input),
        "seconds": elapsed,
    }
    _write_or_print(json.dumps(report, indent=2), args.out)
    if not args.out:
        print(
            f"{name} on {args.input!r}: {verdict.outcome} "
            f"(energy {_fmt(verdict.ground_energy)}, gap {_fmt(verdict.spectral_gap)}, "
            f"acc {_fmt(verdict.acc_overlap)}, rej {_fmt(verdict.rej_overlap)})",
            file=sys.stderr,
        )
    return verdict.exit_code


def cmd_trace(args) -> int:
    _, family = _load_target(args.target)
    instance = family.build(args.input)
    schedule = Schedule(args.T, args.R, hbar=args.hbar)
    trace = evolve_trace(instance, schedule, args.method)
    payload = trace.to_json() if args.format == "json" else trace.to_csv()
    _write_or_print(payload, args.out)
    if not args.out:
        print(
            f"final overlap^2 {_fmt(trace.final_overlap_sq)}, "
            f"phase-minimized distance {_fmt(trace.final_distance)}",
            file=sys.stderr,
        )
    return 0


def _parse_params(spec: str) -> dict:
    # "t<=3,k<=2,l<=2" -> {"t": 3, "k": 2, "l": 2}
    out = {}
    for chunk in spec.split(","):
        if "<=" not in chunk:
            raise DocumentError(f"bad parameter bound {chunk!r}; use name<=value")
        name, value = chunk.split("<=", 1)
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise DocumentError(
                f"bad parameter bound {chunk!r}; the value must be an integer"
            ) from None
    return out


def cmd_verify(args) -> int:
    entry = build(args.target)
    if args.max_params:
        if entry.name not in PARAMETER_SWEEPS:
            raise GalleryError(f"--max-params not supported for {entry.name}")
        defaults, generate = PARAMETER_SWEEPS[entry.name]
        bounds = _parse_params(args.max_params)
        unknown = sorted(set(bounds) - set(defaults))
        if unknown:
            raise DocumentError(
                f"{entry.name} has no parameter {', '.join(unknown)}; "
                f"its parameters are {', '.join(defaults)}"
            )
        inputs = generate(*{**defaults, **bounds}.values())
    else:
        inputs = list(gallery.strings_up_to(entry.family.alphabet, args.max_len))
    report = gallery.verify(entry, inputs)
    payload = report.as_dict()
    if report.checked == 0:
        payload["note"] = "0 inputs checked (vacuous pass)"
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return 0 if report.passed else 1


def cmd_compile(args) -> int:
    doc = _read_document(args.specfile)
    instance = doc.family().build(args.input)
    verdict = decide(instance)
    emit = args.emit == "hamiltonians"
    payload = {
        "schema": 1,
        "name": doc.name,
        "kind": doc.kind,
        "input": args.input,
        "dimension": instance.dim,
        "size_bits": instance.size_bits,
        "basis": instance.schema.describe(),
        "h_ini": hamiltonian_to_json(instance.h_ini) if emit else None,
        "h_fin": hamiltonian_to_json(instance.h_fin) if emit else None,
        "ground_energy": verdict.ground_energy,
        "spectral_gap": verdict.spectral_gap,
        "outcome": verdict.outcome,
    }
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_gap(args) -> int:
    # Checked first: an instance whose block split meets a capacity skips the
    # scan, and its bad arguments must still be rejected.
    check_time_bound_args(args.epsilon, args.delta, args.grid)
    name, family = _load_target(args.target)
    instance = family.build(args.input)
    verdict = decide(instance)
    try:
        comm = commutator_check(instance)
    except CapacityError as err:
        comm, skipped = None, str(err)
    payload = {
        "schema": 1,
        "target": name,
        "input": args.input,
        "ground_energy": verdict.ground_energy,
        "final_gap": verdict.spectral_gap,
        "commutator_norm": comm,
        "commutator_negligible": commutator_negligible(comm) if comm is not None else None,
    }
    if comm is None:
        payload["min_interpolation_gap"] = payload["time_bound"] = None
        payload["skipped"] = (
            f"commutator_norm, min_interpolation_gap and time_bound not computed: {skipped}"
        )
    else:
        payload["min_interpolation_gap"] = minimum_interpolation_gap(instance, args.grid)
        payload["time_bound"] = adiabatic_time_bound(
            instance, epsilon=args.epsilon, delta=args.delta, grid=args.grid
        )
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_gallery_list(_args) -> int:
    for name in GALLERY_NAMES:
        entry = build(name)
        tags = ",".join(entry.family.tags)
        print(f"{name:22s} alphabet={{{','.join(entry.family.alphabet)}}} tags={tags}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One line on stderr, then exit EXIT_PARSE: exit 2 means "indeterminate"."""
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def command_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it
    unchanged, so every call of main shares it."""
    parser = _Parser(
        prog="aeqslab",
        description="Ground-state language deciders generated by quantum quasi-automata.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sparse eigensolver start seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="decide one input")
    p.add_argument("target")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="emit a discrete-evolution trace")
    p.add_argument("target")
    p.add_argument("input")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--method", choices=("midpoint", "trotter", "phase"), default="trotter")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("verify", help="sweep a gallery entry against its oracle")
    p.add_argument("target")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--max-params", default=None,
                   help='promise-parameter bounds, e.g. "t<=3,k<=2,l<=2"')
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compile", help="compile a machine document on one input")
    p.add_argument("specfile")
    p.add_argument("input")
    p.add_argument("--emit", choices=("hamiltonians", "none"), default="hamiltonians")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("gap", help="spectral diagnostics for one input")
    p.add_argument("target")
    p.add_argument("input")
    p.add_argument("--grid", type=int, default=GAP_SCAN_GRID)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("gallery-list", help="list built-in constructions")
    p.set_defaults(fn=cmd_gallery_list)
    return parser


def main(argv=None) -> int:
    try:
        args = command_parser().parse_args(argv)
    except SystemExit as done:       # a parse error (EXIT_PARSE) or --help (0)
        return done.code

    # --seed applies to this command only: main may run again in one process.
    seed = linalg.LANCZOS_SEED
    if args.seed is not None:
        linalg.LANCZOS_SEED = args.seed
    try:
        return args.fn(args)
    except (DocumentError, GalleryError, PromiseError, QqaError, AeqsError,
            CompileError, EvolveError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        linalg.LANCZOS_SEED = seed


if __name__ == "__main__":
    sys.exit(main())
