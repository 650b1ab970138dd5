"""Command line front end.

Exit status 0 means success with a result, 1 means a well-formed run with no
result (no witness, no canonical number in range, certificate rejected), and
2 means a usage or input error.  Output for a fixed input and flag set is
byte-identical across runs.  The search runs on one thread; --threads is
still accepted, and checked to be positive, so that existing command lines
keep working, but it has no other effect.
"""

from __future__ import annotations

import argparse
import sys

from . import coloring, polynomial, search, witness

def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_colouring(path: str) -> coloring.TypedColouring:
    try:
        return coloring.load_colouring(path)
    except coloring.ColouringFormatError as e:
        where = f"{path}:{e.line}" if e.line is not None else path
        raise _CliInputError(f"{where}: {e.message}") from None
    except OSError as e:
        raise _CliInputError(str(e)) from None


def _load_family(path: str, role: str) -> polynomial.PolynomialFamily:
    try:
        return polynomial.load_family(path, role)
    except polynomial.FamilyFormatError as e:
        where = f"{path}:{e.line}" if e.line is not None else path
        raise _CliInputError(f"{where}: {e.message}") from None
    except OSError as e:
        raise _CliInputError(str(e)) from None


class _CliInputError(Exception):
    pass


def _write_out(path: str | None, text: str) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--d-policy",
        choices=witness.D_POLICIES,
        default=witness.POLICY_NONZERO,
        help="which steps d are admitted (default: nonzero)",
    )
    p.add_argument("--h", type=int, default=0, help="shift threshold for rainbow steps (default: 0)")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mono", required=True, help="mono family file")
    p.add_argument("--rainbow", help="rainbow family file")
    p.add_argument("--no-rainbow", action="store_true", help="state explicitly that no rainbow family is used")
    _add_policy_flags(p)
    p.add_argument("--max-classes", type=int, default=None, help="palette cap (default: unbounded)")
    p.add_argument("--n-start", type=int, default=1, help="first length to try (default: 1)")
    p.add_argument("--n-limit", type=int, default=12, help="last length to try (default: 12)")
    p.add_argument("--node-budget", type=int, default=None, help="abort after this many nodes (default: none)")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; must be positive, has no effect",
    )
    p.add_argument("--self-check", action="store_true", help="re-verify every prune and certificate")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.add_argument("--out", help="write the run report to this file")


def _search_config(args: argparse.Namespace) -> search.SearchConfig:
    if args.rainbow and args.no_rainbow:
        raise _CliInputError("--rainbow and --no-rainbow are mutually exclusive")
    if args.threads < 1:
        raise _CliInputError(f"--threads must be positive, got {args.threads}")
    mono = _load_family(args.mono, polynomial.ROLE_MONO)
    rain = None
    if args.rainbow:
        rain = _load_family(args.rainbow, polynomial.ROLE_RAINBOW)
    return search.SearchConfig(
        mono_family=mono,
        rainbow_family=rain,
        h=args.h,
        d_policy=args.d_policy,
        max_classes=args.max_classes,
        n_start=args.n_start,
        n_limit=args.n_limit,
        node_budget=args.node_budget,
        self_check=args.self_check,
    )


def _cmd_witness(args: argparse.Namespace) -> int:
    col = _load_colouring(args.colouring)
    mono = _load_family(args.mono, polynomial.ROLE_MONO) if args.mono else None
    rain = _load_family(args.rainbow, polynomial.ROLE_RAINBOW) if args.rainbow else None
    if mono is None and rain is None:
        raise _CliInputError("need --mono or --rainbow")
    cert = witness.find_witness(col, mono, rain, args.h, args.d_policy)
    if cert is None:
        print("no witness", file=sys.stderr)
        return 1
    text = cert.to_json()
    sys.stdout.write(text)
    _write_out(args.out, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    col = _load_colouring(args.colouring)
    try:
        with open(args.cert, encoding="utf-8") as fh:
            cert = witness.Certificate.from_json(fh.read())
    except OSError as e:
        raise _CliInputError(str(e)) from None
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    verdict = witness.verify_certificate(col, cert)
    if verdict.ok:
        print("certificate accepted")
        return 0
    print(f"certificate rejected: {verdict.reason}")
    return 1


def _cmd_number(args: argparse.Namespace) -> int:
    cfg = _search_config(args)
    try:
        engine = search.naive_canonical_number if args.naive else search.canonical_number
        result = engine(cfg)
    except search.EnumerationCapExceeded as e:
        raise _CliInputError(str(e)) from None
    report = search.run_report(cfg, result, timing=args.timing)
    _write_out(args.out, report)
    if result.canonical_number is None:
        print(f"no canonical number within n_limit={cfg.n_limit}", file=sys.stderr)
        return 1
    print(result.canonical_number)
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    cfg = _search_config(args)
    try:
        found = search.extremal_colourings(cfg, args.at_length, args.limit)
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    lines = []
    for col in found:
        lines.append(" ".join(str(col.label(t, 1)) for t in range(1, col.length + 1)))
    text = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(text)
    _write_out(args.out, text)
    return 0 if found else 1


def _cmd_hvalue(args: argparse.Namespace) -> int:
    fam = _load_family(args.family, polynomial.ROLE_MONO)
    try:
        print(polynomial.h_value(fam))
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    return 0


def _cmd_weight(args: argparse.Namespace) -> int:
    fam = _load_family(args.family, polynomial.ROLE_MONO)
    try:
        w = polynomial.weight_vector(fam)
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    print(" ".join(str(c) for c in w.counts))
    return 0


def _cmd_bstar(args: argparse.Namespace) -> int:
    fam = _load_family(args.family, polynomial.ROLE_RAINBOW)
    try:
        derived = polynomial.bstar_family(fam, args.h, args.d_cap)
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    text = polynomial.dump_family(derived)
    sys.stdout.write(text)
    _write_out(args.out, text)
    return 0 if derived.polys else 1


def _cmd_scale(args: argparse.Namespace) -> int:
    fam = _load_family(args.family, polynomial.ROLE_MONO)
    try:
        scaled = polynomial.scale_family(fam, args.factor)
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    text = polynomial.dump_family(scaled)
    sys.stdout.write(text)
    _write_out(args.out, text)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.length < 0:
        raise _CliInputError(f"length must be non-negative, got {args.length}")
    count = 0
    for col in coloring.enumerate_colourings(args.length, args.max_classes):
        print(" ".join(str(col.label(t, 1)) for t in range(1, col.length + 1)))
        count += 1
        if args.limit is not None and count >= args.limit:
            break
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canvdw",
        description="Witness search and certificates for typed interval colourings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="find a witness in a colouring")
    p.add_argument("--colouring", required=True)
    p.add_argument("--mono", help="mono family file")
    p.add_argument("--rainbow", help="rainbow family file")
    _add_policy_flags(p)
    p.add_argument("--out", help="write the certificate to this file")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="re-check a certificate against a colouring")
    p.add_argument("--colouring", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("number", help="least length with no witness-free colouring")
    _add_search_flags(p)
    p.add_argument("--naive", action="store_true", help="use the brute-force oracle engine")
    p.set_defaults(func=_cmd_number)

    p = sub.add_parser("extremal", help="witness-free colourings of a given length")
    _add_search_flags(p)
    p.add_argument("--at-length", type=int, required=True, help="length to enumerate at")
    p.add_argument("--limit", type=int, default=None, help="return at most this many")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("hvalue", help="shift-collision threshold of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_hvalue)

    p = sub.add_parser("weight", help="weight vector of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("bstar", help="derived rainbow family of shifted differences")
    p.add_argument("--family", required=True)
    p.add_argument("--h", type=int, default=0, help="shift threshold (default: 0)")
    p.add_argument("--d-cap", type=int, required=True, help="largest step to use")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bstar)

    p = sub.add_parser("scale", help="replace each member p(x) by p(N*x)/N")
    p.add_argument("--family", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("enumerate", help="canonical single-coordinate colourings")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-classes", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliInputError as e:
        return _err(str(e))
    except ValueError as e:
        return _err(str(e))


if __name__ == "__main__":
    sys.exit(main())
