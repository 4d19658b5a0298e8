"""Command-line surface for the engine."""

from __future__ import annotations

import argparse
import os
import sys
import time

from .algebra import lie_closure
from .errors import (
    AlphabetMismatch,
    BadParams,
    DiffidentError,
    NonSplitCenter,
    NotADerivation,
    NotAssociative,
    NotAUnit,
    NotMultilinear,
    ParseError,
    SizeCap,
    WordCapExceeded,
)
from .fileformat import AlgebraFile, check_multilinear, parse_algebra_file, parse_polynomial

_INPUT_ERRORS = (
    ParseError,
    BadParams,
    NotAssociative,
    NotADerivation,
    NotAUnit,
    NotMultilinear,
    AlphabetMismatch,
    NonSplitCenter,
)
_BUDGET_ERRORS = (SizeCap, WordCapExceeded)


def _config() -> dict:
    """Settings from the file named by DIFFIDENT_CONFIG: key=value lines."""
    cfg = {"seed": 0, "max_entries": 10**7}
    path = os.environ.get("DIFFIDENT_CONFIG")
    if not path:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config: {exc}", path)
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in cfg:
            try:
                cfg[key] = int(value)
            except ValueError:
                raise ParseError(
                    f"config {key} must be an integer, not {value!r}", f"{path}:{lineno}"
                )
    return cfg


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 ({exc.reason} at byte {exc.start})", path)


def _load(path: str) -> AlgebraFile:
    return parse_algebra_file(_read_text(path))


def _action_for(f: AlgebraFile, names):
    alg, ders = f.to_algebra()
    if names:
        by_name = {d.name: d for d in ders}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise BadParams(f"no derivations named {missing} in {f.name}")
        chosen = [by_name[n] for n in names]
    else:
        chosen = ders
    return alg, lie_closure(alg, chosen), [d.name for d in chosen]


def _report_header(out, command: str, source: str, cfg: dict, extra=()):
    out.append("diffident-report")
    out.append(f"command {command}")
    out.append(f"input {source}")
    out.append("config seed={seed} max_entries={max_entries}".format(**cfg))
    out.extend(extra)


def _action_report(args, cfg, command: str, extra=()):
    """(f, alg, act, names, out): the input file, its algebra and action,
    the chosen derivation names, and the report lines so far (header,
    algebra and action)."""
    f = _load(args.infile)
    alg, act, names = _action_for(f, args.action)
    out = []
    _report_header(out, command, args.infile, cfg, extra)
    out.append(f"algebra {f.name} dim {alg.dim}")
    out.append("action " + (" ".join(names) if names else "(trivial)"))
    return f, alg, act, names, out


def _emit(out) -> None:
    sys.stdout.write("\n".join(out) + "\nend\n")


def cmd_gen(args, cfg) -> int:
    from .shipped import shipped_algebra_file

    f = shipped_algebra_file(args.name, args.params, cfg["max_entries"])
    text = f.serialize()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output: {exc.strerror}", args.output)
    else:
        sys.stdout.write(text)
    return 0


def cmd_radical(args, cfg) -> int:
    from .structure import radical

    f = _load(args.infile)
    alg, _ders = f.to_algebra()
    j = radical(alg)
    out = []
    _report_header(out, "radical", args.infile, cfg)
    out.append(f"algebra {f.name} dim {alg.dim}")
    out.append(f"radical dim {j.dim}")
    for v in j.basis:
        out.append("basis " + " ".join(str(x) for x in v))
    _emit(out)
    return 0


def cmd_decompose(args, cfg) -> int:
    from .structure import wedderburn_malcev

    f = _load(args.infile)
    alg, _ders = f.to_algebra()
    wd = wedderburn_malcev(alg)
    out = []
    _report_header(out, "decompose", args.infile, cfg)
    out.append(f"algebra {f.name} dim {alg.dim}")
    out.append(f"radical dim {wd.radical.dim}")
    out.append(" ".join(["blocks"] + [str(b.dim) for b in wd.blocks]))
    for i, (b, u) in enumerate(zip(wd.blocks, wd.block_units)):
        out.append(f"block {i + 1} dim {b.dim} unit " + " ".join(str(x) for x in u))
        for v in b.basis:
            out.append(f"block {i + 1} basis " + " ".join(str(x) for x in v))
    _emit(out)
    return 0


def cmd_envelope(args, cfg) -> int:
    _f, _alg, act, _names, out = _action_report(args, cfg, "envelope")
    out.append(f"closure dim {act.closure_dim}")
    out.append(f"envelope dim {act.envelope.dim}")
    for w in act.envelope.word_reps:
        label = ".".join(act.closure_basis[i].name or f"d{i}" for i in w) or "1"
        out.append(f"word {label}")
    _emit(out)
    return 0


def cmd_codim(args, cfg) -> int:
    from .piengine import Monomials, codim
    from .shipped import identify_shipped, known_formula

    if args.max_n < 1:
        raise BadParams(f"--max-n must be at least 1, not {args.max_n}")
    extra = [f"mode {args.mode}"]
    if args.mode == "modular":
        extra.append(
            "bound lower: each c is the rank modulo one 31-bit prime"
            f" drawn from seed {cfg['seed']}"
        )
    f, alg, act, names, out = _action_report(args, cfg, "codim", extra)
    values = {}
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        values[n] = codim(
            alg,
            act,
            n,
            mode=args.mode,
            seed=cfg["seed"],
            max_entries=cfg["max_entries"],
        )
        monomials = Monomials(n, act.envelope.dim).count
        elapsed = time.monotonic() - start
        print(f"n {n} monomials {monomials} rank {values[n]} {elapsed:.2f}s", file=sys.stderr)
        out.append(f"n {n} c {values[n]}")
    ident = identify_shipped(f)
    if ident is not None:
        name, info = ident
        out.append(f"note matches shipped generator {name} checksum {info['checksum']}")
        formula = known_formula(name, info, names)
        if formula is not None:
            desc, fn = formula
            for n, v in values.items():
                expect = fn(n)
                verdict = "agrees" if expect == v else f"MISMATCH (formula {expect})"
                out.append(f"formula {desc} n {n} {verdict}")
    _emit(out)
    return 0


def cmd_exponent(args, cfg) -> int:
    from .exponent import exp_differential, exp_ordinary

    _f, alg, act, _names, out = _action_report(args, cfg, "exponent")
    ordinary = exp_ordinary(alg)
    diff = exp_differential(alg, act)
    out.append(
        f"exp {ordinary.value} witness "
        + " ".join(str(i + 1) for i in ordinary.witness_sequence)
    )
    out.append(
        f"exp-L {diff.value} witness "
        + " ".join(str(i + 1) for i in diff.witness_sequence)
    )
    _emit(out)
    return 0


def cmd_classify(args, cfg) -> int:
    from .exponent import classify_growth

    _f, alg, act, _names, out = _action_report(args, cfg, "classify")
    rep = classify_growth(alg, act)
    out.append(f"classification {rep.classification}")
    out.append(f"exp-L {rep.exponent.value}")
    for label, entry in sorted(rep.evidence.items()):
        status = "excluded" if entry["excluded"] else "no-certificate"
        deg = entry["degree"] if entry["degree"] is not None else "-"
        out.append(f"evidence {label} {status} degree {deg} (heuristic)")
    _emit(out)
    return 0


def cmd_verify_gk(args, cfg) -> int:
    from .exponent import exp_differential, exp_ordinary

    _f, alg, act, _names, out = _action_report(args, cfg, "verify-gk")
    ordinary = exp_ordinary(alg).value
    diff = exp_differential(alg, act).value
    ok = ordinary == diff
    out.append(f"exp {ordinary}")
    out.append(f"exp-L {diff}")
    out.append("verdict " + ("PASS" if ok else "FAIL"))
    _emit(out)
    return 0 if ok else 1


def cmd_check_identity(args, cfg) -> int:
    from .piengine import is_identity

    _f, _alg, act, _names, out = _action_report(
        args, cfg, "check-identity", [f"poly {args.poly}"]
    )
    poly = parse_polynomial(_read_text(args.poly), act, cfg["max_entries"])
    check_multilinear(poly)
    holds, witness = is_identity(poly, act, witness=True, max_entries=cfg["max_entries"])
    out.append(f"result {'true' if holds else 'false'}")
    if witness is not None:
        out.append("witness basis tuple " + " ".join(str(b + 1) for b in witness))
    _emit(out)
    return 0


def cmd_battery(args, cfg) -> int:
    from .acceptance import run_suite

    out = []
    _report_header(out, "battery", f"suite:{args.suite}", cfg)
    ran = failed = 0
    start = time.monotonic()
    for r in run_suite(args.suite):
        print(f"criterion {r.number} {time.monotonic() - start:.2f}s", file=sys.stderr)
        ran += 1
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        out.append(f"criterion {r.number} {status} {r.name}")
        out.append(f"criterion {r.number} detail {r.detail}")
        for flag in r.flags:
            out.append(f"criterion {r.number} flag {flag}")
        start = time.monotonic()
    out.append(f"summary {ran - failed}/{ran} passed")
    _emit(out)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diffident",
        description="Finite-dimensional algebras with derivation actions: "
        "structure theory, differential identities, codimensions, exponents.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a built-in algebra file")
    g.add_argument("name")
    g.add_argument("params", nargs="*")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_gen)

    for cmd, fn in (("radical", cmd_radical), ("decompose", cmd_decompose)):
        c = sub.add_parser(cmd)
        c.add_argument("infile")
        c.set_defaults(fn=fn)

    e = sub.add_parser("envelope")
    e.add_argument("infile")
    e.add_argument("--action", nargs="*", default=None)
    e.set_defaults(fn=cmd_envelope)

    c = sub.add_parser("codim")
    c.add_argument("infile")
    c.add_argument("--max-n", type=int, default=4)
    c.add_argument("--mode", choices=("exact", "modular"), default="exact")
    c.add_argument("--action", nargs="*", default=None)
    c.set_defaults(fn=cmd_codim)

    for cmd, fn in (
        ("exponent", cmd_exponent),
        ("classify", cmd_classify),
        ("verify-gk", cmd_verify_gk),
    ):
        c = sub.add_parser(cmd)
        c.add_argument("infile")
        c.add_argument("--action", nargs="*", default=None)
        c.set_defaults(fn=fn)

    c = sub.add_parser("check-identity")
    c.add_argument("infile")
    c.add_argument("--action", nargs="*", default=None)
    c.add_argument("--poly", required=True)
    c.set_defaults(fn=cmd_check_identity)

    b = sub.add_parser("battery")
    b.add_argument("--suite", default="all")
    b.set_defaults(fn=cmd_battery)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        cfg = _config()
        code = args.fn(args, cfg)
    except _BUDGET_ERRORS as exc:
        print(f"error budget: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error input: {exc}", file=sys.stderr)
        return 2
    except DiffidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall-clock {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
