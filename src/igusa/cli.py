"""Command-line front end: counting, zeta functions, resolution, reports.

`count --mode hensel`, `poincare`, `verify` and `divisibility` take their
counts M_0..M_k from one level-by-level Hensel pass; `count --mode naive`
enumerates every point mod p^i.  `--json` precedes the command word, whose
row of `COMMANDS` reads the flags after it as argparse would: spelt exactly,
`--flag=value`, `-x=value`, `-xVALUE`, a unique long prefix; a separate value
starting with `-` must be a negative number or hold a space.  An argument
error prints `usage error: ...` and exits 2.

Exit codes: 0 success, 1 verification mismatch or a divisibility violation,
2 usage error (bad arguments, a level below 0, a malformed zeta or chart
file, such as a zeta file with p not a prime int or a factor with N or nu
not an int >= 1, a `laurent` s0 that is no candidate pole -nu/N of its
zeta file, a p at or past the bound of `context.is_prime`) or a Hensel
level that would build more than `NAIVE_BUDGET` lifts, level 1 included,
3 unsupported input (a non-squarefree `resolve` germ, a non-rational
blowup center), 4 internal error (an ArithmeticError such as an exceeded
recursion depth, or a MemoryError: a run that outgrows the memory it may
use is no verification mismatch).

`--json` prints `json.dumps(value, indent=2)` byte for byte, as written by
`_dumps`: below Python 3.13 that call runs the stdlib's pure-Python encoder.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .charts import ChartCell, zeta_from_charts
from .context import PadicContext
from .counting import count_hensel, count_naive, poincare_truncation, verify_zeta_against_counts
from .divisibility import (
    check_divisibility,
    constructive_shift,
    min_shift,
    smallest_real_pole,
)
from .families import zeta_xy_zi
from .integrate2d import zeta_two_var
from .poly import parse_poly
from .resolve import UnsupportedGermError, resolve_germ
from .zeta import ZetaRational, laurent_at


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            a, b = text.split("/")
            return Fraction(int(a), int(b))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad fraction {text!r}") from e


def _load_json(path: str, parse):
    """parse() of the JSON in path; a file that does not fit the schema is
    a usage error."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except ZeroDivisionError as e:
            raise UsageError(f"zero denominator in {path}") from e
        except (KeyError, TypeError, ValueError) as e:
            raise UsageError(f"malformed file {path}: {e!r}") from e


# json.dumps(indent=2) runs in C from Python 3.13 on: _dumps can go when
# requires-python reaches 3.13
def _dumps(value, ind: str = "\n") -> str:
    """json.dumps(value, indent=2) at nesting ind (a newline and spaces).
    Exact str, int, bool, list, tuple and str-keyed dict are written here,
    the rest by json.dumps, re-indented: JSON text holds no raw newline in
    a string, so the bytes, or the error, are the same."""
    t, inner = type(value), ind + "  "
    if t is str:
        return encode_basestring_ascii(value)
    if t is int:
        return int.__repr__(value)
    if t is bool:
        return "true" if value else "false"
    if t is list or t is tuple:
        items = [_dumps(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{ind}]" if items else "[]"
    if t is dict and all(type(k) is str for k in value):
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{ind}}}" if items else "{}"
    return json.dumps(value, indent=2).replace("\n", ind)


def _emit(args, data: dict, text) -> None:
    """Print data as JSON under --json, else text(), built only then."""
    print(_dumps(data) if args.json else text())


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_count(args) -> int:
    f = parse_poly(args.f)
    ctx = PadicContext(args.p, f.nvars)
    counter = count_naive if args.mode == "naive" else count_hensel
    m = counter(f, args.p, args.i)
    _emit(args, {"p": args.p, "i": args.i, "count": m},
          lambda: f"M_{args.i} = {m} solutions of {f} = 0 mod {args.p}^{args.i}")
    return 0


def cmd_poincare(args) -> int:
    f = parse_poly(args.f)
    PadicContext(args.p, f.nvars)
    series = poincare_truncation(f, args.p, args.k)
    _emit(args, series.to_json(),
          lambda: "\n".join(f"M_{i} = {m}" for i, m in enumerate(series.counts())))
    return 0


def cmd_zeta(args) -> int:
    if sum(map(bool, (args.family, args.charts, args.f))) != 1:
        raise UsageError("give exactly one of --family, --charts or -f")
    p = args.p
    if args.f:
        f = parse_poly(args.f)
        if f.nvars != 2:
            raise UsageError(f"-f needs 2 variables, {f} has {f.nvars}")
        z = zeta_two_var(f, PadicContext(p, 2))
    elif args.charts:
        cells = _load_json(args.charts, lambda d: [ChartCell.from_json(c) for c in d])
        if not cells:
            raise UsageError(f"no chart cells in {args.charts}")
        if len({cell.n for cell in cells}) > 1:
            raise UsageError(f"chart cells of different dimensions in {args.charts}")
        ctx = PadicContext(p, cells[0].n)
        z = zeta_from_charts(cells, ctx)
    elif args.family == "sum-squares":
        z = zeta_two_var(parse_poly("x^2+y^2"), PadicContext(p, 2))
    else:  # xyzi: the option table's choices admit no other family
        if args.i is None:
            raise UsageError("xyzi needs --i")
        z = zeta_xy_zi(PadicContext(p, 3), args.i)
    _emit(args, z.to_json(), lambda: f"Z(t) = {z!r}")
    return 0


def cmd_resolve(args) -> int:
    f = parse_poly(args.f)
    tree = resolve_germ(f)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(tree.to_dot() + "\n")
    data = {
        "curves": [{"id": c.id, "N": c.N, "nu": c.nu} for c in tree.curves],
        "adjacency": sorted(sorted(e) for e in tree.adjacency),
        "strict_components": [
            {"attached_to": s.attached_to, "degree": s.degree}
            for s in tree.strict_components
        ],
    }
    _emit(args, data, lambda: "\n".join(
        [f"E{c.id}: (N,nu) = ({c.N},{c.nu})" for c in tree.curves]
        + [f"edge E{a} -- E{b}" for a, b in data["adjacency"]]) or "already normal crossings")
    return 0


def cmd_laurent(args) -> int:
    z = _load_json(args.zeta, ZetaRational.from_json)
    s0 = _fraction(args.s0)
    if not z.multiplicity(s0):
        cands = ", ".join(_fmt_frac(c) for c, _ in z.candidate_poles()) or "none"
        raise UsageError(f"s0 = {_fmt_frac(s0)} is not a candidate pole -nu/N of {args.zeta} "
                         f"(candidates: {cands})")
    exp = laurent_at(z, s0, extra=0)
    bs = {f"b_-{k}" if k else "b_0": exp.b(k) for k in range(exp.pole_order, -1, -1)}
    data = {"s0": _fmt_frac(s0), "pole_order": exp.pole_order,
            "coefficients": {name: b.to_json() for name, b in bs.items()}}
    _emit(args, data, lambda: "\n".join(
        [f"pole order {exp.pole_order} at s0 = {_fmt_frac(s0)}"]
        + [f"{name} = {b!r}" for name, b in bs.items()]))
    return 0


def cmd_poles(args) -> int:
    z = _load_json(args.zeta, ZetaRational.from_json).reduced()
    if args.chi_order < 1:
        raise ValueError("character order must be >= 1")
    cands = []
    for (N, nu), m in sorted(z.denominator.items()):
        if N % args.chi_order:
            continue
        cands.append({"N": N, "nu": nu, "real_part": _fmt_frac(Fraction(-nu, N)),
                      "real_pole": z.is_real_pole(Fraction(-nu, N))})
    _emit(args, {"candidates": cands},
          lambda: "\n".join(f"-{c['real_part'].lstrip('-')}: N={c['N']}, nu={c['nu']}, "
                             f"real pole: {c['real_pole']}" for c in cands) or "no candidates")
    return 0


def cmd_verify(args) -> int:
    f = parse_poly(args.f)
    z = _load_json(args.zeta, ZetaRational.from_json)
    if z.p != args.p:
        raise UsageError("--p does not match the zeta file")
    ok, predicted, actual = verify_zeta_against_counts(z, f, args.k)
    data = {"ok": ok, "predicted": predicted, "actual": actual}
    if ok:
        _emit(args, data, lambda: f"OK: counts match up to p^{args.k}: {actual}")
        return 0
    first = next(i for i in range(len(actual)) if predicted[i] != actual[i])
    _emit(args, data,
          lambda: f"MISMATCH at i={first}: zeta predicts {predicted[first]}, "
                  f"counting gives {actual[first]}")
    return 1


def cmd_divisibility(args) -> int:
    f = parse_poly(args.f)
    ctx = PadicContext(args.p, f.nvars)
    series = poincare_truncation(f, args.p, args.k)
    z = None
    if args.l is not None:
        l = _fraction(args.l)
    elif f.nvars == 2:
        z = zeta_two_var(f, ctx)
        l = smallest_real_pole(z)
    else:
        raise UsageError("--l is required unless f has exactly 2 variables")
    a_min = min_shift(series, l)
    # with Z known, the counts are checked against the shift Z constructs;
    # with --l alone, only the least shift of the counts themselves exists
    a = a_min if z is None else constructive_shift(z, f.nvars, l)[0]
    report = check_divisibility(series, l, a)
    data = report.to_json()
    data["a_min_empirical"] = a_min
    if z is not None:
        data["a_min_constructive"] = a
    _emit(args, data, lambda: f"l = {_fmt_frac(l)}, n = {f.nvars}, a_min = {a}, "
          f"checked i <= {args.k}: "
          + ("all divisibility bounds hold" if report.ok else "VIOLATIONS"))
    return 0 if report.ok else 1


_STR, _INT, _OPT = (str, True, None), (int, True, None), (str, False, None)
# command word: (handler, {flag: (kind, required, default)}); a kind is
# str, int or a tuple of choices, and None marks -h/--help
COMMANDS = {
    "count": (cmd_count, {"-f": _STR, "--p": _INT, "-i": _INT,
                          "--mode": (("naive", "hensel"), False, "hensel")}),
    "poincare": (cmd_poincare, {"-f": _STR, "--p": _INT, "-k": _INT}),
    "zeta": (cmd_zeta, {"--family": (("sum-squares", "xyzi"), False, None), "--charts": _OPT,
                        "-f": _OPT, "--i": (int, False, None), "--p": _INT}),
    "resolve": (cmd_resolve, {"-f": _STR, "--dot": _OPT}),
    # -m is ignored: the output is b_-k..b_0 at any -m
    "laurent": (cmd_laurent, {"--zeta": _STR, "--s0": _STR, "-m": (int, False, 2)}),
    "poles": (cmd_poles, {"--zeta": _STR, "--chi-order": (int, False, 1)}),
    "verify": (cmd_verify, {"-f": _STR, "--zeta": _STR, "--p": _INT, "-k": _INT}),
    "divisibility": (cmd_divisibility, {"-f": _STR, "--p": _INT, "-k": _INT, "--l": _OPT}),
}
for _, _options in COMMANDS.values():
    _options.update({"-h": (None, False, None), "--help": (None, False, None)})
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative numbers


def _flag(options: dict, token: str):
    """(flag, its attached value or None) if token names a flag of options,
    (None, token) if it looks like an unknown flag, None if it is a value."""
    if token in options:
        return token, None
    if len(token) < 2 or token[0] != "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] != "-":  # a one-letter flag with its value attached
        hits = [(token[:2], token[2:])] if token[:2] in options else []
    else:  # a unique prefix of a long flag ("--" alone is none)
        hits = [(o, value if eq else None) for o in options if o.startswith(name)] if name != "--" else []
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(o for o, _ in hits)}")
    return hits[0] if hits else None if _NUMBER.match(token) or " " in token else (None, token)


def _parse(options: dict, argv: list) -> SimpleNamespace | None:
    """The flags of argv read by options as argparse reads them (a repeated
    flag keeps its last value); None after -h or --help."""
    values = {flag: default for flag, (kind, _, default) in options.items() if kind}
    extra, i = [], 0
    while i < len(argv):
        flag, value = _flag(options, argv[i]) or (None, argv[i])
        i += 1
        if flag is None:
            extra.append(value)
            continue
        if (kind := options[flag][0]) is None:
            return None
        if value is None:
            if i == len(argv) or _flag(options, argv[i]) is not None:
                raise UsageError(f"argument {flag}: expected one argument")
            value, i = argv[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        values[flag] = value
    if missing := [f for f, (_, required, _) in options.items() if required and values[f] is None]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**{f.lstrip("-").replace("-", "_"): v for f, v in values.items()})


def _usage(cmd: str) -> str:
    """The usage line of cmd, from the option table."""
    words = [(f"{flag} " + ("{%s}" % ",".join(kind) if type(kind) is tuple else kind.__name__.upper())
              + ("" if default is None else f" (default {default})"), required)
             for flag, (kind, required, default) in COMMANDS[cmd][1].items() if kind]
    return f"usage: igusa-zeta [--json] {cmd} " + " ".join(w if r else f"[{w}]" for w, r in words)


def run(argv) -> int:
    as_json = argv[:1] == ["--json"]
    cmd, *rest = argv[as_json:] or [None]
    try:
        if cmd in ("-h", "--help"):
            print("usage: igusa-zeta [--json] COMMAND ...  or  igusa-zeta -h\n"
                  "Exact p-adic zeta functions; --json prints JSON.\n" + "\n".join(map(_usage, COMMANDS)))
            return 0
        if cmd not in COMMANDS:
            raise UsageError(f"give [--json] COMMAND ..., COMMAND one of {', '.join(COMMANDS)}")
        handler, options = COMMANDS[cmd]
        if (args := _parse(options, rest)) is None:
            print(_usage(cmd))
            return 0
        args.json = as_json
        return handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except UnsupportedGermError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as e:
        print(f"internal error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
