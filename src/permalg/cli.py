"""Command-line front end.

Exit codes: 0 success, 1 mathematical negative (not a Lie element, an
identity that fails, an invalid algebra, a nontrivial overlap), 2 input
error.  Expression trees are walked on explicit stacks, so a word of any
length works; only the expression parser and the JSON reader recurse, and
input nested too deeply for them is an input error too.  ``--json`` switches
every command to a stable machine-readable report; ``PERMALG_OUTPUT=json``
makes that the default.

A call is mostly interpreter start and imports, so the front end uses the
standard library only.  Commands are declared in a table
(``_Group.command``) and parsed by hand with click's conventions: options
and the argument in any order, ``--name=value`` or ``--name value``, an
option's value taken verbatim even when it starts with ``-``, ``--`` before
an argument that does, and click's usage-error text on stderr.  ``main``
serves every entry point: calling it (the console script and
``python -m permalg``) parses ``sys.argv``, and its ``name`` and its
``main(args, prog_name)`` method are all that
``click.testing.CliRunner.invoke`` uses, so tests drive the CLI in process
while this module imports no click.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__

# Library modules are imported inside the commands that use them, so each
# call compiles and loads only what it needs (``dims`` loads only
# ``permalg.perm``).
if TYPE_CHECKING:
    from .envelope import Envelope
    from .metabelian import MetabelianLieAlgebra
    from .perm import PermPolynomial

_JSON_DEFAULT = os.environ.get("PERMALG_OUTPUT", "text").strip().lower() == "json"
BN_LIMIT = 10**6  # the most f-elements ``bn`` lists; a larger basis exits 2
GK_LIMIT = 10**7  # the most digits ``gk`` may print, bounded from --max-deg and |Z|; more exits 2
BUILD_LIMIT = 10**7  # the most basis letters ``envelope build`` prints; more exits 2
RULES_LIMIT = 10**5  # the most rules ``envelope build`` builds (about 2 s of them); more exits 2
CHECK_LIMIT = 10**6  # the most overlap words ``envelope check`` reduces; more exits 2


class UsageError(Exception):
    """Bad input: exit 2 after the usage lines of ``where``, the command
    the input was given to (``()`` for a malformed option: no usage)."""

    def __init__(self, message: str, where: tuple | None = None) -> None:
        super().__init__(message)
        self.where = where


class _Param:
    """An option such as ``--gens``, a flag when it has no metavar, or a
    positional argument when the name has no leading dash."""

    def __init__(self, name: str, metavar: str = "", help: str = "", default=None) -> None:
        self.name, self.metavar, self.help, self.default = name, metavar, help, default

    def value(self, raw):
        """``raw`` (``None`` when not given) converted and checked."""
        if not self.metavar:
            return bool(raw)
        if raw is None:
            raise UsageError(f"Missing {'option' if self.name[0] == '-' else 'argument'} {self.name!r}.")
        if self.metavar == "INTEGER":
            try:
                return int(raw)
            except ValueError:
                problem = f"{raw!r} is not a valid integer."
        elif self.metavar == "FILE":
            problem = (
                "does not exist." if not os.path.exists(raw)
                else "is a directory." if os.path.isdir(raw)
                else "is not readable." if not os.access(raw, os.R_OK)
                else None
            )
            if problem is None:
                return raw
            # undecodable bytes of the name show as U+FFFD, as in click
            problem = f"File {raw.encode('utf-8', 'surrogateescape').decode('utf-8', 'replace')!r} {problem}"
        else:
            return raw
        raise UsageError(f"Invalid value for {self.name!r}: {problem}")

    def row(self) -> tuple[str, str]:
        extra = self.metavar and ("required" if self.default is None else f"default: {self.default}")
        return f"{self.name} {self.metavar}".rstrip(), "  ".join(filter(None, [self.help, extra and f"[{extra}]"]))


_EXPRESSION = _Param("EXPRESSION", "TEXT")
_GENS, _DEG = _Param("--gens", "INTEGER"), _Param("--deg", "INTEGER")
_ALGEBRA = _Param("--algebra", "FILE")
_UNICODE = _Param("--unicode", help="render dots as diacritics")
_JSON = _Param("--json", help="emit a JSON report", default=_JSON_DEFAULT)
_HELP = _Param("--help", help="Show this message and exit.")
_VERSION = _Param("--version", help="Show the version and exit.")


def _suggest(name: str, choices) -> str:
    from difflib import get_close_matches

    close = ", ".join(map(repr, sorted(get_close_matches(name, choices))))
    return "" if not close else f" Did you mean {close}?" if "," not in close else f" (Did you mean one of: {close}?)"


def _scan(params, args: list[str], interspersed: bool) -> tuple[dict, list[str]]:
    """Split ``args`` as click does into the options given (raw value, or
    True for a flag; in order of first use, the last value wins) and the
    other arguments.  ``--`` ends the options, and so does a group's first
    argument."""
    options = {p.name: p for p in params if p.name[0] == "-"}
    seen, rest, args = {}, [], list(args)
    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                args.insert(0, arg)
                break
            rest.append(arg)
            continue
        name, eq, value = arg.partition("=")
        p = options.get(name)
        if p is None:  # "-x..." would be short options, and there are none
            raise UsageError(f"No such option {name!r}.{_suggest(name, options)}" if arg[:2] == "--" else f"No such option {arg[:2]!r}.")
        if eq and not p.metavar:
            raise UsageError(f"Option {name!r} does not take a value.", ())
        if p.metavar and not eq:
            if not args:
                raise UsageError(f"Option {name!r} requires an argument.", ())
            value = args.pop(0)
        seen[p] = value if p.metavar else True
    return seen, rest + args


def _table(rows) -> list[str]:
    rows = list(rows)
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]


def _help(obj, path: str, stream=None, code: int = 0):
    lines = [f"Usage: {path} {obj.usage}", "", f"  {obj.help}", "", "Options:"]
    lines += _table(p.row() for p in obj.params if p.name[0] == "-")
    if isinstance(obj, _Group):
        # each command's help cut at a word to fit 78 columns, as click does
        limit = 72 - max(map(len, obj.commands))
        rows = sorted((name, cmd.help) for name, cmd in obj.commands.items())
        lines += ["", "Commands:"]
        lines += _table((n, h if len(h) <= limit else h[: h.rfind(" ", 0, limit - 2)] + "...") for n, h in rows)
    print("\n".join(lines), file=stream)
    sys.exit(code)


def _prog_name() -> str:
    # click's program name: "python -m <package>", or the script's file name
    path, package = sys.argv[0], getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(path)
    name = os.path.splitext(os.path.basename(path))[0]
    return "python -m " + (package if name == "__main__" else f"{package}.{name}").lstrip(".")


def _dispatch(obj, args: list[str], path: str) -> None:
    try:
        obj.run(args, path)
    except UsageError as exc:
        if exc.where is None:
            exc.where = (obj, path)
        raise


class _Command:
    def __init__(self, fn, params) -> None:
        self.fn, self.help, self.params = fn, fn.__doc__ or "", (*params, _JSON, _HELP)
        self.usage = "[OPTIONS]" + "".join(f" {p.name}" for p in params if p.name[0] != "-")

    def run(self, args: list[str], path: str) -> None:
        seen, rest = _scan(self.params, args, interspersed=True)
        if _HELP in seen:
            _help(self, path)
        # checked in click's order: the options given, the argument, the rest
        positional, values = iter(rest), {_HELP: None}
        for p in [*seen, *(p for p in self.params if p.name[0] != "-"), *self.params]:
            if p not in values:
                values[p] = p.value(next(positional, None) if p.name[0] != "-" else seen.get(p, p.default))
        extra = list(positional)
        if extra:
            raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
        self.fn(*(values[p] for p in self.params[:-1]))


class _Group:
    usage = "[OPTIONS] COMMAND [ARGS]..."

    def __init__(self, name: str, help: str, *params: _Param) -> None:
        self.name, self.help, self.params, self.commands = name, help, (*params, _HELP), {}

    def command(self, name: str, *params: _Param):
        def register(fn):
            self.commands[name] = _Command(fn, params)
            return fn

        return register

    def _options(self, args: list[str], path: str) -> list[str]:
        seen, rest = _scan(self.params, args, interspersed=False)
        for p in seen:  # --help or --version, whichever came first
            if p is _HELP:
                _help(self, path)
            print(f"permalg, version {__version__}")
            sys.exit(0)
        return rest

    def run(self, args: list[str], path: str) -> None:
        if not args:
            _help(self, path, sys.stderr, 2)
        rest = self._options(args, path)
        if not rest:
            raise UsageError("Missing command.")
        name, rest = rest[0], rest[1:]
        if name not in self.commands:
            if name.startswith("-"):  # it followed "--"; click reads it as an option again
                self._options([name, *rest], path)
            raise UsageError(f"No such command {name!r}.{_suggest(name, self.commands)}")
        _dispatch(self.commands[name], rest, f"{path} {name}")

    def main(self, args: list[str] | None = None, prog_name: str | None = None) -> None:
        """Run ``args`` (default ``sys.argv[1:]``); exit 1 or 2 on failure.
        ``CliRunner.invoke`` calls this with both arguments, as it would
        click's ``Command.main``."""
        # exact numbers print in full however long; Python 3.10.7+ caps
        # int-to-str at 4300 digits by default (3.10.0-3.10.6 has no cap)
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        try:
            _dispatch(self, sys.argv[1:] if args is None else list(args), prog_name or _prog_name())
        except UsageError as exc:
            if exc.where:
                obj, path = exc.where
                print(f"Usage: {path} {obj.usage}\nTry '{path} --help' for help.\n", file=sys.stderr)
            print(f"Error: {exc}", file=sys.stderr)
            sys.exit(2)
        except BrokenPipeError:  # the reader left: exit 1, drop what is still buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except (EOFError, KeyboardInterrupt):
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)

    __call__ = main


main = _Group("main", "Exact computer algebra for free perm algebras.", _VERSION)


def _emit(as_json: bool, data: dict, text: str, code: int = 0) -> None:
    """Print the report, then exit with ``code`` unless it is 0."""
    # one write and a flush, as click.echo does: a reader that has gone
    # away shows the same way, and inside ``main``
    out = (json.dumps(data, indent=2) if as_json else text) + "\n"
    try:
        sys.stdout.write(out)
    except UnicodeEncodeError:  # a stream declared ASCII: click writes UTF-8
        sys.stdout.buffer.write(out.encode())
    sys.stdout.flush()
    if code:
        sys.exit(code)


def _parse_or_usage(parser, *args):
    # ExprSyntaxError, UnboundSlotError, a template's slot checks and
    # to_bn's length check are ValueErrors; the recursive-descent parser is
    # the one walk that recurses
    try:
        return parser(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except RecursionError:
        raise UsageError("input is nested too deeply") from None


def _expanded(expression: str) -> PermPolynomial:
    from .parser import parse_expr

    return _parse_or_usage(lambda t: parse_expr(t).expand(), expression)


def _algebra_or_usage(path: str) -> MetabelianLieAlgebra:
    from .metabelian import AlgebraFormatError, load_algebra

    try:
        return load_algebra(path)
    except (AlgebraFormatError, OSError) as exc:
        raise UsageError(str(exc)) from None


def _exit_invalid(exc: Exception) -> None:
    print(f"algebra is not a valid metabelian Lie algebra: {exc}", file=sys.stderr)
    sys.exit(1)


def _envelope_or_exit(algebra: MetabelianLieAlgebra) -> Envelope:
    """The ``Envelope``, which validates and splits: call it once the job is sized."""
    from .envelope import Envelope
    from .metabelian import InvalidLieAlgebra

    try:
        return Envelope(algebra)
    except InvalidLieAlgebra as exc:
        _exit_invalid(exc)


def _emit_expansion(expression: str, as_json: bool) -> None:
    poly = _expanded(expression)
    terms = [{"coefficient": str(c), "word": list(m.word())} for m, c in poly.terms()]
    _emit(as_json, {"input": expression, "terms": terms, "text": str(poly)}, str(poly))


@main.command("normalize", _EXPRESSION)
def normalize(expression: str, as_json: bool) -> None:
    """Canonical word-basis form of an expression."""
    _emit_expansion(expression, as_json)


@main.command("expand", _EXPRESSION)
def expand(expression: str, as_json: bool) -> None:
    """Expand commutators and anticommutators into the word basis."""
    _emit_expansion(expression, as_json)


def _emit_lie(expression: str, as_json: bool, label: str) -> None:
    from .lie import NotLieElement, lie_express

    poly = _expanded(expression)
    try:
        expr = lie_express(poly)
    except NotLieElement as exc:
        data = {"input": expression, "is_lie": False, "defect": str(exc.defect)}
        _emit(as_json, data, f"not a Lie element; defect: {exc.defect}", 1)
    _emit(as_json, {"input": expression, "is_lie": True, "expression": str(expr)}, f"{label}{expr}")


@main.command("is-lie", _EXPRESSION)
def is_lie_cmd(expression: str, as_json: bool) -> None:
    """Decide commutator expressibility; prints the expression when it exists."""
    _emit_lie(expression, as_json, "Lie element: ")


@main.command("lie-express", _EXPRESSION)
def lie_express_cmd(expression: str, as_json: bool) -> None:
    """Write the input as left-normed commutator words."""
    _emit_lie(expression, as_json, "")


@main.command("jordan-express", _EXPRESSION)
def jordan_express_cmd(expression: str, as_json: bool) -> None:
    """Write the input through anticommutators, when possible."""
    from .jordan import NotJordanElement, jordan_express

    poly = _expanded(expression)
    try:
        expr = jordan_express(poly)
    except NotJordanElement as exc:
        data = {"input": expression, "is_jordan": False, "offending": str(exc.component)}
        _emit(as_json, data, f"not a Jordan element; offending component: {exc.component}", 1)
    _emit(as_json, {"input": expression, "is_jordan": True, "expression": str(expr)}, str(expr))


@main.command(
    "check-identity",
    _Param("--template", "TEXT", "identity as 'lhs = rhs'"),
    _Param("--polarized", help="same single substitution; only the reported mode differs"),
)
def check_identity_cmd(template_text: str, polarized: bool, as_json: bool) -> None:
    """Verify a candidate law over slot variables."""
    from .expr import check_identity
    from .parser import parse_template

    template = _parse_or_usage(parse_template, template_text)
    verdict = check_identity(template)
    witness = verdict.counterexample and {n: f"x{g}" for n, g in zip(template.names, verdict.counterexample)}
    data = {
        "template": template_text,
        "mode": "polarized" if polarized else "multilinear",
        "holds": verdict.holds,
        "counterexample": witness,
        "residual": None if verdict.residual is None else str(verdict.residual),
    }
    if verdict.holds:
        _emit(as_json, data, "holds")
    else:
        named = ", ".join(f"{k}={v}" for k, v in witness.items())
        _emit(as_json, data, f"fails with witness {named}; residual: {verdict.residual}", 1)


@main.command("dims", _GENS, _DEG)
def dims(k: int, n: int, as_json: bool) -> None:
    """Dimension of the degree-n component on k generators."""
    from .perm import dimension

    if k < 1 or n < 1:
        raise UsageError("need --gens >= 1 and --deg >= 1")
    d = dimension(k, n)
    _emit(as_json, {"generators": k, "degree": n, "dimension": d}, f"dim of degree-{n} component on {k} generators: {d}")


@main.command("bn", _GENS, _DEG)
def bn(k: int, n: int, as_json: bool) -> None:
    """List the f-element basis of the given degree."""
    from .jordan import bn_basis
    from .perm import dimension

    if k < 1 or n < 3:
        raise UsageError("need --gens >= 1 and --deg >= 3")
    # the basis has one element per word of the component: size it first
    count = dimension(k, n)
    if count > BN_LIMIT:
        raise UsageError(f"bn would list {count} elements; the limit is {BN_LIMIT}")
    elements = [str(e) for e in bn_basis(k, n)]
    data = {"generators": k, "degree": n, "count": len(elements), "elements": elements}
    _emit(as_json, data, "\n".join(elements) + f"\ncount: {len(elements)}")


@main.command("to-bn", _Param("WORD", "TEXT"))
def to_bn_cmd(word: str, as_json: bool) -> None:
    """Rewrite a left-normed product word into f-elements."""
    from .jordan import to_bn
    from .parser import parse_word
    from .perm import format_linear

    letters = _parse_or_usage(parse_word, word)
    combo = _parse_or_usage(to_bn, letters)
    text = format_linear((c, str(fe)) for c, fe in combo)
    terms = [{"coefficient": str(c), "head": fe.head, "args": list(fe.args)} for c, fe in combo]
    _emit(as_json, {"word": list(letters), "combination": terms, "text": text}, text)


@main.command("cohn-witness")
def cohn_witness_cmd(as_json: bool) -> None:
    """Run the two-generator exceptional-quotient computation."""
    from .jordan import cohn_witness

    report = cohn_witness()
    lines = [
        f"ideal generators (anticommutator ambient): {', '.join(report.generator_texts)}",
        f"witness b = {report.witness}",
        f"anticommutator ideal slice at x^2*y: dim {report.ideal_slice_dim}",
        f"associative ideal slice at x^2*y:   dim {report.perm_slice_dim}",
        f"anticommutator subalgebra slice:    dim {report.sj_slice_dim}",
        f"b in anticommutator ideal slice: {report.in_ideal_slice}",
        f"b in associative ideal slice:    {report.in_perm_slice}",
        f"b in anticommutator subalgebra:  {report.in_sj_slice}",
        f"quotient admits no anticommutator realization: {report.exceptional}",
        f"note: {report.note}",
    ]
    _emit(as_json, report.as_dict(), "\n".join(lines), 0 if report.exceptional else 1)


envelope = main.commands["envelope"] = _Group("envelope", "Enveloping perm algebras of metabelian Lie algebras.")


@envelope.command("build", _ALGEBRA, _DEG, _UNICODE)
def envelope_build(path: str, d: int, use_unicode: bool, as_json: bool) -> None:
    """Relations and normal-form basis monomials up to a degree."""
    from .envelope import letter_count, rule_count

    if d < 1:
        raise UsageError("need --deg >= 1")
    algebra = _algebra_or_usage(path)
    dim, y = algebra.dim, algebra.derived_dim()
    # rules first: under RULES_LIMIT, |Z| is small enough that the letters count fast
    if (count := rule_count(dim, y)) > RULES_LIMIT:
        raise UsageError(f"envelope build would build {count} rules; the limit is {RULES_LIMIT}")
    if (letters := letter_count(dim, y, d)) > BUILD_LIMIT:  # the output grows with the letters printed
        raise UsageError(f"envelope build would print {letters} basis letters; the limit is {BUILD_LIMIT}")
    env = _envelope_or_exit(algebra)
    rules = env.rules()
    basis = env.basis_up_to(d)
    data = {
        "algebra": {"dim": env.dim, "labels": list(env.algebra.labels)},
        "split": {
            "derived": [env.label(i) for i in range(1, env.y_count + 1)],
            "complement": [env.label(i) for i in env.z_indices],
            "changed_basis": env.split.changed_basis,
        },
        "rules": [env.rule_str(r) for r in rules],
        "basis": {str(n): [env.monomial_str(m) for m in monos] for n, monos in basis.items()},
        "counts": {str(n): len(monos) for n, monos in basis.items()},
    }
    lines = [
        f"derived letters: {', '.join(data['split']['derived']) or '(none)'}",
        f"complement letters: {', '.join(data['split']['complement'])}",
        "rules:",
    ]
    lines += [f"  {env.rule_str(r, use_unicode)}" for r in rules]
    for n, monos in basis.items():
        rendered = ", ".join(env.monomial_str(m, use_unicode) for m in monos)
        lines.append(f"degree {n} ({len(monos)}): {rendered}")
    _emit(as_json, data, "\n".join(lines))


@envelope.command("nf", _ALGEBRA, _EXPRESSION, _UNICODE)
def envelope_nf(path: str, expression: str, use_unicode: bool, as_json: bool) -> None:
    """Normal form of a dotted-word expression (dots spelled d(name))."""
    from .parser import parse_envelope_expr

    algebra = _algebra_or_usage(path)
    # the expression is read in original labels, so a malformed one exits 2 before the split
    terms = _parse_or_usage(parse_envelope_expr, expression, algebra.labels)
    env = _envelope_or_exit(algebra)
    nf = env.normal_form(env.element_from_original(terms))
    terms = [
        {"coefficient": str(c), "dotted": env.label(m.head), "tail": [env.label(i) for i in m.tail]}
        for m, c in nf.terms()
    ]
    data = {"input": expression, "normal_form": env.element_str(nf), "terms": terms}
    _emit(as_json, data, env.element_str(nf, use_unicode))


@envelope.command(
    "check",
    _ALGEBRA,
    _Param("--seed", "INTEGER", "seed for the random strategy-agreement check", 0),
)
def envelope_check(path: str, seed: int, as_json: bool) -> None:
    """Validate the algebra, reduce all overlaps, and verify the embedding."""
    from .envelope import Envelope, overlap_count
    from .metabelian import InvalidLieAlgebra

    algebra = _algebra_or_usage(path)
    if (overlaps := overlap_count(algebra.dim, algebra.derived_dim())) > CHECK_LIMIT:
        raise UsageError(f"envelope check would reduce {overlaps} overlap words; the limit is {CHECK_LIMIT}")
    try:
        env = Envelope(algebra)
    except InvalidLieAlgebra as exc:
        data = {
            "valid": False,
            "jacobi_violations": [list(t) for t, _ in exc.report.jacobi_violations],
            "metabelian_violations": [list(t) for t, _ in exc.report.metabelian_violations],
        }
        _emit(as_json, data, f"invalid algebra: {data}", 1)
    comps = env.check_compositions()
    embed = env.embed_check()
    agreement = env.strategy_agreement(words=50, seed=seed)
    ok = comps.all_trivial and embed.ok and agreement.ok
    nontrivial = [
        {"kind": e.kind, "letters": list(e.letters), "residual": e.residual} for e in comps.entries if not e.trivial
    ]
    data = {
        "valid": True,
        "compositions": {"total": len(comps.entries), "all_trivial": comps.all_trivial, "nontrivial": nontrivial},
        "embedding": {"checked": embed.checked, "ok": embed.ok},
        "confluence": {"seed": seed, "words": agreement.words, "agree": agreement.ok},
        "ok": ok,
    }
    lines = [
        "algebra valid: True",
        f"overlaps reduced: {len(comps.entries)}, all trivial: {comps.all_trivial}",
        f"embedding pairs checked: {embed.checked}, ok: {embed.ok}",
        f"strategy agreement on {agreement.words} random words (seed {seed}): {agreement.ok}",
    ]
    _emit(as_json, data, "\n".join(lines), 0 if ok else 1)


@main.command("gk", _ALGEBRA, _Param("--max-deg", "INTEGER"))
def gk(path: str, dmax: int, as_json: bool) -> None:
    """Growth table and slope estimate for the enveloping algebra."""
    from .envelope import gk_estimate
    from .metabelian import InvalidLieAlgebra

    if dmax < 4:
        raise UsageError("need --max-deg >= 4")
    algebra = _algebra_or_usage(path)
    dim, y = algebra.dim, algebra.derived_dim()
    # each row prints three numbers, each at most the last cumulative count
    # |Y| - 1 + C(dmax + k, k) <= dim + (dmax + k)^min(dmax, k), with k = |Z|
    k = dim - y
    if (digits := 3 * dmax * (min(dmax, k) * len(str(dmax + k)) + len(str(dim)))) > GK_LIMIT:
        raise UsageError(f"gk would print up to {digits} digits; the limit is {GK_LIMIT}")
    if not (valid := algebra.validate()).ok:
        _exit_invalid(InvalidLieAlgebra(valid))
    report = gk_estimate(dim, y, dmax)
    data = {
        "dmax": dmax,
        "degrees": list(report.degrees),
        "per_degree": list(report.per_degree),
        "cumulative": list(report.cumulative),
        "fit_window": list(report.window),
        "loglog_slope": f"{report.loglog_slope:.6f}",
        "slope": f"{report.slope:.6f}",
    }
    lines = ["degree  count  cumulative"]
    lines += [f"{d:6d} {c:6d} {t:11d}" for d, c, t in zip(report.degrees, report.per_degree, report.cumulative)]
    lines.append(f"log-log least-squares slope over degrees {report.window[0]}..{report.window[1]}: {report.loglog_slope:.6f}")
    lines.append(f"extrapolated slope (headline): {report.slope:.6f}")
    _emit(as_json, data, "\n".join(lines))


if __name__ == "__main__":
    main()
