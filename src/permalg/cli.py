"""Command-line front end.

Exit codes: 0 success, 1 mathematical negative (not a Lie element, an
identity that fails, an invalid algebra, a nontrivial overlap), 2 input
error.  Expression trees are walked on explicit stacks, so a word of any
length works; only the expression parser and the JSON reader recurse, and
input nested too deeply for them is an input error too.  ``--json`` switches
every command to a stable machine-readable report; ``PERMALG_OUTPUT=json``
makes that the default.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING

import click

from . import __version__

# Library modules are imported inside the commands that use them, so each
# call compiles and loads only what it needs (``dims`` loads only
# ``permalg.perm``).
if TYPE_CHECKING:
    from .envelope import Envelope
    from .metabelian import MetabelianLieAlgebra
    from .perm import PermPolynomial

_JSON_DEFAULT = os.environ.get("PERMALG_OUTPUT", "text").strip().lower() == "json"


def _json_flag(f):
    return click.option(
        "--json", "as_json", is_flag=True, default=_JSON_DEFAULT, help="emit a JSON report"
    )(f)


def _emit(as_json: bool, data: dict, text: str) -> None:
    if as_json:
        click.echo(json.dumps(data, indent=2))
    else:
        click.echo(text)


def _poly_json(p: PermPolynomial) -> list[dict]:
    return [
        {"coefficient": str(c), "word": list(m.word())} for m, c in p.terms()
    ]


def _parse_or_usage(parser, *args):
    # ExprSyntaxError, UnboundSlotError and check_identity's slot limit are
    # ValueErrors; the recursive-descent parser is the one walk that recurses
    try:
        return parser(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    except RecursionError:
        raise click.UsageError("input is nested too deeply") from None


def _algebra_or_usage(path: str) -> MetabelianLieAlgebra:
    from .metabelian import AlgebraFormatError, load_algebra

    try:
        return load_algebra(path)
    except (AlgebraFormatError, OSError) as exc:
        raise click.UsageError(str(exc)) from None


def _load_or_usage(path: str) -> Envelope:
    from .envelope import Envelope, InvalidLieAlgebra

    algebra = _algebra_or_usage(path)
    try:
        return Envelope(algebra)
    except InvalidLieAlgebra as exc:
        click.echo(f"algebra is not a valid metabelian Lie algebra: {exc}", err=True)
        sys.exit(1)


@click.group()
@click.version_option(__version__, prog_name="permalg")
def main() -> None:
    """Exact computer algebra for free perm algebras."""
    # exact numbers print in full however long; Python 3.10.7+ caps
    # int-to-str at 4300 digits by default (3.10.0-3.10.6 has no cap)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _emit_expansion(expression: str, as_json: bool) -> None:
    from .parser import parse_expr

    poly = _parse_or_usage(lambda t: parse_expr(t).expand(), expression)
    _emit(as_json, {"input": expression, "terms": _poly_json(poly), "text": str(poly)}, str(poly))


@main.command()
@click.argument("expression")
@_json_flag
def normalize(expression: str, as_json: bool) -> None:
    """Canonical word-basis form of an expression."""
    _emit_expansion(expression, as_json)


@main.command()
@click.argument("expression")
@_json_flag
def expand(expression: str, as_json: bool) -> None:
    """Expand commutators and anticommutators into the word basis."""
    _emit_expansion(expression, as_json)


def _emit_lie(expression: str, as_json: bool, label: str) -> None:
    from .lie import NotLieElement, lie_express
    from .parser import parse_expr

    poly = _parse_or_usage(lambda t: parse_expr(t).expand(), expression)
    try:
        expr = lie_express(poly)
    except NotLieElement as exc:
        _emit(
            as_json,
            {"input": expression, "is_lie": False, "defect": str(exc.defect)},
            f"not a Lie element; defect: {exc.defect}",
        )
        sys.exit(1)
    _emit(
        as_json,
        {"input": expression, "is_lie": True, "expression": str(expr)},
        f"{label}{expr}",
    )


@main.command(name="is-lie")
@click.argument("expression")
@_json_flag
def is_lie_cmd(expression: str, as_json: bool) -> None:
    """Decide commutator expressibility; prints the expression when it exists."""
    _emit_lie(expression, as_json, "Lie element: ")


@main.command(name="lie-express")
@click.argument("expression")
@_json_flag
def lie_express_cmd(expression: str, as_json: bool) -> None:
    """Write the input as left-normed commutator words."""
    _emit_lie(expression, as_json, "")


@main.command(name="jordan-express")
@click.argument("expression")
@_json_flag
def jordan_express_cmd(expression: str, as_json: bool) -> None:
    """Write the input through anticommutators, when possible."""
    from .jordan import NotJordanElement, jordan_express
    from .parser import parse_expr

    poly = _parse_or_usage(lambda t: parse_expr(t).expand(), expression)
    try:
        expr = jordan_express(poly)
    except NotJordanElement as exc:
        _emit(
            as_json,
            {"input": expression, "is_jordan": False, "offending": str(exc.component)},
            f"not a Jordan element; offending component: {exc.component}",
        )
        sys.exit(1)
    _emit(
        as_json,
        {"input": expression, "is_jordan": True, "expression": str(expr)},
        str(expr),
    )


@main.command(name="check-identity")
@click.option("--template", "template_text", required=True, help="identity as 'lhs = rhs'")
@click.option("--polarized", is_flag=True, help="also substitute repeated-generator patterns")
@_json_flag
def check_identity_cmd(template_text: str, polarized: bool, as_json: bool) -> None:
    """Verify a candidate law over slot variables."""
    from .expr import check_identity
    from .parser import parse_template

    template = _parse_or_usage(parse_template, template_text)
    verdict = _parse_or_usage(check_identity, template, "polarized" if polarized else "multilinear")
    data = {
        "template": template_text,
        "mode": verdict.mode,
        "holds": verdict.holds,
        "counterexample": (
            None
            if verdict.counterexample is None
            else {
                chr(ord("a") + slot - 1): f"x{gen}"
                for slot, gen in enumerate(verdict.counterexample, start=1)
            }
        ),
        "residual": None if verdict.residual is None else str(verdict.residual),
    }
    if verdict.holds:
        _emit(as_json, data, "holds")
    else:
        witness = ", ".join(f"{k}={v}" for k, v in data["counterexample"].items())
        _emit(as_json, data, f"fails with witness {witness}; residual: {verdict.residual}")
        sys.exit(1)


@main.command()
@click.option("--gens", "k", type=int, required=True)
@click.option("--deg", "n", type=int, required=True)
@_json_flag
def dims(k: int, n: int, as_json: bool) -> None:
    """Dimension of the degree-n component on k generators."""
    from .perm import dimension

    if k < 1 or n < 1:
        raise click.UsageError("need --gens >= 1 and --deg >= 1")
    d = dimension(k, n)
    _emit(
        as_json,
        {"generators": k, "degree": n, "dimension": d},
        f"dim of degree-{n} component on {k} generators: {d}",
    )


@main.command()
@click.option("--gens", "k", type=int, required=True)
@click.option("--deg", "n", type=int, required=True)
@_json_flag
def bn(k: int, n: int, as_json: bool) -> None:
    """List the f-element basis of the given degree."""
    from .jordan import bn_basis

    if k < 1 or n < 3:
        raise click.UsageError("need --gens >= 1 and --deg >= 3")
    elements = bn_basis(k, n)
    _emit(
        as_json,
        {
            "generators": k,
            "degree": n,
            "count": len(elements),
            "elements": [str(e) for e in elements],
        },
        "\n".join(str(e) for e in elements) + f"\ncount: {len(elements)}",
    )


@main.command(name="to-bn")
@click.argument("word")
@_json_flag
def to_bn_cmd(word: str, as_json: bool) -> None:
    """Rewrite a left-normed product word into f-elements."""
    from .jordan import to_bn
    from .parser import parse_word
    from .perm import format_linear

    letters = _parse_or_usage(parse_word, word)
    if len(letters) < 3:
        raise click.UsageError("word must have length >= 3")
    combo = to_bn(letters)
    text = format_linear((c, str(fe)) for c, fe in combo)
    _emit(
        as_json,
        {
            "word": list(letters),
            "combination": [
                {"coefficient": str(c), "head": fe.head, "args": list(fe.args)}
                for c, fe in combo
            ],
            "text": text,
        },
        text,
    )


@main.command(name="cohn-witness")
@_json_flag
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
    _emit(as_json, report.as_dict(), "\n".join(lines))
    if not report.exceptional:
        sys.exit(1)


@main.group()
def envelope() -> None:
    """Enveloping perm algebras of metabelian Lie algebras."""


@envelope.command(name="build")
@click.option("--algebra", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--deg", "d", type=int, required=True)
@click.option("--unicode", "use_unicode", is_flag=True, help="render dots as diacritics")
@_json_flag
def envelope_build(path: str, d: int, use_unicode: bool, as_json: bool) -> None:
    """Relations and normal-form basis monomials up to a degree."""
    if d < 1:
        raise click.UsageError("need --deg >= 1")
    env = _load_or_usage(path)
    rules = env.rules()
    basis = env.basis_up_to(d)
    data = {
        "algebra": {"dim": env.dim, "labels": list(env.algebra.labels)},
        "split": {
            "derived": [env.label(i) for i in env.split.y_indices],
            "complement": [env.label(i) for i in env.z_indices],
            "changed_basis": env.split.changed_basis,
        },
        "rules": [env.rule_str(r) for r in rules],
        "basis": {
            str(n): [env.monomial_str(m) for m in monos] for n, monos in basis.items()
        },
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


@envelope.command(name="nf")
@click.option("--algebra", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.argument("expression")
@click.option("--unicode", "use_unicode", is_flag=True, help="render dots as diacritics")
@_json_flag
def envelope_nf(path: str, expression: str, use_unicode: bool, as_json: bool) -> None:
    """Normal form of a dotted-word expression (dots spelled d(name))."""
    # envelope.py, the largest module here, compiles first, so its
    # compile-time peak sits on the smaller heap: importing the parser
    # first raised this command's peak RSS by ~0.2 MiB
    env = _load_or_usage(path)
    from .parser import parse_envelope_expr

    terms = _parse_or_usage(parse_envelope_expr, expression, env.original.labels)
    element = env.element_from_original(terms)
    nf = env.normal_form(element)
    text = env.element_str(nf, use_unicode)
    _emit(
        as_json,
        {
            "input": expression,
            "normal_form": env.element_str(nf),
            "terms": [
                {
                    "coefficient": str(c),
                    "dotted": env.label(m.dot),
                    "tail": [env.label(i) for i in m.tail],
                }
                for m, c in sorted(nf.items())
            ],
        },
        text,
    )


@envelope.command(name="check")
@click.option("--algebra", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True, help="seed for the random strategy-agreement check")
@click.option("--words", type=int, default=50, show_default=True, help="random words per strategy comparison")
@_json_flag
def envelope_check(path: str, seed: int, words: int, as_json: bool) -> None:
    """Validate the algebra, reduce all overlaps, and verify the embedding."""
    from .envelope import Envelope, InvalidLieAlgebra

    algebra = _algebra_or_usage(path)
    try:
        env = Envelope(algebra)
    except InvalidLieAlgebra as exc:
        data = {
            "valid": False,
            "jacobi_violations": [list(t) for t, _ in exc.report.jacobi_violations],
            "metabelian_violations": [list(t) for t, _ in exc.report.metabelian_violations],
        }
        _emit(as_json, data, f"invalid algebra: {data}")
        sys.exit(1)
    comps = env.check_compositions()
    embed = env.embed_check()
    agreement = env.strategy_agreement(words=words, seed=seed)
    ok = comps.all_trivial and embed.ok and agreement.ok
    data = {
        "valid": True,
        "compositions": {
            "total": len(comps.entries),
            "all_trivial": comps.all_trivial,
            "nontrivial": [
                {"kind": e.kind, "letters": list(e.letters), "residual": e.residual}
                for e in comps.entries
                if not e.trivial
            ],
        },
        "embedding": {"checked": embed.checked, "ok": embed.ok},
        "confluence": {
            "seed": seed,
            "words": agreement.words,
            "agree": agreement.ok,
        },
        "ok": ok,
    }
    lines = [
        "algebra valid: True",
        f"overlaps reduced: {len(comps.entries)}, all trivial: {comps.all_trivial}",
        f"embedding pairs checked: {embed.checked}, ok: {embed.ok}",
        f"strategy agreement on {agreement.words} random words (seed {seed}): {agreement.ok}",
    ]
    _emit(as_json, data, "\n".join(lines))
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--algebra", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--max-deg", "dmax", type=int, required=True)
@_json_flag
def gk(path: str, dmax: int, as_json: bool) -> None:
    """Growth table and slope estimate for the enveloping algebra."""
    if dmax < 4:
        raise click.UsageError("need --max-deg >= 4")
    env = _load_or_usage(path)
    report = env.gk_estimate(dmax)
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
    for d, c, t in zip(report.degrees, report.per_degree, report.cumulative):
        lines.append(f"{d:6d} {c:6d} {t:11d}")
    lines.append(f"log-log least-squares slope over degrees {report.window[0]}..{report.window[1]}: {report.loglog_slope:.6f}")
    lines.append(f"extrapolated slope (headline): {report.slope:.6f}")
    _emit(as_json, data, "\n".join(lines))


if __name__ == "__main__":
    main()
