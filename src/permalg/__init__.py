"""permalg: exact computer algebra for free perm algebras.

Perm algebras are associative algebras with the right-commutativity law
``abc = acb``.  This package provides canonical arithmetic in the free
perm algebra, commutator- and anticommutator-side element analysis,
polynomial identity checking, and enveloping perm algebras of metabelian
Lie algebras through a terminating confluent rewriting system.
"""

__version__ = "0.1.0"

from importlib import import_module

# public name -> the submodule that defines it.  ``import permalg`` loads
# no submodule: each name is looked up in its submodule on every access
# (PEP 562), so a one-shot command pays only for the modules it uses.
_EXPORTS = {
    name: module
    for module, names in {
        "metabelian": (
            "AlgebraFormatError",
            "BasisSplit",
            "InvalidLieAlgebra",
            "MetabelianLieAlgebra",
            "load_algebra",
            "split_basis",
        ),
        "envelope": ("Envelope", "GrowthReport", "RewriteRule"),
        "expr": (
            "Anti",
            "Comm",
            "ExprSum",
            "IdentityTemplate",
            "IdentityVerdict",
            "Leaf",
            "Prod",
            "Slot",
            "associator",
            "check_identity",
            "expand_node",
            "left_normed",
        ),
        "jordan": (
            "FElement",
            "NotJordanElement",
            "bn_basis",
            "cohn_witness",
            "expand_bn",
            "f_comb",
            "ideal_component",
            "jordan_express",
            "sj_span",
            "to_bn",
            "verify_J_identities",
            "verify_perm_plus_identities",
        ),
        "lie": (
            "MLMonomial",
            "NotLieElement",
            "is_lie",
            "lie_express",
            "lie_span_oracle",
            "ml_basis",
        ),
        "linalg": ("Span", "Subspace", "span_solve"),
        "parser": (
            "ExprSyntaxError",
            "parse_envelope_expr",
            "parse_expr",
            "parse_template",
            "parse_word",
        ),
        "perm": ("PermMonomial", "PermPolynomial", "canonicalize", "dimension", "enumerate_basis"),
    }.items()
    for name in names
}
_LIBRARY = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # the result is not stored in this module's namespace, so the value
    # always comes from the submodule, even after the submodule rebinds it
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _LIBRARY:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _LIBRARY)
