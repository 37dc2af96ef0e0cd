"""Contract rollout: contracted modules must contract their public API.

A module opts into shapelint by importing ``shape_contract``; from then on
every *public module-level array function* (one whose parameter or return
annotations mention an array type) is expected to carry a contract, so the
module's shape conventions stay machine-checked as it grows.  Helpers with
genuinely polymorphic shapes opt out with an inline
``# numlint: disable=NL530``.

* **NL530** — a public module-level function with array-typed parameters
  (or an array return) in a module that imports ``shape_contract`` but
  carries no ``@shape_contract`` decorator.

Scope: library code only — benchmarks/examples/tests are consumers, not
the contracted API surface.  Methods are exempt: the public entry points
the REMBO pipeline composes (``pairwise_sq_dists``, ``clip_to_box``,
``uniform_initial_design``, ...) are module-level, and method contracts
remain opt-in.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from tools.numlint.core import FileContext, Finding, LintPass
from tools.numlint.passes import register
from tools.numlint.shapes import DECORATOR_NAMES, contract_decorator

#: Annotation substrings that mark a parameter/return as array-typed.
_ARRAY_MARKERS = ("FloatArray", "IntArray", "ndarray", "ArrayLike")

#: Path fragments whose modules are contracted unconditionally: new
#: subsystems held to the contract discipline from their first commit,
#: whether or not they happen to import the decorator yet.
ROLLOUT_OPT_IN_FRAGMENTS = (
    "repro/runtime/",
    "repro/telemetry/",
    "repro/serve/",
    "repro/gp/surrogate",
    "repro/gp/sparse",
)


def module_is_contracted(ctx: FileContext) -> bool:
    """True when the module imports ``shape_contract`` or lives under an
    opted-in path fragment (:data:`ROLLOUT_OPT_IN_FRAGMENTS`)."""
    relpath = ctx.relpath.replace("\\", "/")
    if any(fragment in relpath for fragment in ROLLOUT_OPT_IN_FRAGMENTS):
        return True
    return any(
        target in DECORATOR_NAMES or target.endswith(".shape_contract")
        for target in ctx.aliases.values()
    )


def _annotation_is_array(node: ast.expr | None) -> bool:
    if node is None:
        return False
    text = ast.unparse(node)
    return any(marker in text for marker in _ARRAY_MARKERS)


def _uses_arrays(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    if any(_annotation_is_array(a.annotation) for a in every):
        return True
    return _annotation_is_array(node.returns)


@register
class ContractRolloutPass(LintPass):
    name = "contract-rollout"
    description = (
        "public array functions in shape-contracted modules must carry "
        "@shape_contract"
    )
    codes = {
        "NL530": "public array function in a contracted module lacks a "
        "@shape_contract annotation",
    }

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.is_library:
            return
        if not module_is_contracted(ctx):
            return
        yield from self._check(ctx)

    def _check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not _uses_arrays(node):
                continue
            if contract_decorator(node, ctx.qualified) is not None:
                continue
            yield self.emit(
                ctx,
                node,
                "NL530",
                f"{node.name} takes/returns arrays in a contracted module "
                "but declares no @shape_contract (annotate it, or opt out "
                "with '# numlint: disable=NL530')",
            )
