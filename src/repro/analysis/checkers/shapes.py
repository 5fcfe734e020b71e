"""Batched shape contracts: the ``(B, ...)`` leading-dim API must stay rigid.

``repro.distributions.batched`` packs B per-trace distributions into shared
``(B, ...)`` parameter arrays, and the lockstep engine calls the same
methods on them in dynamic and planned rounds.  The registry below records
each method's contract — the parameter list and the leading-dim shape law —
and every concrete
``Batched*`` implementation must expose exactly the contract signature (same
names, same order, optional params defaulted) so callers can pass keywords
interchangeably across engines.  A renamed parameter breaks no positional
call site, so no test notices it until the first keyword caller.

The shape laws themselves (``sample_rows -> (B,)``, ``log_prob_rows(values
(B,)) -> (B,)``) are carried in the registry and quoted in messages so a
violation report states the law being protected, not just a signature mismatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.core import Checker, FileContext
from repro.analysis.findings import Finding

__all__ = ["ShapeContractChecker", "CONTRACTS"]


@dataclass(frozen=True)
class MethodContract:
    """One contract-owned method of the batched-distribution API."""

    name: str
    params: Tuple[str, ...]      # in order, after self/cls
    required: int                # how many of ``params`` have no default
    shape_law: str               # the (B, ...) law, quoted in messages


CONTRACTS: Dict[str, MethodContract] = {
    contract.name: contract
    for contract in (
        MethodContract(
            "sample_rows", ("rngs",), 0,
            "sample_rows(rngs) -> (B,): one draw per row, rngs is one shared "
            "RandomState or a length-B sequence",
        ),
        MethodContract(
            "log_prob_rows", ("values",), 1,
            "log_prob_rows(values (B,)) -> (B,): out[i] = log p_i(values[i])",
        ),
        MethodContract(
            "row_distribution", ("index",), 1,
            "row_distribution(index) -> stand-alone Distribution for row index",
        ),
    )
}


def _is_batched_class(node: ast.ClassDef) -> bool:
    if node.name.startswith("Batched"):
        return True
    return any(
        isinstance(base, ast.Name) and base.id.startswith("Batched") for base in node.bases
    )


def _positional_params(args: ast.arguments) -> Tuple[List[str], int]:
    """(param names after self/cls, number of them without defaults)."""
    params = [arg.arg for arg in args.posonlyargs + args.args]
    defaults = len(args.defaults)
    required = len(params) - defaults
    if params and params[0] in ("self", "cls"):
        params = params[1:]
        required -= 1
    return params, max(required, 0)


class ShapeContractChecker(Checker):
    name = "shape-contracts"
    rules = {
        "shape-impl-signature": "Batched* implementation deviates from the contract signature",
    }

    def check(self, context: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.ClassDef) and _is_batched_class(node)):
                continue
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in CONTRACTS:
                    findings.extend(self._check_signature(context, node, stmt, CONTRACTS[stmt.name]))
        return findings

    def _check_signature(
        self,
        context: FileContext,
        cls: ast.ClassDef,
        stmt: ast.FunctionDef,
        contract: MethodContract,
    ) -> List[Finding]:
        def deviation(reason: str) -> Finding:
            return Finding(
                context.path,
                stmt.lineno,
                "shape-impl-signature",
                "error",
                f"{cls.name}.{contract.name} deviates from the batched contract "
                f"({reason}); contract: {contract.shape_law}",
            )

        findings: List[Finding] = []
        args = stmt.args
        if args.vararg is not None or args.kwarg is not None or args.kwonlyargs:
            findings.append(deviation("*args/**kwargs/keyword-only params are not part of the contract"))
            return findings
        params, required = _positional_params(args)
        allowed = contract.params
        if required > contract.required:
            findings.append(
                deviation(
                    f"{required} required parameter(s) {params[:required]} vs "
                    f"{contract.required} in the contract — extra requirements break "
                    "existing call sites"
                )
            )
        if tuple(params) != allowed[: len(params)]:
            findings.append(
                deviation(
                    f"parameters {params} do not match the contract prefix "
                    f"{list(allowed)} — keyword call sites rely on these names"
                )
            )
        return findings
