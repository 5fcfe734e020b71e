"""Batched shape contracts: the ``(B, ...)`` leading-dim API must stay rigid.

``repro.distributions.batched`` packs B per-trace distributions into shared
``(B, ...)`` parameter arrays, and three layers (the lockstep engine, the
packed-minibatch trainer, the sub-minibatch packer) call the same four
methods on them.  The registry below records each method's contract — the
parameter list and the leading-dim shape law — and checks both sides:

* definition sites: every concrete ``Batched*`` implementation must expose
  exactly the contract signature (same names, same order, optional params
  defaulted) so callers can pass keywords interchangeably across engines;
  a concrete ``BatchedDistribution`` subclass must implement all abstract
  rows-methods (the base raises ``NotImplementedError`` at runtime — too
  late, mid-epoch).
* call sites: any ``x.sample_rows(...)``-shaped call (duck-typed by method
  name — these names are contract-owned in this repo) must pass an argument
  list the contract accepts.

The shape laws themselves (``sample_rows -> (B,)``, ``log_prob_rows(values
(B,)) -> (B,)``) are carried in the registry and quoted in messages so a
violation report states the law being protected, not just an arity mismatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    classmethod_: bool = False
    abstract: bool = False       # concrete subclasses must implement it


CONTRACTS: Dict[str, MethodContract] = {
    contract.name: contract
    for contract in (
        MethodContract(
            "sample_rows", ("rngs",), 0,
            "sample_rows(rngs) -> (B,): one draw per row, rngs is one shared "
            "RandomState or a length-B sequence",
            abstract=True,
        ),
        MethodContract(
            "log_prob_rows", ("values",), 1,
            "log_prob_rows(values (B,)) -> (B,): out[i] = log p_i(values[i])",
            abstract=True,
        ),
        MethodContract(
            "row_distribution", ("index",), 1,
            "row_distribution(index) -> stand-alone Distribution for row index",
            abstract=True,
        ),
        MethodContract(
            "from_distributions", ("distributions", "choice_kernel"), 1,
            "from_distributions(distributions, choice_kernel=None) -> packed "
            "(B, ...) batch; row i equivalent to distributions[i]",
            classmethod_=True,
        ),
    )
}

#: the root whose direct concrete subclasses owe the abstract methods
_BASE_CLASS = "BatchedDistribution"


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
        "shape-impl-missing": "concrete BatchedDistribution subclass missing an abstract rows-method",
        "shape-callsite-arity": "call to a contract-owned rows-method with arguments the contract rejects",
    }

    def check(self, context: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef) and _is_batched_class(node):
                findings.extend(self._check_class(context, node))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(context, node))
        return findings

    # -------------------------------------------------------- definition side
    def _check_class(self, context: FileContext, node: ast.ClassDef) -> List[Finding]:
        findings: List[Finding] = []
        defined = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for method_name, stmt in defined.items():
            contract = CONTRACTS.get(method_name)
            if contract is not None:
                findings.extend(self._check_signature(context, node, stmt, contract))
        is_concrete_subclass = any(
            isinstance(base, ast.Name) and base.id == _BASE_CLASS for base in node.bases
        )
        if is_concrete_subclass:
            for contract in CONTRACTS.values():
                if contract.abstract and contract.name not in defined:
                    findings.append(
                        Finding(
                            context.path,
                            node.lineno,
                            "shape-impl-missing",
                            "error",
                            f"{node.name} subclasses {_BASE_CLASS} but does not implement "
                            f"{contract.name}; the base raises NotImplementedError at "
                            f"runtime, mid-epoch — contract: {contract.shape_law}",
                        )
                    )
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

    # -------------------------------------------------------------- call side
    def _check_call(self, context: FileContext, node: ast.Call) -> List[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return []
        contract = CONTRACTS.get(func.attr)
        if contract is None:
            return []
        # method definitions show up as calls only via super().x(...); those are
        # still real call sites and stay checked.  Splats defeat static arity.
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return []
        if any(keyword.arg is None for keyword in node.keywords):
            return []
        positional = len(node.args)
        keywords = [keyword.arg for keyword in node.keywords]
        problems: List[str] = []
        if positional > len(contract.params):
            problems.append(
                f"{positional} positional argument(s), contract takes at most "
                f"{len(contract.params)}"
            )
        unknown = [kw for kw in keywords if kw not in contract.params]
        if unknown:
            problems.append(f"unknown keyword(s) {unknown}")
        covered = set(contract.params[:positional]) | set(keywords)
        missing = [
            param for param in contract.params[: contract.required] if param not in covered
        ]
        if missing:
            problems.append(f"missing required argument(s) {missing}")
        duplicated = [kw for kw in keywords if kw in contract.params[:positional]]
        if duplicated:
            problems.append(f"argument(s) {duplicated} passed both positionally and by keyword")
        return [
            Finding(
                context.path,
                node.lineno,
                "shape-callsite-arity",
                "error",
                f"call to {func.attr} rejected by the batched contract ({problem}); "
                f"contract: {contract.shape_law}",
            )
            for problem in problems
        ]
