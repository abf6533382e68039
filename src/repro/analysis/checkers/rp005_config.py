"""RP005 — config drift.

``CuTSConfig`` (the fingerprinted ``EngineConfig`` fields plus the
runtime knobs it adds) is the single tunables surface: every experiment,
benchmark, and CLI run goes through it.  Drift shows up two ways, and
both have bitten engines like this one silently: a field nobody reads
(so "tuning" it is a no-op and ablations lie), or a CLI flag that parses
but never reaches a field (so the flag is theater).  This rule closes
the loop statically.

Flagged:

* a field of either config class never referenced (attribute access or
  keyword argument) outside ``core/config.py``;
* an ``argparse`` flag whose destination is never read back off the
  parsed namespace in the CLI module;
* a config-class call passing a keyword that names none of its fields,
  inherited ones included.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Checker, call_keywords
from ..diagnostics import Diagnostic
from ..engine import Project, SourceModule
from ..registry import register

CONFIG_CLASSES = ("EngineConfig", "CuTSConfig")


def _config_fields(
    module: SourceModule,
) -> dict[str, tuple[dict[str, int], set[str]]]:
    """Config dataclasses in ``module``.

    Maps each class name to its own annotated fields (name -> line) and
    the keywords its constructor accepts: its own fields plus those
    inherited from a config class defined earlier in the module.
    """
    classes: dict[str, tuple[dict[str, int], set[str]]] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in CONFIG_CLASSES:
            continue
        own = {
            stmt.target.id: stmt.lineno
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }
        accepted = set(own)
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                accepted |= classes[base.id][1]
        classes[node.name] = (own, accepted)
    return classes


def _referenced_names(module: SourceModule) -> set[str]:
    """Attribute and keyword-argument names used in a module."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def _argparse_dests(module: SourceModule) -> dict[str, ast.Call]:
    """Namespace destinations declared by ``add_argument`` calls."""
    dests: dict[str, ast.Call] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "add_argument":
            continue
        kw = call_keywords(node)
        dest = kw.get("dest")
        if isinstance(dest, ast.Constant) and isinstance(dest.value, str):
            dests[dest.value] = node
            continue
        for arg in node.args:
            if not isinstance(arg, ast.Constant) or not isinstance(
                arg.value, str
            ):
                continue
            name = arg.value
            if name.startswith("--"):
                dests[name[2:].replace("-", "_")] = node
                break
            if not name.startswith("-"):
                dests[name] = node
                break
    return dests


def _namespace_reads(module: SourceModule) -> set[str]:
    """Attributes read off any name bound to a parsed namespace.

    Conservative: every ``<name>.<attr>`` where ``<name>`` is a plain
    variable counts, so passing ``args`` through helpers in the same
    module is recognized.
    """
    reads: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            reads.add(node.attr)
    return reads


@register
class ConfigDriftChecker(Checker):
    rule = "RP005"
    name = "config-drift"
    description = (
        "every config field is read somewhere real, every CLI flag "
        "reaches a live destination, no unknown config kwargs"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        config_module = project.find("core/config.py")
        if config_module is None:
            return
        classes = _config_fields(config_module)
        if not classes:
            return

        used: set[str] = set()
        for module in project.modules:
            if module is config_module:
                continue
            used |= _referenced_names(module)
        for cls, (own, _) in classes.items():
            for name, line in sorted(own.items()):
                if name not in used:
                    yield Diagnostic(
                        path=config_module.rel,
                        line=line,
                        col=1,
                        rule=self.rule,
                        message=(
                            f"{cls}.{name} is dead: no module outside "
                            f"config.py reads or sets it"
                        ),
                    )

        accepted = {cls: kwargs for cls, (_, kwargs) in classes.items()}
        yield from self._check_unknown_kwargs(project, accepted)

        cli_module = project.find("cli.py")
        if cli_module is not None:
            yield from self._check_cli(cli_module)

    # ------------------------------------------------------------------
    def _check_unknown_kwargs(
        self, project: Project, accepted: dict[str, set[str]]
    ) -> Iterable[Diagnostic]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if callee not in accepted:
                    continue
                for kw in node.keywords:
                    if kw.arg is not None and kw.arg not in accepted[callee]:
                        yield self.diag(
                            module,
                            kw.value,
                            f"unknown {callee} kwarg '{kw.arg}': flag "
                            f"or call site drifted from the config schema",
                        )

    def _check_cli(self, cli: SourceModule) -> Iterable[Diagnostic]:
        reads = _namespace_reads(cli)
        for dest, node in sorted(_argparse_dests(cli).items()):
            if dest not in reads:
                yield self.diag(
                    cli,
                    node,
                    f"CLI flag with dest '{dest}' is parsed but never "
                    f"read: it maps to no live config field or action",
                )
