"""Every top-level definition in ``src/repro`` is reached by something
other than the tests.

A definition passes when one of these holds:

* code in ``src/`` names it.  Its own definition, the package
  re-exports (imports and ``__all__``), docstrings and comments do not
  count;
* code in ``benchmarks/``, ``examples/``, ``perfbench/`` or the CI
  workflow names it.  There an identifier-shaped string counts too,
  because perfbench's span table names the functions it wraps as
  strings;
* it is a ``@register_model`` class, which the model registry finds by
  decorator;
* it is on :data:`ALLOWLIST`, with its reason.

The check is by name, so a same-named attribute or local elsewhere keeps
a definition alive.  Each file is parsed once.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUTSIDE_DIRS = ("benchmarks", "examples", "perfbench")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

_IOTRACE_H = (
    "a zero-valued flag of the iotrace.h port DESIGN.md promises in full"
)
_WORKED_EXAMPLE = (
    "a section 5.1 worked example that EXPERIMENTS.md lists under "
    "Extensions; its fate belongs to ROADMAP.md's paper-claims item"
)

#: Definitions nothing but the tests reaches, kept on purpose.
ALLOWLIST = {
    "repro.trace.reconstruct.global_sort_events": (
        "the reference test_streaming_equals_global_sort_property compares "
        "the epoch merge against, over random logs the byte pins never reach"
    ),
    "repro.trace.flags.TRACE_PHYSICAL_RECORD": _IOTRACE_H,
    "repro.trace.flags.TRACE_READ": _IOTRACE_H,
    "repro.trace.flags.TRACE_SYNC": _IOTRACE_H,
    "repro.trace.flags.TRACE_CACHE_HIT": _IOTRACE_H,
    "repro.trace.flags.TRACE_RA_MISS": _IOTRACE_H,
    "repro.trace.decode.decode_lines": "named as API in docs/FORMAT.md",
    "repro.trace.reconstruct.iter_events_in_time_order": (
        "named in docs/PERFORMANCE.md"
    ),
    "repro.serve.app.ServerThread": (
        "the serve tests' in-process harness; moving it to tests/ would "
        "not reduce code"
    ),
    "repro.analysis.amdahl.amdahl_balance": _WORKED_EXAMPLE,
    "repro.analysis.amdahl.paper_swap_example": _WORKED_EXAMPLE,
    "repro.analysis.checkpoint_policy.optimal_iterations": _WORKED_EXAMPLE,
    "repro.analysis.checkpoint_policy.sweep_intervals": _WORKED_EXAMPLE,
    "repro.analysis.checkpoint_policy.paper_checkpoint_example": (
        _WORKED_EXAMPLE
    ),
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _is_registered_model(node):
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "register_model":
            return True
    return False


def _src_scan():
    """Top-level definitions and every name code in ``src/`` uses.

    Returns ``(definitions, uses)``: ``definitions`` holds
    ``(qualified name, name, path, first line, last line, registered)``;
    ``uses`` maps a name to the ``(path, line)`` of each ``Name`` node
    and attribute access.  Import statements and strings are not
    ``Name`` nodes, so re-exports, ``__all__`` and docstrings add none.
    """
    definitions = []
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in tree.body:
            for name in _defined_names(node):
                if not (name.startswith("__") and name.endswith("__")):
                    definitions.append((
                        f"{module}.{name}", name, path, node.lineno,
                        node.end_lineno, _is_registered_model(node),
                    ))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    return definitions, uses


def _outside_names():
    """Names used by the benchmarks, examples, perfbench and CI."""
    names = set(IDENTIFIER.findall(CI_WORKFLOW.read_text(encoding="utf-8")))
    for directory in OUTSIDE_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and IDENTIFIER.fullmatch(node.value)
                ):
                    names.add(node.value)
    return names


def _unreached():
    """Qualified names of the definitions no check reaches."""
    definitions, uses = _src_scan()
    outside = _outside_names()
    unreached = []
    for qualified, name, path, first, last, registered in definitions:
        if registered or name in outside:
            continue
        if any(
            p != path or not first <= line <= last
            for p, line in uses.get(name, ())
        ):
            continue
        unreached.append(qualified)
    return unreached


def test_every_src_definition_is_reached():
    unreached = set(_unreached())
    dead = sorted(unreached - set(ALLOWLIST))
    assert not dead, (
        "only tests reach these; delete them (with their re-exports and "
        "tests) or allowlist them with a reason:\n  " + "\n  ".join(dead)
    )
    # An entry that names nothing, or that something now reaches, must
    # go, so the allowlist cannot grow stale.
    stale = sorted(set(ALLOWLIST) - unreached)
    assert not stale, "stale allowlist entries: " + ", ".join(stale)
