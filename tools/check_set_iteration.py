"""Determinism lint: forbid iterating unordered sets in schedule-adjacent code.

The determinism contract (docs/ARCHITECTURE.md) requires that fixed seeds
produce byte-identical runs.  The classic way to break it silently is
``for x in some_set:`` on a code path whose iteration order reaches the
event schedule — Python sets iterate in hash order, which varies with
insertion history (and, for str keys, with ``PYTHONHASHSEED``).  This
lint walks the AST of the schedule-adjacent modules
(``baselines/spanning_forest.py``, ``core/delta.py``, ``core/elink.py``,
``core/elink_vec.py``, ``core/maintenance.py``, ``geometry/quadtree.py``,
``geometry/topology.py``, ``sim/faults.py``, ``sim/kernel.py`` and
``sim/network.py`` by default) and flags ``for`` loops and comprehensions whose iterable is:

- a ``set``/``frozenset`` literal, constructor call, or comprehension;
- a call to ``.union`` / ``.intersection`` / ``.difference`` /
  ``.symmetric_difference`` (these return sets);
- a local name bound to one of the above (or annotated ``set[...]``)
  earlier in the same file;
- an attribute known to hold a set in this codebase (``dead_nodes``,
  ``_removed_edges``, ``_taken_over``, ``_phase1_forwarded``,
  ``_phase2_acted``, ``crashed``).

Wrapping the iterable in ``sorted(...)`` (or ``list(sorted(...))``) is
the sanctioned fix and is never flagged.  A genuinely order-free loop can
be exempted with a ``# det-ok`` comment on the offending line.

No third-party dependencies; exits 1 with file:line diagnostics::

    python tools/check_set_iteration.py
    python tools/check_set_iteration.py src/repro/sim/network.py
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

#: Attributes known to hold ``set`` values in schedule-adjacent classes.
KNOWN_SET_ATTRS = frozenset(
    {
        "dead_nodes",
        "_removed_edges",
        "_taken_over",
        "_phase1_forwarded",
        "_phase2_acted",
        "crashed",
    }
)

#: set-returning methods — iterating their result is hash-ordered.
SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Files checked when none are given on the command line.
DEFAULT_TARGETS = (
    "src/repro/baselines/spanning_forest.py",
    "src/repro/core/delta.py",
    "src/repro/core/elink.py",
    "src/repro/core/elink_vec.py",
    "src/repro/core/maintenance.py",
    "src/repro/geometry/quadtree.py",
    "src/repro/geometry/topology.py",
    "src/repro/sim/faults.py",
    "src/repro/sim/kernel.py",
    "src/repro/sim/network.py",
)


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    """True for ``set``/``frozenset`` annotations, bare or subscripted."""
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Name) and target.id in ("set", "frozenset")


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_statements(scope: ast.AST):
    """Walk *scope*'s own statements, stopping at nested scope boundaries."""
    stack = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue  # nested scope: analysed separately
        stack.extend(ast.iter_child_nodes(node))


def _collect_set_names(scope: ast.AST) -> set[str]:
    """Names assigned a set expression (or set annotation) within *scope*.

    Scoped (one function or the module top level) but flow-insensitive: a
    name that *ever* holds a set in the scope is suspect wherever the
    scope iterates it, and a false positive is a one-line ``sorted()`` or
    ``# det-ok`` away from silence.
    """
    names: set[str] = set()
    for node in _scope_statements(scope):
        if isinstance(node, ast.Assign):
            if _is_set_expression(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and (
                _is_set_annotation(node.annotation)
                or (node.value is not None and _is_set_expression(node.value, names))
            ):
                names.add(node.target.id)
    return names


def _is_set_expression(node: ast.expr, set_names: set[str]) -> bool:
    """True when *node* statically looks like an unordered set value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        return node.attr in KNOWN_SET_ATTRS
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
            return True
        # ``d.get(key, set())`` and friends: a set default means the
        # expression is sometimes a set.
        if isinstance(func, ast.Attribute) and func.attr in ("get", "setdefault"):
            return any(_is_set_expression(arg, set_names) for arg in node.args[1:])
    if isinstance(node, (ast.BinOp,)) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # a | b, a & b, a - b, a ^ b over sets; flag when either side is.
        return _is_set_expression(node.left, set_names) or _is_set_expression(
            node.right, set_names
        )
    return False


def _iter_loop_iterables(scope: ast.AST):
    """Yield (lineno, iterable) for loops/comprehensions in *scope* itself."""
    for node in _scope_statements(scope):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter.lineno, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter.lineno, generator.iter


def _iter_scopes(tree: ast.Module):
    """Yield every lexical scope in *tree*: the module, then each class/def."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _SCOPE_NODES):
            yield node


def check_file(path: pathlib.Path) -> list[str]:
    """Lint one file; returns ``file:line: message`` diagnostics."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    source_lines = source.splitlines()
    problems = []
    for scope in _iter_scopes(tree):
        problems.extend(_check_scope(scope, path, source_lines))
    return problems


def _check_scope(scope: ast.AST, path: pathlib.Path, source_lines: list[str]) -> list[str]:
    """Check one lexical scope's loops against its own set-valued names."""
    set_names = _collect_set_names(scope)
    problems = []
    for lineno, iterable in _iter_loop_iterables(scope):
        # sorted(...) normalizes order: never flagged, whatever is inside.
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name):
            if iterable.func.id == "sorted":
                continue
            if iterable.func.id in ("list", "tuple") and iterable.args:
                inner = iterable.args[0]
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "sorted"
                ):
                    continue
        if not _is_set_expression(iterable, set_names):
            continue
        line = source_lines[lineno - 1] if lineno - 1 < len(source_lines) else ""
        if "# det-ok" in line:
            continue
        problems.append(
            f"{path}:{lineno}: iteration over an unordered set "
            f"({ast.unparse(iterable)}); wrap in sorted(...) or mark '# det-ok'"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point; exits non-zero when any target file has violations."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        default=list(DEFAULT_TARGETS),
        help=f"files to lint (default: {', '.join(DEFAULT_TARGETS)})",
    )
    args = parser.parse_args(argv)
    all_problems: list[str] = []
    for name in args.files:
        path = pathlib.Path(name)
        if not path.exists():
            print(f"{name}: no such file", file=sys.stderr)
            return 2
        all_problems.extend(check_file(path))
    for problem in all_problems:
        print(problem)
    if all_problems:
        print(f"{len(all_problems)} unordered-set iteration(s) found", file=sys.stderr)
        return 1
    print(f"set-iteration lint: {len(args.files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
