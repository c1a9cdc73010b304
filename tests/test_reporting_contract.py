"""Modules count what they lose; only ``cli`` reports it. A stage's ``Tally``
holds the items it left out and a client's ``stats`` the requests it gave up
on or truncated; ``cli.main`` writes both to the manifest and logs one line
per reason or per client. This scan keeps a second reporting path, such as a
module logging its own tally or the client logging each failed request, from
coming back."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "prefpipe"


def _method_calls(path):
    """(enclosing class/function path, receiver, method name) for each
    ``<receiver>.<method>(...)`` call in ``path``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                receiver = child.func.value.id if isinstance(child.func.value, ast.Name) else None
                found.append((inner, receiver, child.func.attr))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_only_cli_logs_a_tally():
    callers = {
        (path.relative_to(SRC).as_posix(), scope)
        for path in SRC.rglob("*.py")
        for scope, receiver, name in _method_calls(path)
        if name == "log" and receiver not in ("math", "np")
    }
    # the one ``logger.log`` inside Tally.log, and its one caller
    assert callers == {("_util.py", "Tally.log"), ("cli.py", "main")}


def test_modelio_logs_nothing_above_debug():
    loud = [
        (path.name, scope, name)
        for path in (SRC / "modelio").rglob("*.py")
        for scope, receiver, name in _method_calls(path)
        if name in ("log", "info", "warning", "warn", "error", "exception", "critical") and receiver not in ("math", "np")
    ]
    assert not loud
