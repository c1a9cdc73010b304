"""Modules count what they lose; only ``cli`` reports it. A stage's ``Tally``
holds the items it left out and a client's ``stats`` the requests it gave up
on or truncated; ``cli.main`` writes both to the manifest and logs one line
per reason or per client. This scan keeps a second reporting path, such as a
module logging its own tally or the client logging each failed request, from
coming back. It also keeps the per-item failure policy in one place:
``Tally.map`` is the only fan-out that decides, from ``per_item``, whether an
error skips an item, and it counts every item it skips. And it keeps one
route from an endpoint to a client: ``Clients.build``, the registry that
``main`` hands each subcommand, constructs every ``ModelClient``, so no
client's counts can miss the manifest. Last, it keeps one summary step:
``streamer.summarize`` is the only place a (prior, segment) pair becomes a
prompt and a ``PreferenceSummary``, and every record is written by the one
record codec, ``_util.encode``. And the stage runner, ``cli._open_outputs``,
is the one place in ``cli`` that opens, commits and removes an output, and
``cli.STAGE_FILES`` is the one declaration of a stage's file flags."""

import argparse
import ast
import pathlib

from prefpipe.cli import STAGE_FILES, build_parser

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "prefpipe"


def _nodes(path):
    """(owner, node) for each node in ``path``. The owner is the outermost
    function, or the ``Class.method``, that holds the node; a nested function
    belongs to its owner."""

    def visit(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            inner, is_class = owner, False
            if isinstance(child, ast.ClassDef) and not owner:
                inner, is_class = child.name, True
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and (not owner or in_class):
                inner = f"{owner}.{child.name}" if owner else child.name
            yield inner, child
            yield from visit(child, inner, is_class)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), "", False)


def _method_calls(path):
    """(owner, receiver, method name) for each ``<receiver>.<method>(...)`` call in ``path``."""
    return [
        (owner, node.func.value.id if isinstance(node.func.value, ast.Name) else None, node.func.attr)
        for owner, node in _nodes(path)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]


def _owners(match):
    """(file, owner) for each node under ``SRC`` that ``match`` accepts."""
    return {
        (path.relative_to(SRC).as_posix(), owner)
        for path in SRC.rglob("*.py")
        for owner, node in _nodes(path)
        if match(node)
    }


def _calls(name):
    """Whether a node calls ``name``, bare or as an attribute."""

    def match(node):
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", None) == name or getattr(func, "attr", None) == name

    return match


def test_only_cli_logs_a_tally():
    callers = {
        (path.relative_to(SRC).as_posix(), owner)
        for path in SRC.rglob("*.py")
        for owner, receiver, name in _method_calls(path)
        if name == "log" and receiver not in ("math", "np")
    }
    # the one ``logger.log`` inside Tally.log, and its one caller
    assert callers == {("_util.py", "Tally.log"), ("cli.py", "main")}


def test_only_cli_logs_above_debug():
    loud = {
        (path.relative_to(SRC).as_posix(), owner)
        for path in SRC.rglob("*.py")
        if path != SRC / "cli.py"
        for owner, receiver, name in _method_calls(path)
        if name in ("log", "info", "warning", "warn", "error", "exception", "critical") and receiver not in ("math", "np")
    }
    # Tally.log logs at the level its one caller, cli.main, passes
    assert loud == {("_util.py", "Tally.log")}


def test_only_tally_map_reads_per_item():
    # errors.py sets it; a stage that read it would be a second failure policy
    readers = _owners(lambda n: isinstance(n, ast.Attribute) and n.attr == "per_item" and isinstance(n.ctx, ast.Load))
    assert readers == {("_util.py", "Tally.map")}


def test_ordered_map_callers_do_not_skip_items():
    """Each other caller lets every error through: a failed rollout sample
    fails its instance, a failed user (whose own calls go through
    ``Tally.map``) the corpus."""
    assert _owners(_calls("ordered_map")) == {
        ("_util.py", "Tally.map"),
        ("synthpipe.py", "run_corpus"),
        ("rlengine.py", "rollout"),
    }


def test_one_summary_step():
    """Streaming updates and rollout samples turn a (prior, segment) pair into
    a prompt and a summary through ``streamer.summarize`` alone; synthesis
    renders its own candidates and merges its own profiles."""
    assert _owners(_calls("render_generation_prompt")) == {
        ("streamer.py", "summarize"),
        ("synthpipe.py", "generate_candidates"),
    }
    assert _owners(_calls("PreferenceSummary")) == {("streamer.py", "summarize"), ("synthpipe.py", "merge_profiles")}


def test_only_the_client_registry_builds_a_model_client():
    assert _owners(_calls("ModelClient")) == {("cli.py", "Clients.build")}


def test_every_record_is_written_by_the_codec():
    """A record class takes ``encode`` as its ``to_dict``: a hand-written one
    would be a second wire format for ``decode`` to keep up with."""
    assert _owners(lambda n: isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "to_dict") == set()


def test_only_the_stage_runner_touches_files():
    """``cli.main`` opens every output a stage declares before the stage runs
    and commits them all once it returns, so that a failed run changes no
    output. A subcommand, or a helper of one, only writes records to the
    writers it is handed: it neither opens, makes nor renames a file."""
    cli = SRC / "cli.py"
    writes = ("open", "atomic_open", "jsonl_writer", "write_jsonl", "write_json")
    owners = {owner for owner, node in _nodes(cli) if any(_calls(name)(node) for name in writes)}
    owners |= {
        owner for owner, receiver, name in _method_calls(cli)
        if receiver == "os" and name in ("makedirs", "mkdir", "replace", "rename", "remove", "rmdir")
    }
    assert owners == {"_open_outputs", "ManifestWriter.write"}


def _stage_file_flags():
    """(command, flag) for each entry of ``STAGE_FILES``."""
    return {
        (key.partition(":")[0], spec.rstrip("?").partition("/")[0])
        for key, (ins, outs) in STAGE_FILES.items()
        for spec in ins + outs
    }


def test_every_stage_file_flag_is_an_option_of_its_subcommand():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        (command, option)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for option in action.option_strings
    }
    assert _stage_file_flags() <= options


def test_no_stage_file_flag_is_declared_a_second_time():
    """``build_parser`` adds the file flags from the table, so no
    ``add_argument`` call in ``cli`` names one in a string literal."""
    flags = {flag for _, flag in _stage_file_flags()}
    named = {
        arg.value
        for _, node in _nodes(SRC / "cli.py")
        if _calls("add_argument")(node)
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }
    assert named and not named & flags
