"""The public surface: declared once, and every function in it has a user.

A user is another package module (the re-exporting ``__init__`` aside),
a demo, or a python block of the README that imports or names the
function.  Only code counts (import aliases and names read by
expressions), not docstrings or strings, and the tests do not count: a
name only they use is not part of the surface.  The CLI's surface is its
options, and the README documents each of them and no others.
"""

import ast
import contextlib
import inspect
import io
import re
from collections import Counter
from pathlib import Path

import pytest

import conformal_kit
from conformal_kit import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conformal_kit"


def names_in(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def test_every_public_function_has_a_user():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    outside = set().union(*map(names_in, blocks + demos))
    modules = {
        p.stem: names_in(p.read_text())
        for p in PACKAGE.glob("*.py")
        if p.stem != "__init__"  # re-exporting a name is not using it
    }
    unused = []
    for name in conformal_kit.__all__:
        obj = getattr(conformal_kit, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1]
        users = outside.union(*(n for m, n in modules.items() if m != home))
        if name not in users:
            unused.append(name)
    assert not unused, f"public functions only the tests use: {unused}"


def test_public_names_declared_once():
    twice = [n for n, c in Counter(conformal_kit.__all__).items() if c > 1]
    assert not twice, f"declared more than once: {twice}"


FLAG = re.compile(r"--[a-z][a-z-]*")


def help_text(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([*argv, "--help"])
    return out.getvalue()


def test_readme_documents_exactly_the_cli_options():
    listing = re.search(r"\{(.*?)\}", help_text()).group(1)
    options = set()
    for sub in listing.split(","):
        options |= set(FLAG.findall(help_text(sub)))
    options.discard("--help")
    documented = set(FLAG.findall((ROOT / "README.md").read_text()))
    stray, missing = sorted(documented - options), sorted(options - documented)
    assert not stray, f"README flags no subcommand takes: {stray}"
    assert not missing, f"options the README does not mention: {missing}"
