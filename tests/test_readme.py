"""The user's guide, README.md, checked against the package.

Every backticked dotted name under ``calimp.`` or one of its module names
resolves; the Python quick start runs and keeps its promises; each
``calimp`` line of the command-line block exits 0; and the ``impute``
option table lists exactly the flags the parser defines.  The guide names
no removed API (removals are recorded in CHANGES.md), so no name is
excluded from the check.
"""

import argparse
import dataclasses
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import calimp
from calimp import cli, pipeline  # cli binds every calimp module as an attribute of the package

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
MODULES = sorted(module.name for module in pkgutil.iter_modules(calimp.__path__))
DOTTED = re.compile(r"(?<![\w./])(?:calimp|%s)(?:\.\w+)+" % "|".join(MODULES))


def blocks(language):
    return [body for lang, body in FENCED.findall(TEXT) if lang == language]


def readme_names():
    """The dotted names in the guide's inline code spans, in order."""
    prose = FENCED.sub("", TEXT)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return list(dict.fromkeys(name for span in spans for name in DOTTED.findall(span)))


def resolves(name):
    """Whether ``name`` is an attribute path from ``calimp``, counting
    class attributes, NamedTuple fields and dataclass fields (a field
    without a default is no class attribute)."""
    obj = calimp
    attrs = name.removeprefix("calimp.").split(".")
    for k, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            field = dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}
            return field and k == len(attrs) - 1
    return True


def test_resolves_fields_and_refuses_what_is_not_there():
    assert resolves("fm.CompiledInterval.pinned") and resolves("fm.CompiledInterval.bound_mass")
    assert resolves("mcmc.PosteriorModel.coefficients") and resolves("calimp.sim.StudyConfig.seed")
    assert not resolves("fm.snap") and not resolves("residuals.attempts")
    assert not resolves("fm.CompiledInterval.pinned.real")


@pytest.mark.parametrize("name", readme_names())
def test_every_name_the_readme_gives_resolves(name):
    assert resolves(name), f"README.md names `{name}`, which calimp does not define"


def test_quick_start_keeps_its_promises(capsys):
    fenced = FENCED.findall(TEXT)
    k = [lang for lang, _ in fenced].index("python")
    source, printed = fenced[k][1], fenced[k + 1][1]
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == printed
    completed, data = namespace["completed"], namespace["data"]
    pipeline.validate(completed.values, data, namespace["edits"], namespace["totals"])
    np.testing.assert_array_equal(completed.values[1], [25.0, 5.0, 30.0])


def commands():
    """Each ``calimp`` command of the guide's shell blocks, its continued
    lines joined."""
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("calimp ")]


def test_every_command_line_exits_0(tmp_path, monkeypatch):
    # The input files are the text blocks whose first line names them.
    files = {body.split("\n", 1)[0][2:]: body for body in blocks("text") if body.startswith("# ")}
    assert {"rules.edits", "study.cfg"} <= set(files)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    assert commands()
    for command in commands():
        assert cli.main(shlex.split(command)[1:]) == 0, command


def test_option_table_lists_exactly_the_impute_flags():
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for action in subcommands.choices["impute"]._actions for flag in action.option_strings}
    table = TEXT.split("`calimp impute` options:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(--[\w-]+)", table, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == flags - {"-h", "--help"}
