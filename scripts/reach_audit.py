"""List the functions of the ``emforms`` package that no CLI run calls.

    PYTHONPATH=src python scripts/reach_audit.py [NAME ...]

Runs ``emforms.cli.main`` in this process under a ``sys.setprofile`` hook
that records every Python function entered. The runs are the cases of
``scripts/compare_outputs.py``, each in a fresh directory with the
arguments that script gives it (a reuse case's two runs one after the
other), and the first ``FUZZ_CONFIGS`` configs of ``scripts/exit_fuzz.py``
at stream seed 0. NAMEs keep only the compare cases of those names; the
fuzz configs always run. The stderr of the runs is discarded.

The definitions are every top-level function of the package's modules
and every method of a top-level class, read from their syntax trees. The
package is imported under the same hook before any run, so a definition
that only the import calls is marked ``(import only)``. Each definition
that no run entered is printed on one line, in module and line order:

    src/emforms/solutions.py:188 check_closed_forms: tests/test_sphere.py

with the ``.py`` files outside ``src/`` that name it (``-`` for none),
this script excepted: a function as a word, a method as an attribute.
The last line counts them:

    35 of 180 definitions never called by a run (3 of them only at import)

A name that is no compare case exits 2; otherwise the exit code is 0.

Standard library only, besides emforms itself.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emforms"
FUZZ_CONFIGS = 300
# where a definition may be named outside the package
ELSEWHERE = ("tests", "scripts", "perfbench")


@contextlib.contextmanager
def recording(entered: set):
    """Add the code of every Python frame entered inside the block to ``entered``."""

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)


def definitions() -> list[tuple[str, int, str]]:
    """(module file name, first line, qualified name) of every top-level
    function and method of a top-level class, in module and line order. The
    first line is that of the first decorator, as a code object counts it."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(item, f"{node.name}.") for item in node.body]
            for item, prefix in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([item.lineno, *(d.lineno for d in item.decorator_list)])
                    out.append((path.name, first, prefix + item.name))
    return out


def naming_files(name: str) -> list[str]:
    """The ``.py`` files outside the package, this one excepted, whose text
    holds the function ``name`` as a word, or the method ``Class.name`` as
    an attribute ``.name``."""
    _, dot, attr = name.rpartition(".")
    word = re.compile(rf"\.{re.escape(attr)}\b" if dot else rf"\b{re.escape(name)}\b")
    out = []
    for top in ELSEWHERE:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() != pathlib.Path(__file__).resolve() and word.search(path.read_text(encoding="utf-8")):
                out.append(str(path.relative_to(ROOT)))
    return out


def run_case(work: pathlib.Path, config: str | bytes, runs: list[list[str]], cli) -> None:
    """The runs of one compare case in ``work``, as ``compare_outputs.py`` makes them."""
    work.mkdir()
    (work / "config.json").write_bytes(config if isinstance(config, bytes) else config.encode("utf-8"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for args in runs:
            with contextlib.suppress(SystemExit):  # argparse rejects a bad flag with exit 2
                cli.main(["run", "config.json", *args])
    finally:
        os.chdir(cwd)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="run only the compare cases of these names")
    args = parser.parse_args(argv)

    at_import: set = set()
    with recording(at_import):
        modules = [
            importlib.import_module("emforms" if path.stem == "__init__" else f"emforms.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py"))
        ]
    sys.path.insert(0, str(ROOT / "scripts"))
    from compare_outputs import cases
    from exit_fuzz import config

    from emforms import cli

    selected = [case for case in cases() if not args.names or case[0] in args.names]
    unknown = set(args.names) - {name for name, _, _ in selected}
    if unknown:
        print(f"error: no compare case named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    entered: set = set()
    with (
        tempfile.TemporaryDirectory(prefix="reach-audit-") as tmp,
        contextlib.redirect_stderr(io.StringIO()),
        recording(entered),
    ):
        for k, (_, text, runs) in enumerate(selected):
            run_case(pathlib.Path(tmp, f"case-{k}"), text, runs, cli)
        for index in range(FUZZ_CONFIGS):
            cfg, verify_only, seed = config(index, 0)
            flags = ["--samples", "8", "--seed", str(seed)] + ["--verify-only"] * verify_only
            run_case(pathlib.Path(tmp, f"fuzz-{index}"), json.dumps(cfg), [[*flags, "--out-dir", "out"]], cli)

    # a code object names its module by the file it was compiled from, which is the module's __file__
    files = {module.__file__: pathlib.Path(module.__file__).name for module in modules}

    def keys(codes: set) -> set:
        return {(files[code.co_filename], code.co_firstlineno) for code in codes if code.co_filename in files}

    called, imported = keys(entered), keys(at_import)
    defined = definitions()
    uncalled = [(module, line, name) for module, line, name in defined if (module, line) not in called]
    for module, line, name in uncalled:
        mark = " (import only)" if (module, line) in imported else ""
        named = naming_files(name)
        print(f"src/emforms/{module}:{line} {name}{mark}: {', '.join(named) or '-'}")
    import_only = sum((module, line) in imported for module, line, _ in uncalled)
    print(
        f"{len(uncalled)} of {len(defined)} definitions never called by a run "
        f"({import_only} of them only at import)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
