"""Every function and method defined in ``src/`` is entered by a real use.

A fresh interpreter (so no cache is warm) runs, under ``sys.setprofile``,
the CLI on every demo problem (``decide --json``, ``decide --explain`` and
``invariants``) and on a document with a float, which the decoder refuses,
``catalog list`` and ``catalog show "SU(2,2)"``, and the
benchmark recorder's ``decide_one`` on the first indices of each corpus.  It
prints the functions and methods it never entered.  Run as a script, this
file is that interpreter:

    PYTHONPATH=src python tests/test_reachability.py
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_PREFIX = 100

# Entered by no run above, on purpose: the serializers of the two data
# classes, the helpers only the recorder's build_tables uses and the rational
# view of a Brauer character (the engine reads its residues) are library
# data for callers, _internal_error runs only on a fault of the engine, and
# the schema compiler runs at import, before the profiler is set.  Dunders
# (which include Required.__init__, also run at import, the constructors of
# the records, and the methods that namedtuple and NamedTuple generate) are
# not counted.
NOT_ENTERED = {
    "spherical.SphericalDatum.to_dict",
    "horospherical.HorosphericalDatum.to_dict",
    "cli._internal_error",
    "cli._compile",
    "cli._compile_alternatives",
    "cli._required",
    "galoismodule.all_characters",
    "galoismodule.BrCharacter.evaluate",
    "galoismodule.BrCharacter.values",
    "rootdata.DiagramAutomorphism.one_line",
}


def _defined_functions():
    """{code object: "module.name" or "module.Class.name"} for every function
    and method that a module of the package defines in ``src/``."""
    import spherical_models

    out = {}

    def add(name, fn):
        fn = inspect.unwrap(fn)
        code = getattr(fn, "__code__", None)
        if code is not None and Path(code.co_filename).resolve().is_relative_to(SRC):
            out[code] = name

    for info in pkgutil.iter_modules(spherical_models.__path__):
        mod = importlib.import_module("spherical_models." + info.name)
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = "%s.%s" % (info.name, attr)
            if inspect.isclass(obj):
                for member, raw in vars(obj).items():
                    if member.startswith("__") and member.endswith("__"):
                        continue
                    parts = (raw.fget, raw.fset, raw.fdel) if isinstance(raw, property) else (
                        getattr(raw, "__func__", raw),
                    )
                    for fn in parts:
                        if callable(fn):
                            add("%s.%s" % (name, member), fn)
            elif callable(obj):
                add(name, obj)
    return out


def _load_recorder():
    spec = importlib.util.spec_from_file_location("perfbench_gen_expected", ROOT / "perfbench" / "gen_expected.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exercise():
    from spherical_models.cli import main

    recorder = _load_recorder()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for path in sorted((ROOT / "demos" / "problems").glob("*.json")):
            for argv in (["decide", "--json"], ["decide", "--explain"], ["invariants"]):
                main(argv + [str(path)])
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "float.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write('{"version": 1, "kind": "gu", "root_datum": "A1", "field": {"mode": 0.5}}')
            main(["decide", "--json", path])
        main(["catalog", "list"])
        main(["catalog", "show", "SU(2,2)"])
        for workload in ("horo_sweep", "embed_fans"):
            for k in range(CORPUS_PREFIX):
                recorder.decide_one(workload, k)


def never_entered():
    """The sorted names of the functions and methods no run above enters."""
    defined = _defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _exercise()
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in defined.items() if code not in entered)


def test_every_function_in_src_is_entered():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    missed = set(json.loads(proc.stdout))
    assert missed - NOT_ENTERED == set(), "never entered: %s" % sorted(missed - NOT_ENTERED)
    # an exception that now runs belongs off the list
    assert NOT_ENTERED - missed == set(), "entered after all: %s" % sorted(NOT_ENTERED - missed)


if __name__ == "__main__":
    print(json.dumps(never_entered()))
