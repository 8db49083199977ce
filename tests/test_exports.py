import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tablerank
from tablerank.benchmark import save_benchmark
from tablerank.build import build_index, extract_all
from tablerank.features import EmbedderHandle
from tablerank.index import save_index

from conftest import make_gold_dataset


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from tablerank import *", namespace)  # raises if a name in __all__ is gone
    missing = [name for name in tablerank.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tablerank.__all__)) == len(tablerank.__all__)


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_every_exported_name_is_used_inside_the_package():
    # A public name that only tests call is dead weight: each one must be
    # referenced by some other top-level statement of a package module.
    used: set[str] = set()
    for path in Path(tablerank.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            # a def or class does not count as using itself
            used |= referenced_names(stmt) - {getattr(stmt, "name", None)}
    unused = [name for name in tablerank.__all__ if name != "__version__" and name not in used]
    assert unused == []


BUILD_NAMES = ("CorpusFeatures", "build_index", "extract_all", "kmeans")


def test_set_up_names_are_exported_lazily_from_build():
    import tablerank.build

    names = dir(tablerank)
    for name in BUILD_NAMES:
        assert name in tablerank.__all__ and name in names, name
        assert getattr(tablerank, name) is getattr(tablerank.build, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        tablerank.no_such_name


# Runs every query-side entry point on a saved index and dataset, then the
# query commands of the CLI, in a fresh interpreter; argv: index, dataset.
_QUERY_SCRIPT = """
import sys
import tablerank
from tablerank import (
    EmbedderHandle, PPRConfig, build_prompt, coarse_retrieve, load_benchmark, load_index,
    query_features, retrieve, run_e2e_eval, run_retrieval_eval,
)
from tablerank.cli import main
from tablerank.prompting import stub_na_generator

index, dataset = sys.argv[1:3]
ix = load_index(index)
ds = load_benchmark(dataset)
handle = EmbedderHandle(dimension=ix.params["embedder_dimension"])
cfg = PPRConfig(top_n=5)
tables = {t.id: t for t in ds.tables}
q = ds.examples[0].query
coarse_retrieve(q, ix, handle, qf=query_features(q, ix, handle))
_, result = retrieve(q, ix, handle, cfg)
build_prompt(q.text, result, [tables[tid] for tid, _ in result.ranked], q.task_type)
run_retrieval_eval(ds, ix, handle, cfg, ks=[5])
run_e2e_eval(ds, ix, handle, stub_na_generator(), cfg)
for argv in (["retrieve", "--index", index, "--query", q.text], ["inspect", "--index", index],
             ["eval-retrieval", "--index", index, "--dataset", dataset, "--ks", "5"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"the query path loaded {len(loaded)} scipy modules: {loaded[:5]}"
from tablerank import build_index
import tablerank.build
assert build_index is tablerank.build.build_index and "scipy" in sys.modules
"""


def test_query_processes_never_import_scipy(tmp_path):
    ds = make_gold_dataset(12, seed=4)
    save_benchmark(ds, tmp_path / "dataset")
    save_index(build_index(ds.tables, extract_all(ds.tables, EmbedderHandle()), K=3, k=10, seed=1),
               tmp_path / "ix.bin")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _QUERY_SCRIPT, str(tmp_path / "ix.bin"), str(tmp_path / "dataset")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
