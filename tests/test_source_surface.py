"""``src/`` holds only what the pipeline runs: every public top-level function,
class and method of ``kgrerank`` is referenced from ``src/``, ``scripts/`` or
``perfbench/``. Code that only the tests call belongs in ``tests/helpers.py``.
And the scripts use ``kgrerank`` through its public names, and set config
values through the stages' ``--config`` and ``--set``, never through flags of
their own that copy a config key. Every config key is read by code outside
its own section class, and every text table of a built graph by code
outside ``kg.py``. And ``kg.py`` holds no matrix product, so a graph build
makes no BLAS call, and the one product that a stage runs holds OpenBLAS to
one thread. And ``tests/helpers.py`` uses no private name of
``kgrerank.ranking``, so a ranking oracle never runs the code it judges.
And one function, ``instructions.write_json``, writes every JSON file. And
every hook of the benchmark's tracer names code in ``src/`` that the four
stages run.

A name counts as referenced when code there uses it (a name, an attribute or
an import) or a string there names it in a dotted path: the tracer in
``perfbench/`` patches targets such as ``instructions.build_sample`` and
``EmbeddingTable.save`` by those names, and docstrings point readers to
``adapter.attach_knowledge``. A bare word in a string (a label, a word of
prose) is no reference.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re
import sys
from dataclasses import fields

import pytest

from helpers import ChatStub, serving
from kgrerank import cli, kg
from kgrerank.cli import _SECTIONS

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# the adapter surface that the README advertises to an outside finetuner, and
# the argparse hook that cli._Parser overrides
ALLOWED = {"init_adapter", "project_grad", "error"}


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for path in re.findall(r"\w+(?:\.\w+)+", node.value):
                yield from path.split(".")


def unreferenced_public_names():
    users = [
        path
        for pattern in ("src/kgrerank/*.py", "scripts/*.py", "perfbench/*.py")
        for path in glob.glob(os.path.join(ROOT, pattern))
    ]
    referenced = {name for path in users for name in referenced_names(_parse(path))}
    unreferenced = set()
    for path in glob.glob(os.path.join(ROOT, "src", "kgrerank", "*.py")):
        module = os.path.basename(path)[:-3]
        unreferenced |= {f"{module}.{name}" for name in public_definitions(_parse(path)) if name not in referenced}
    return {name for name in unreferenced if name.rsplit(".", 1)[1] not in ALLOWED}


def test_every_public_definition_in_src_is_used_outside_the_tests():
    assert unreferenced_public_names() == set()


def script_paths():
    """The scripts that read a config: all but the dataset generator."""
    paths = glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    return sorted(p for p in paths if os.path.basename(p) != "make_toy_dataset.py")


def declared_flags(tree):
    """Each option string of an ``add_argument`` call, with ``-`` read as ``_``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            for arg in node.args:
                if isinstance(arg, ast.Constant) and str(arg.value).startswith("-"):
                    yield arg.value.lstrip("-").replace("-", "_")


def test_no_script_declares_a_config_key_as_a_flag():
    schema = set(_SECTIONS) | {f.name for cls in _SECTIONS.values() for f in fields(cls)}
    clashes = {
        os.path.basename(path): sorted(set(declared_flags(_parse(path))) & schema) for path in script_paths()
    }
    assert {script: flags for script, flags in clashes.items() if flags} == {}


def attribute_reads(node, skip_classes):
    """The names read as attributes (``x.name`` in a load) under ``node``,
    outside the classes named in ``skip_classes``: a section's own
    ``__post_init__`` checks are no use of its keys."""
    if isinstance(node, ast.ClassDef) and node.name in skip_classes:
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from attribute_reads(child, skip_classes)


def test_every_config_key_is_read_outside_its_section_class():
    # a key that no code reads is a knob that changes a stage address and nothing else;
    # reads are matched by name, so a key shares its reads with any same-named attribute
    sections = {cls.__name__: cls for cls in _SECTIONS.values()}
    reads = {
        name
        for pattern in ("src/kgrerank/*.py", "scripts/*.py")
        for path in glob.glob(os.path.join(ROOT, pattern))
        for name in attribute_reads(_parse(path), sections)
    }
    unread = {f"{cls.__name__}.{f.name}" for cls in sections.values() for f in fields(cls) if f.name not in reads}
    assert unread == set()


def test_every_built_text_table_is_read_outside_kg():
    # a text table that no stage reads only makes every graph build, every
    # built graph and every load larger
    reads = {
        name
        for path in glob.glob(os.path.join(ROOT, "src/kgrerank/*.py"))
        if os.path.basename(path) != "kg.py"
        for name in attribute_reads(_parse(path), ())
    }
    assert set(kg._BUILT_TABLES) - reads == set()


def test_no_script_imports_a_private_kgrerank_name():
    private = {
        (os.path.basename(path), alias.name)
        for path in glob.glob(os.path.join(ROOT, "scripts", "*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kgrerank")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == set()


def imported_modules(tree):
    """The top-level name of each module an import names; a relative import is ``kgrerank``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "kgrerank" if node.level else node.module.split(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    foreign = {
        (os.path.basename(path), module)
        for path in glob.glob(os.path.join(ROOT, "src", "kgrerank", "*.py"))
        for module in imported_modules(_parse(path))
        if module not in sys.stdlib_module_names | {"numpy", "kgrerank"}
    }
    assert foreign == set()


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in dependencies] == ["numpy"]


def perfbench_tracer():
    """``perfbench/tracer.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_perfbench_hook_resolves_in_src():
    # the benchmark's tracer lists a hook it cannot find as absent and runs on
    # without its span, so a renamed or deleted target fails here instead
    tracer = perfbench_tracer()
    absent = []
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            try:
                owner = inspect.getattr_static(owner, part)
            except AttributeError:
                absent.append(f"{module_name}.{path}")
                break
    assert tracer.TARGETS and absent == []


def test_every_perfbench_hook_runs_in_the_toy_pipeline(tmp_path, toy_dir):
    # a hook that resolves but that no stage calls records no span, and its
    # metrics read 0: the four stages, evaluate on the remote backend, call each
    module = perfbench_tracer()
    tracer = module.Tracer()
    with serving(ChatStub(lambda n: 200)) as stub:
        config = tmp_path / "run.ini"
        config.write_text(
            f"[pipeline]\ndataset_dir = {toy_dir}\nworkdir = {tmp_path / 'w'}\n"
            "[embedder]\ndim = 8\nepochs = 2\n[ranker]\nm = 5\n"
            f"[backend]\nkind = remote\nendpoint = {stub.endpoint}\nmodel = m\n",
            encoding="utf-8",
        )
        tracer.install()
        try:
            stages = ("train-embeddings", "build-finetune", "build-eval", "evaluate")
            codes = [cli.main([stage, "--config", str(config)]) for stage in stages]
        finally:
            tracer.uninstall()
    assert codes == [0] * len(stages)
    hooks = {name for _, _, name in module.TARGETS} | {"discriminator.select"}
    assert hooks - {span[0] for span in tracer.spans} == set()


MATRIX_PRODUCTS = {"dot", "vdot", "matmul", "einsum", "tensordot", "inner", "linalg"}


def product_spellings(node):
    """The spelling of ``node`` when it is an ``@``, or a name, attribute or
    imported module of a numpy matrix product."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        yield "@"
    elif isinstance(node, ast.Name) and node.id in MATRIX_PRODUCTS:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS:
        yield node.attr
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        for name in modules + [alias.name for alias in node.names]:
            if MATRIX_PRODUCTS & set(name.split(".")):
                yield name


def matrix_products(tree):
    """The line and spelling of each matrix product under ``tree``."""
    for node in ast.walk(tree):
        for spelling in product_spellings(node):
            yield node.lineno, spelling


def test_a_graph_build_makes_no_matrix_product():
    # a matrix product runs on the BLAS thread pool, whose second thread can
    # stall a graph miss for a quarter of a second; kg counts in integers
    found = sorted(matrix_products(_parse(os.path.join(ROOT, "src", "kgrerank", "kg.py"))))
    assert found == []


def blas_products(node, owner=None, scoped=False):
    """``(function, spelling, scoped)`` of each matrix product under ``node``
    that can call BLAS, with the innermost function around it and whether a
    ``with _one_blas_thread()`` holds it. A plain ``einsum`` call is none:
    numpy's einsum reaches BLAS only through its ``optimize`` argument."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.With) and any(
        isinstance(item.context_expr, ast.Call) and ast.unparse(item.context_expr.func).endswith("_one_blas_thread")
        for item in node.items
    ):
        scoped = True
    children = list(ast.iter_child_nodes(node))
    if isinstance(node, ast.Call) and all(kw.arg != "optimize" for kw in node.keywords):
        if "einsum" in product_spellings(node.func):
            children.remove(node.func)
    for spelling in product_spellings(node):
        yield owner, spelling, scoped
    for child in children:
        yield from blas_products(child, owner, scoped)


def test_no_stage_wakes_the_blas_pool():
    # every matrix product that a stage runs holds OpenBLAS to one thread; the
    # adapter is for an outside finetuner and no stage runs it
    found = {
        (os.path.basename(path)[:-3], *product)
        for path in glob.glob(os.path.join(ROOT, "src", "kgrerank", "*.py"))
        if os.path.basename(path) != "adapter.py"
        for product in blas_products(_parse(path))
    }
    assert found == {("embeddings", "first_pass", "@", True)}


def owners(node, matches, owner=None):
    """The name of the innermost function around each node under ``node``
    for which ``matches`` is true."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if matches(node):
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from owners(child, matches, owner)


def src_owners(matches):
    """``(module, function)`` of each node in ``src/kgrerank/`` for which ``matches`` is true."""
    return {
        (os.path.basename(path)[:-3], owner)
        for path in glob.glob(os.path.join(ROOT, "src", "kgrerank", "*.py"))
        for owner in owners(_parse(path), matches)
    }


def catches_data_error(node):
    return isinstance(node, ast.ExceptHandler) and node.type and re.search(r"\bDataError\b", ast.unparse(node.type))


def test_a_data_error_is_caught_only_by_the_one_refusal_rule():
    # what a stage output's reader refuses is rebuilt by cli._output alone; main
    # maps the rest to exit 2, and a scripted fixture's fault is a backend error
    caught = src_owners(catches_data_error)
    assert caught == {("cli", "_output"), ("cli", "main"), ("discriminator", "from_file")}


def writes_json(node):
    """A ``json.dump`` call, the one that writes to a file, however it was imported."""
    return isinstance(node, ast.Call) and "dump" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_one_function_writes_json_files():
    # every summary.json and report.json goes through one writer, so their
    # layouts (sorted keys, indent 2, closing newline) cannot drift apart
    assert src_owners(writes_json) == {("instructions", "write_json")}


def test_src_and_scripts_parse_at_the_python_floor():
    # pyproject.toml's requires-python is the oldest Python that must run the
    # code; a newer grammar (an except* clause, a type statement) fails here
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        floor = re.search(r'^requires-python = ">=3\.(\d+)"$', f.read(), re.MULTILINE)
    assert floor, "requires-python is not of the form >=3.N"
    too_new = []
    for pattern in ("src/kgrerank/*.py", "scripts/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as f:
                source = f.read()
            try:
                ast.parse(source, filename=path, feature_version=(3, int(floor.group(1))))
            except SyntaxError as exc:
                too_new.append(f"{os.path.relpath(path, ROOT)}:{exc.lineno}: {exc.msg}")
    assert too_new == []


def test_the_test_oracles_import_no_private_ranking_name():
    # an oracle that calls the ranking's own selection or filter judges the
    # fast path by its own code
    tree = _parse(os.path.join(ROOT, "tests", "helpers.py"))
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kgrerank.ranking"
        for alias in node.names
        if alias.name.startswith("_")
    }
    private |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ranking"
        if node.attr.startswith("_")
    }
    assert private == set()
