import ast
import importlib
from pathlib import Path

from fdomlab.graphs import Graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fdomlab"


def test_no_assert_statements_in_the_package():
    # asserts vanish under `python -O`; correctness checks must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_private_names_imported_across_modules():
    # a module's _-prefixed names are its own; another module that needs
    # one should get a public entry point instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("fdomlab")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert found == []


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module uses what it imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_bench_binding_resolves(monkeypatch):
    # a traced bench pass rebinds these names and reports the missing ones
    # only at run time, so a rename in the package must fail here first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in layers.BINDINGS
               if not callable(getattr(module, name, None))]
    assert missing == []
    bound = {span for _, _, span, _ in layers.BINDINGS}
    unbound = [f"{workload}: {span}" for workload, spans in layers.REQUIRED.items()
               for span in spans if span not in bound]
    assert unbound == []


def test_graph_keeps_its_adjacency_once():
    # edges, degrees and traversals derive from the masks; a second stored
    # form of the adjacency would cost memory on every enumerated graph
    assert Graph.__slots__ == ("n", "nbr_mask", "closed_mask")


def test_only_fdom_drives_the_warm_started_master():
    # fdom.colgen is the one column-generation loop; another module that
    # reaches for IntegerLP would be growing a second one
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == "IntegerLP"
                    or isinstance(node, ast.Attribute) and node.attr == "IntegerLP"
                    or isinstance(node, ast.alias) and node.name == "IntegerLP"):
                found.add(path.name)
    assert found == {"fdom.py", "simplex.py"}


def test_every_data_file_is_named_by_a_module():
    # a shipped data file that no module reads would linger unchecked
    sources = "".join(path.read_text() for path in SRC.glob("*.py"))
    unnamed = [f.name for f in sorted((SRC / "data").iterdir())
               if f.is_file() and f.name not in sources]
    assert unnamed == []


def test_outside_integers_have_one_reader():
    # graphs.read_int is the one place text becomes an int; int() elsewhere,
    # or argparse's type=int, would also take ' 1', '1_0', '+1' or '\u0661'
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reader = {id(node) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and (path.name, f.name) == ("graphs.py", "read_int")
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "int" and id(node) not in reader
                    or isinstance(node, ast.keyword) and node.arg == "type"
                    and isinstance(node.value, ast.Name) and node.value.id == "int"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_raises_the_recursion_limit():
    # a deep search keeps its nodes on its own stack; a raised limit lets
    # the C stack overflow first, which ends the process without a message
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit"
                    or isinstance(node, ast.alias) and node.name == "setrecursionlimit"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_recursion_is_audited():
    # a function that calls itself spends an interpreter frame per level, so
    # a deep input ends at the recursion limit as an internal error; each
    # one left is bounded, and a new one has to be argued the same way
    audited = {
        "chromatic.maximal_independent_sets.bk",  # n <= CHI_F_ENUM_CAP at its caller
        "construct._planar_recurse",  # the atom count grows first
        "domset.enumerate_minimal_dominating_sets.search",  # n <= the enum cap
        "enumerate_graphs.all_graphs",  # 2^n subset tables end it near n = 10
        "iso.canonical_form.backtrack",  # the tests' small-graph oracle
        "simplex._pack_lanes",  # halves its list: depth log2(len)
    }
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(c, ast.Call) and (
                            isinstance(c.func, ast.Name) and c.func.id == child.name
                            or isinstance(c.func, ast.Attribute) and c.func.attr == child.name
                            and isinstance(c.func.value, ast.Name)
                            and c.func.value.id in ("self", "cls"))
                        for c in ast.walk(child)):
                    found.add(name)
            visit(child, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == audited


def test_every_public_name_is_read():
    # a public name that no module and no bench script reads is code that
    # nothing reaches; each one kept for the tests has its reason here
    audited = {
        "chromatic.join_check": "criterion 8",
        "chromatic.JoinReport.holds": "criterion 8",
        "fdom.pq_colouring_exists": "criterion 7",
        "distributions.distribution_to_colouring": "the distribution/colouring equivalence",
        "generators.hammock_expand": "the tests' graph maker",
        "generators.subdivide": "the tests' graph maker",
        "figures.catalog_keys": "the catalog-reach tests",
        "iso.canonical_form": "the tests' isomorphism oracle",
        "iso.group_closure": "the tests' automorphism-group oracle",
        "iso.automorphisms": "the tests' automorphism oracle",
    }
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in modules + sorted((ROOT / "perfbench").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)

    unread = set()
    for path in modules:
        for node in trees[path].body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
                if isinstance(node, ast.ClassDef):
                    names += [f"{node.name}.{f.name}" for f in node.body
                              if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.Assign):
                names += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
            for name in names:
                bare = name.rpartition(".")[2]
                if not bare.startswith("_") and bare not in read:
                    unread.add(f"{path.stem}.{name}")
    assert unread == set(audited)
