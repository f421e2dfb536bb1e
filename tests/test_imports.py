"""Every name a library module imports is used in that module, every
module-level name is used somewhere in the package or exported by
``__all__``, every exported name is read by a library module or wrapped by
the benchmark's tracer, and every function the tracer wraps exists.

No linter is part of the toolchain, so this walks the syntax tree instead.
``__init__.py`` is skipped for imports: they are the package's re-exports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bidouble"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def defined_names(statement: ast.stmt) -> set[str]:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def read_names(statement: ast.stmt) -> set[str]:
    """Names a statement reads, as a variable or as an attribute."""
    out: set[str] = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_names(sources: dict[str, str], candidate) -> list[str]:
    """``module:name`` of every module-level name with ``candidate(name)``
    that no other module-level statement of the package reads; a function
    that only calls itself counts as unreferenced."""
    statements = [
        (module, stmt)
        for module, source in sorted(sources.items())
        for stmt in ast.parse(source).body
    ]
    reads = [read_names(stmt) for _, stmt in statements]
    out = []
    for i, (module, stmt) in enumerate(statements):
        for name in sorted(defined_names(stmt)):
            if not candidate(name):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                out.append(f"{module}:{name}")
    return sorted(out)


def test_detector_finds_unused_names():
    source = "import os.path\nimport json as j\nfrom a import b, c\nb()\nj.dumps\n"
    assert unused_imports(source) == ["c", "os"]


def test_detector_finds_unreferenced_private_names():
    sources = {
        "a.py": "def _same(x):\n    return _same(x)\n_cache = {}\ndef _used():\n    pass\n",
        "b.py": "from .a import _used\n_used()\n_TABLE: dict = {}\n",
        "c.py": "import b\nb._TABLE.clear()\n",
    }
    assert unreferenced_names(sources, is_private) == ["a.py:_cache", "a.py:_same"]


def assigned_literal(source: str, name: str):
    """The literal a module-level statement of ``source`` assigns to ``name``,
    read without importing the module."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no module-level assignment to {name}")


def dead_public(sources: dict[str, str]) -> list[str]:
    """Public module-level names that nothing in the package reads and
    ``__all__`` does not export."""
    public = frozenset(assigned_literal(sources["__init__.py"], "__all__"))
    return unreferenced_names(
        sources, lambda name: not name.startswith("_") and name not in public
    )


def test_detector_finds_dead_public_names():
    sources = {
        "__init__.py": "from .a import shown\n__all__ = ['shown']\n",
        "a.py": "def shown():\n    return helper()\ndef helper():\n    pass\n"
        "def dead():\n    return dead()\nTABLE = frozenset()\n_private = 1\n",
    }
    assert dead_public(sources) == ["a.py:TABLE", "a.py:dead"]


def slot_stores(source: str) -> list[str]:
    """Uses of what stores past a frozen dataclass's checks: a slot
    descriptor's ``__set__``, ``object.__new__`` and generated code."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "__set__":
            out.append("__set__")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            out.append("object.__new__")
        elif isinstance(node, ast.Name) and node.id == "exec":
            out.append("exec")
    return sorted(out)


def test_detector_finds_slot_stores():
    source = (
        "s = C.f.__set__\nnew = object.__new__\nexec('x = 1')\n"
        "object.__setattr__(o, 'f', 1)\nC.__new__(C)\n"
    )
    assert slot_stores(source) == ["__set__", "exec", "object.__new__"]


def test_slot_stores_only_in_lattice():
    # skipping a value type's validation is decided once, by lattice._builder
    found = {name: slot_stores(source) for name, source in package_sources().items()}
    assert {name for name, uses in found.items() if uses} == {"lattice.py"}


def names_reached(source: str, function: str) -> set[str]:
    """Every variable and attribute name that the module-level function
    reads, and that the module-level functions it names read in turn."""
    defs = {st.name: st for st in ast.parse(source).body if isinstance(st, ast.FunctionDef)}
    if function not in defs:
        raise AssertionError(f"no module-level function {function}")
    names: set[str] = set()
    todo = [function]
    while todo:
        found = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(defs.pop(todo.pop()))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        names |= found
        todo.extend(name for name in found if name in defs and name not in todo)
    return names


# what the oracles must not share with the closed forms they check: the
# library's form, K, section counts and class builders
ORACLE_FORBIDDEN = frozenset(
    {
        "intersect",
        "_pairing",
        "_h0_coords",
        "h0",
        "h0_flagged",
        "_ruled_canonical",
        "_canonical",
        "_trusted",
        "DivClass",
    }
)


def test_oracle_forbidden_names_exist():
    # a name the library lost would guard nothing
    lattice = importlib.import_module("bidouble.lattice")
    for name in ORACLE_FORBIDDEN:
        assert hasattr(lattice, name) or hasattr(lattice.Ambient, name), name


def test_detector_finds_names_reached():
    source = (
        "def f(bd):\n    k = bd.ambient._canonical\n    return intersect(k, k)\n"
        "def g(bd):\n    return h(bd) + g(bd)\n"
        "def h(bd):\n    return DivClass\n"
        "def unread():\n    return _trusted\n"
    )
    assert names_reached(source, "f") & ORACLE_FORBIDDEN == {"_canonical", "intersect"}
    assert names_reached(source, "g") & ORACLE_FORBIDDEN == {"DivClass"}


@pytest.mark.parametrize("oracle", ["chi_oracle", "ksq_oracle"])
def test_oracles_name_no_library_form(oracle):
    # the oracles write the form and K_Y out themselves and build no class
    source = (SRC / "cover.py").read_text(encoding="utf-8")
    assert names_reached(source, oracle) & ORACLE_FORBIDDEN == set()


def body_names(source: str, function: str) -> set[str]:
    """Every variable and attribute name that the body of the module-level
    function reads; the annotations of its signature are left out."""
    for st in ast.parse(source).body:
        if isinstance(st, ast.FunctionDef) and st.name == function:
            return {
                node.id if isinstance(node, ast.Name) else node.attr
                for stmt in st.body
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    raise AssertionError(f"no module-level function {function}")


# the validating constructors that the data recipes pass by: those of the
# constructions and the two degenerations that build new components
RECIPE_FORBIDDEN = frozenset({"divisor", "DivClass", "Component"})
DATA_RECIPES = [
    "_genus3_data",
    "_genus2_family_data",
    "_one_curve_per_branch",
    "_product_data",
    "_plane_data",
    "_spare_fiber_through_point",
    "_shared_section",
]


def test_detector_finds_body_names():
    source = (
        "def f(d: DivClass) -> Component:\n    return amb.divisor(1, 0)\n"
        "def g():\n    return _trusted(amb, (1,))\n"
    )
    assert body_names(source, "f") & RECIPE_FORBIDDEN == {"divisor"}
    assert body_names(source, "g") & RECIPE_FORBIDDEN == set()


@pytest.mark.parametrize("recipe", DATA_RECIPES)
def test_data_recipes_build_trusted(recipe):
    # building_data validates each datum a recipe makes, once
    source = (SRC / "recipes.py").read_text(encoding="utf-8")
    assert body_names(source, recipe) & RECIPE_FORBIDDEN == set()


def test_modules_found():
    assert {"cli.py", "cover.py", "recipes.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}


def test_no_unreferenced_private_names():
    assert unreferenced_names(package_sources(), is_private) == []


def test_every_public_name_is_read_or_exported():
    assert dead_public(package_sources()) == []


def test_every_export_is_read():
    # a name that only __init__.py and the tests read is test-only API; the
    # functions the benchmark's tracer wraps are kept for it
    sources = package_sources()
    public = frozenset(assigned_literal(sources.pop("__init__.py"), "__all__"))
    tracing = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    traced = {attr for _, attr, _ in assigned_literal(tracing, "TRACED") if "." not in attr}
    defined = {
        name for source in sources.values() for st in ast.parse(source).body
        for name in defined_names(st)
    }
    assert public <= defined
    assert unreferenced_names(sources, lambda name: name in public and name not in traced) == []


def test_traced_functions_resolve():
    # every (module, attribute, label) the benchmark's tracer wraps
    source = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    traced = assigned_literal(source, "TRACED")
    assert traced
    for module_name, attr, _ in traced:
        owner = importlib.import_module(f"bidouble.{module_name}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer takes a method from its class's own namespace
        assert name in (vars(owner) if classes else dir(owner)), f"{module_name}.{attr}"


def test_tracer_counts_each_resolution():
    # the tracer's resolution label counts one call per pair that resolves
    # triple points, however many it resolves
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name in {module_name for module_name, _, _ in tracing.TRACED}:
        importlib.import_module(f"bidouble.{module_name}")
    recipes = importlib.import_module("bidouble.recipes")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        certs = [recipes.construct(ksq, 20) for ksq in (96, 97, 99)]
    finally:
        tracer.uninstall()
    # Genus3 pairs with 0, 3 and 1 resolved triple points
    assert [(c.region, c.epsilon) for c in certs] == [("Genus3", 0), ("Genus3", 3), ("Genus3", 1)]
    assert tracer.stats["cover.resolve_triple_point"][0] == 2
