"""Every top-level function and class of bellkit has a caller in the package.

A name counts as called when it appears as a name or an attribute in
`src/bellkit` outside its own definition, or when `bellkit/__init__.py`
exports it: lists it in `_EXPORTS`, the table its `__getattr__` resolves
names from. Docstrings and comments are not references. Private names
count too, so a helper that only the tests call lives in
`tests/oracles.py`; dunders such as a module's `__getattr__` are exempt.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bellkit"


def _modules(package):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def _referenced_names(tree, skip):
    """Names and attribute names used in `tree`, leaving out the subtree `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def uncalled_names(package=PACKAGE):
    """`module.name` of each top-level function and class, dunders aside, with no caller in `package`."""
    modules = _modules(package)
    exported = {
        name
        for node in modules["__init__"].body
        if isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["_EXPORTS"]
        for names in ast.literal_eval(node.value).values()
        for name in names
    }
    uncalled = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            if not any(node.name in _referenced_names(other, node) for other in modules.values()):
                uncalled.append(f"{module}.{node.name}")
    return uncalled


def _is_private(qualified_name):
    return qualified_name.split(".", 1)[1].startswith("_")


def test_every_public_name_has_a_caller():
    assert [name for name in uncalled_names() if not _is_private(name)] == []


def test_every_private_name_has_a_caller():
    assert [name for name in uncalled_names() if _is_private(name)] == []


def test_a_self_call_is_not_a_caller(tmp_path):
    (tmp_path / "__init__.py").write_text('_EXPORTS = {"m": ("kept",)}\n')
    (tmp_path / "m.py").write_text(
        "def kept():\n    return used()\n\n"
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    '''Calls used() and recursive().'''\n    return recursive(n - 1)\n"
    )
    assert uncalled_names(tmp_path) == ["m.recursive"]


def test_private_names_need_a_caller_and_dunders_do_not(tmp_path):
    (tmp_path / "__init__.py").write_text('_EXPORTS = {"m": ("kept",)}\n\ndef __getattr__(name):\n    return name\n')
    (tmp_path / "m.py").write_text(
        "def kept():\n    return _Used()\n\n"
        "class _Used:\n    pass\n\n"
        "def _only_tests_call_me():\n    return 1\n\n"
        "def __dir__():\n    return []\n"
    )
    assert uncalled_names(tmp_path) == ["m._only_tests_call_me"]
