import ast
import inspect
from pathlib import Path

import vpfbetti

# exported names that no package module calls, each with the reason it stays
UNCALLED_EXPORTS = {
    "hf_grid": "the README's dense value grid for library callers; verify reads value rows",
    "series_coeffs": "perfbench/tracer.py wraps it by name",
    "series_identity_check": "perfbench/tracer.py wraps it by name",
    "total_betti_polynomial": "the README's eventual totals",
}

# public methods and properties of exported classes that no package module
# calls, each with the reason it stays
UNCALLED_MEMBERS = {
    "Polynomial.total_degree": "criterion 4's degree bound",
}


def _package_references():
    """Names and attributes read in each package module, outside the statement defining them."""
    refs = set()
    for path in Path(vpfbetti.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    refs.add(name)
    return refs


def _public_members():
    """(class, member) for every public method and property of an exported class."""
    for name in vpfbetti.__all__:
        cls = getattr(vpfbetti, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (classmethod, staticmethod, property)) or inspect.isfunction(value):
                yield name, attr


def test_every_exported_name_has_a_caller_in_the_package():
    uncalled = set(vpfbetti.__all__) - _package_references()
    assert uncalled == set(UNCALLED_EXPORTS)


def test_every_public_member_of_an_exported_class_has_a_caller_in_the_package():
    refs = _package_references()
    uncalled = {f"{cls}.{attr}" for cls, attr in _public_members() if attr not in refs}
    assert uncalled == set(UNCALLED_MEMBERS)
