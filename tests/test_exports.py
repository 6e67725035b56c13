import ast
from pathlib import Path

import vpfbetti

# exported names that no package module calls, each with the reason it stays
UNCALLED_EXPORTS = {
    "series_coeffs": "perfbench/tracer.py wraps it by name",
    "series_identity_check": "perfbench/tracer.py wraps it by name",
    "total_betti_polynomial": "the README's eventual totals",
    "chamber_from_generators": "the only public way to build a non-bigraded chamber",
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


def test_every_exported_name_has_a_caller_in_the_package():
    uncalled = set(vpfbetti.__all__) - _package_references()
    assert uncalled == set(UNCALLED_EXPORTS)
