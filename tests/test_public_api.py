"""The package exports exactly the API that README's Library section lists."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from types import ModuleType

import slangsent

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def documented_names(readme: str) -> set[str]:
    """The names of the `from slangsent import (...)` block in the Library
    section."""
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^from slangsent import \(.*?^\)", library, re.MULTILINE | re.DOTALL)
    (statement,) = ast.parse(block.group(0)).body
    return {alias.name for alias in statement.names}


def public_names(package: ModuleType) -> set[str]:
    """Every attribute of a package that is not a submodule and does not
    start with an underscore (so not `__version__`)."""
    return {
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


def test_exports_equal_the_documented_api():
    documented = documented_names(README.read_text(encoding="utf-8"))
    exported = public_names(slangsent)
    assert not exported - documented, f"exported but not documented: {sorted(exported - documented)}"
    assert not documented - exported, f"documented but not exported: {sorted(documented - exported)}"


def test_guard_reads_the_library_block_only():
    readme = (
        "# x\n\n## CLI\n\n```python\nfrom slangsent import (cli_only)\n```\n\n"
        "## Library\n\n```python\nfrom slangsent import (\n    a, b,\n    c,\n)\n```\n\n"
        "## Later\n\nfrom slangsent import (later)\n"
    )
    assert documented_names(readme) == {"a", "b", "c"}
    package = ModuleType("pkg")
    package.exported, package._private, package.sub = 1, 2, ModuleType("pkg.sub")
    package.__version__ = "0"
    assert public_names(package) == {"exported"}


def test_version_equals_the_project_version():
    # A regex, not tomllib, which Python 3.10 lacks.
    project = PYPROJECT.read_text(encoding="utf-8").split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert slangsent.__version__ == version
