"""The README's "Library use" section promises names that import from the
package; each one must, so a deletion cannot drop a promised name."""

import re
from pathlib import Path

import oeeforecast

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_names() -> list[str]:
    """The names of the section's import block and its backticked names,
    up to its first subsection."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n#", 1)[0]
    imported = re.search(r"from oeeforecast import \(([^)]*)\)", section).group(1)
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return re.findall(r"\w+", imported) + re.findall(r"`(\w+)`", prose)


def test_library_use_names_import_from_the_package():
    names = library_use_names()
    assert {"rolling_forecast", "decompose", "pso_bic"} <= set(names)  # the section was read
    assert [n for n in names if not hasattr(oeeforecast, n)] == []
