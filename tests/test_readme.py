"""What the README promises: the names its "Library use" section imports
must import from the package, and its "Command line" config block must read
into a PipelineConfig, so a deletion cannot drop a promised name or key."""

import re
from pathlib import Path

import oeeforecast
from oeeforecast.pipeline import PipelineConfig, coerce_config_value, read_settings

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


def test_command_line_config_block_reads_into_a_pipeline_config(tmp_path):
    """The "Command line" section's config block, read as a config file is:
    every documented key is a PipelineConfig field whose value parses, and
    together they make a valid config."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    path = tmp_path / "readme.conf"
    path.write_text(re.search(r"```\n(.*?)```", section, flags=re.S).group(1), encoding="utf-8")
    values = {
        key: coerce_config_value(key, value, where) for where, key, value in read_settings(path)
    }
    assert {"dataset", "feature_mode", "sarimax_spec"} <= set(values)  # the block was read
    assert PipelineConfig(**values).feature_mode == "topological"
