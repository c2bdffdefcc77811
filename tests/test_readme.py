"""What the README promises: the names its "Library use" section imports
must import from the package, its "Command line" config block must read
into a PipelineConfig, and its "Forecast service" registry block must load
as a registry, so a deletion cannot drop a promised name or key."""

import re
from pathlib import Path

import oeeforecast
from oeeforecast.pipeline import PipelineConfig, coerce_config_value, read_settings
from oeeforecast.service import load_registry

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


def test_forecast_service_registry_block_loads(tmp_path):
    """The "Forecast service" section's registry block, with each dataset
    path pointed at a temp file, loads through service.load_registry."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Forecast service\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)

    def temp_file(m):
        path = tmp_path / Path(m.group(2)).name
        path.write_text("value\n1.0\n", encoding="utf-8")
        return m.group(1) + str(path)

    path = tmp_path / "registry.conf"
    path.write_text(re.sub(r"(\.dataset = )(\S+)", temp_file, block), encoding="utf-8")
    registry = load_registry(path)
    assert set(registry) == {"gh2", "gm2"}  # the block was read
    assert registry["gm2"].sarimax_spec.P == 2
