"""The benchmark's inputs match the test suite's stand-ins.

    python3 -m pytest perfbench/test_inputs.py -q
"""

import importlib.util
import sys

import numpy as np
import pytest

import checkout
import inputs

sys.path.insert(0, str(checkout.SRC))


def _make_oee_series():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", checkout.ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_oee_series


@pytest.mark.parametrize("name", sorted(inputs.STAND_INS))
def test_stand_ins_are_the_acceptance_series(name):
    n, seed = inputs.STAND_INS[name]
    expected = _make_oee_series()(n, seed=seed, name=name).values
    assert np.array_equal(inputs.stand_in(name), expected)


@pytest.mark.parametrize("name", sorted(inputs.STAND_INS))
def test_new_rows_are_fresh_for_each_seed(name):
    rows = inputs.new_rows(name, 1, 50)
    assert rows.shape == (50,)
    assert np.array_equal(rows, inputs.new_rows(name, 1, 50))
    assert not np.array_equal(rows, inputs.new_rows(name, 2, 50))
    assert rows.min() >= 1.0 and rows.max() <= 60.0


def test_csv_round_trips_exactly(tmp_path):
    from oeeforecast.series import load_csv

    values = inputs.stand_in("gh2")
    path = tmp_path / "gh2.csv"
    inputs.write_csv(path, values)
    inputs.append_row(path, 12.5)
    loaded = load_csv(path, "value").values
    assert np.array_equal(loaded, np.append(values, 12.5))
