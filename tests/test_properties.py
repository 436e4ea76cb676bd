"""Properties checked on generated inputs; skipped where Hypothesis is not installed, which
simrank itself never needs. ``derandomize`` and no example database keep each run the same.
Hypothesis also caches the constants it reads from local source, while pytest collects, so
its home is a temporary directory, removed at exit, and a run writes nothing into the tree."""

import io
import struct
import sys
import tempfile
from array import array

import pytest

from simrank import CriteriaSchema, CriterionSpec, Dataset, Direction, dataset_to_csv, load_dataset

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st  # noqa: E402  (after the skip)

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)
# On a failure the pytest plugin imports this optional module to suggest a patch. It loads
# libcst, whose import warns, and under filterwarnings = error that warning would stop the
# whole session; blocked, the import fails as without libcst and the failure is reported.
sys.modules.setdefault("hypothesis.extra._patching", None)

# every finite double, -0.0 and subnormals included, in 1 to 20 rows of 1 to 4 cells
ROWS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
    min_size=1, max_size=20))


@settings(database=None, derandomize=True)
@given(ROWS)
def test_csv_round_trip_keeps_every_bit(rows):
    k = len(rows[0])
    schema = CriteriaSchema(tuple(CriterionSpec(f"C{j}", Direction.MAXIMIZE) for j in range(k)))
    names = tuple(f"p{i}" for i in range(len(rows)))
    table = {f"C{j}": array("d", column) for j, column in enumerate(zip(*rows))}
    loaded = load_dataset(io.StringIO(dataset_to_csv(Dataset(schema, names, table))), schema)
    assert loaded.names == names
    for j, column in enumerate(zip(*rows)):
        stored = loaded.column(f"C{j}")
        assert type(stored) is array and stored.typecode == "d"
        assert stored.tobytes() == struct.pack(f"{len(column)}d", *column)
