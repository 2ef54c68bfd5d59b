"""The package's record classes: immutability, hashing and a light import.

Pure records are ``NamedTuple``s; the classes that validate or normalize
their fields are slotted classes with an explicit ``__init__``.  None of
them needs ``dataclasses``, so importing the CLI loads neither it nor the
``inspect`` module it pulls in.
"""

import pathlib
import subprocess
import sys

import pytest

from youngquiver.exactlinalg import IntMatrix
from youngquiver.partitions import Partition
from youngquiver.symgroup import GroupAlgebraElement

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_dataclasses():
    # -S: no site module, so nothing but the package decides what is loaded
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import youngquiver.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


FIELDS = [
    (Partition((3, 1)), ("rows", "size")),
    (IntMatrix(2, 2, {(0, 1): 1}), ("n_rows", "n_cols", "entries")),
    (GroupAlgebraElement(2, {(2, 1): 1}, 2), ("degree", "numerators", "denominator")),
]


@pytest.mark.parametrize("value,names", FIELDS, ids=[type(v).__name__ for v, _ in FIELDS])
def test_fields_cannot_be_assigned_or_deleted(value, names):
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_partition_hashes_as_its_field_tuple():
    for rows in [(), (1,), (3, 1), (2, 2, 1)]:
        a, b = Partition(rows), Partition(list(rows))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash((rows,))
    assert Partition((2,)) != Partition((1, 1))
    assert Partition((2,)) != (2,)


@pytest.mark.parametrize(
    "value",
    [IntMatrix(1, 1, {(0, 0): 1}), GroupAlgebraElement(1, {(1,): 1})],
    ids=["IntMatrix", "GroupAlgebraElement"],
)
def test_mutable_field_values_stay_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)
