"""Shared fixtures: a small two-student log whose encoding is known by hand.

Every test here fails on an ``EncodingWarning`` raised from this directory's
own modules, as ``open`` raises it under PYTHONWARNDEFAULTENCODING=1 for a
text file opened without naming its encoding: every file the tests read or
write is UTF-8, whatever the host's locale. Warnings from other modules, such
as perfbench's tests or a pytest plugin, are left to the run's own filters.
"""

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ktfm import DesignMatrix, EncodingConfig, FeatureSpace, QMatrix

TESTS = Path(__file__).resolve().parent
# this directory's modules, imported as ``test_cli`` or as ``tests.test_cli``
_OWN_MODULES = "(tests\\.)?(" + "|".join(sorted(path.stem for path in TESTS.glob("*.py"))) + ")$"


def pytest_collection_modifyitems(items):
    mark = pytest.mark.filterwarnings(f"error::EncodingWarning:{_OWN_MODULES}")
    for item in items:
        if item.path.parent == TESTS:
            item.add_marker(mark)


# Item 0 exercises no skill, item 1 exercises skills {0, 1}, item 2 skills
# {1, 2}. Student 1 answers item 1 (right, wrong, right) then item 2 (wrong,
# right); student 0 answers item 1 (right) and item 0 (wrong).
EXAMPLE_QMATRIX = np.array(
    [
        [0, 0, 0],
        [1, 1, 0],
        [0, 1, 1],
    ],
    dtype=np.int8,
)


class Attempt(NamedTuple):
    """A row of the worked example; ``perfbench/test_checkers.py`` reads its
    fields by name, while ``ktfm`` takes the rows as plain (N, 3) int data."""

    student: int
    item: int
    outcome: int


EXAMPLE_TRIPLETS = [
    Attempt(1, 1, 1),
    Attempt(1, 1, 0),
    Attempt(1, 1, 1),
    Attempt(1, 2, 0),
    Attempt(1, 2, 1),
    Attempt(0, 1, 1),
    Attempt(0, 0, 0),
]

# users(2) | items(3) | skills(3) | wins(3) | fails(3), counters as they
# stood before each attempt, masked to the attempted item's skills
EXAMPLE_ENCODED = np.array(
    [
        [0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 2, 1],
        [1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=np.float64,
)

EXAMPLE_LABELS = [1, 0, 1, 0, 1, 1, 0]

FULL_CONFIG = EncodingConfig(("users", "items", "skills", "wins", "fails"))


def matrix_from_rows(width_or_space, rows, labels=None) -> DesignMatrix:
    """Design matrix whose row r holds the (column, value) pairs ``rows[r]``."""
    space = width_or_space
    if isinstance(space, int):
        space = FeatureSpace((("features", space),))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [c for row in rows for c, _ in row]
    data = [v for row in rows for _, v in row]
    labels = np.zeros(len(rows), dtype=np.int8) if labels is None else labels
    return DesignMatrix(space, indptr, indices, data, labels)


def to_dense(dm: DesignMatrix) -> np.ndarray:
    """The rows of ``dm`` as a dense 2-d array."""
    dense = np.zeros((len(dm), dm.space.width))
    dense[np.repeat(np.arange(len(dm)), np.diff(dm.indptr)), dm.indices] = dm.data
    return dense


def scipy_csr(dm: DesignMatrix):
    """A ``scipy.sparse.csr_matrix`` built from the stored arrays of ``dm``."""
    import scipy.sparse as sp

    return sp.csr_matrix((dm.data, dm.indices, dm.indptr), shape=(len(dm), dm.space.width))


def matrix_from_dense(width_or_space, dense, labels=None) -> DesignMatrix:
    """Design matrix storing the nonzero cells of the 2-d array ``dense``."""
    dense = np.asarray(dense, dtype=np.float64)
    return matrix_from_rows(
        width_or_space,
        [[(int(c), float(row[c])) for c in np.flatnonzero(row)] for row in dense],
        labels,
    )


@pytest.fixture
def example_qmatrix():
    return QMatrix(EXAMPLE_QMATRIX)


@pytest.fixture
def example_triplets():
    return list(EXAMPLE_TRIPLETS)


@pytest.fixture
def example_log_csv(tmp_path):
    """The same log as a raw CSV with 1-based ids, plus its q-matrix file."""
    data = tmp_path / "triplets.csv"
    lines = ["user_id,item_id,correct"]
    lines += [f"{student + 1},{item + 1},{outcome}" for student, item, outcome in EXAMPLE_TRIPLETS]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    qfile = tmp_path / "qmatrix.csv"
    qfile.write_text("\n".join(",".join(str(c) for c in row) for row in EXAMPLE_QMATRIX) + "\n", encoding="utf-8")
    return data, qfile
