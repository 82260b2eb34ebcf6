import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktfm import DesignMatrix, FeatureSpace, LayoutError, sparse
from ktfm.sparse import RowFormatError, _format_value
from tests.conftest import matrix_from_dense, matrix_from_rows, scipy_csr, to_dense


@pytest.fixture
def space():
    return FeatureSpace((("users", 2), ("items", 3), ("skills", 3), ("wins", 3), ("fails", 3)))


class TestFeatureSpace:
    def test_first_block_first_id(self, space):
        assert space.offset("users") == 0

    def test_offset_into_second_block(self, space):
        assert space.offset("items") + 1 == 3

    def test_last_block_offset_is_sum_of_widths(self, space):
        # 2 + 3 + 3 + 3 = 11, plus local id 2
        assert space.offset("fails") + 2 == 13

    def test_total_width(self, space):
        assert space.width == 14

    def test_unknown_block(self, space):
        with pytest.raises(LayoutError):
            space.offset("nope")

    def test_injective_over_all_pairs(self, space):
        seen = set()
        for block, width in space.blocks:
            for local in range(width):
                seen.add(space.offset(block) + local)
        assert seen == set(range(space.width))

    def test_duplicate_block_names_rejected(self):
        with pytest.raises(LayoutError):
            FeatureSpace((("a", 1), ("a", 2)))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(LayoutError):
            FeatureSpace((("a", 0),))


class TestSparseRow:
    """The row rules, checked by DesignMatrix on its CSR arrays."""

    def test_indices_must_increase(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 2], [3, 1], [1.0, 1.0], [1])

    def test_duplicate_indices_rejected(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 2], [1, 1], [1.0, 1.0], [1])

    def test_zero_values_rejected(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 1], [0], [0.0], [1])

    def test_nonfinite_values_rejected(self, space):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(RowFormatError):
                DesignMatrix(space, [0, 1], [0], [value], [1])

    def test_negative_index_rejected(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 1], [-1], [1.0], [1])

    def test_decrease_across_rows_is_allowed(self, space):
        dm = DesignMatrix(space, [0, 1, 1, 2], [5, 2], [1.0, 1.0], [1, 0, 1])
        assert to_dense(dm)[:, [2, 5]].tolist() == [[0, 1], [0, 0], [1, 0]]

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dense = np.zeros((3, 20))
            for row in dense:
                nz = rng.choice(20, size=rng.integers(0, 8), replace=False)
                row[nz] = rng.integers(1, 5, size=nz.size)
            dm = matrix_from_dense(20, dense)
            again = matrix_from_dense(20, to_dense(dm))
            assert np.array_equal(again.indices, dm.indices)
            assert np.array_equal(again.data, dm.data)
            assert np.array_equal(to_dense(dm), dense)

    def test_rows_are_immutable(self):
        dm = matrix_from_rows(2, [[(0, 1.0)]])
        for array in (dm.indptr, dm.indices, dm.data, dm.labels):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_constructor_copies_input(self, space):
        idx = np.array([0, 2], dtype=np.int64)
        dm = DesignMatrix(space, [0, 2], idx, np.array([1.0, 2.0]), [1])
        idx[0] = 1  # caller's array stays writable
        assert dm.indices.tolist() == [0, 2]

    def test_entries(self):
        dm = matrix_from_rows(6, [[(1, 2.0), (5, 1.0)]])
        assert list(zip(dm.indices.tolist(), dm.data.tolist())) == [(1, 2.0), (5, 1.0)]

    def test_csr_shares_the_stored_arrays(self, space):
        dm = matrix_from_rows(space, [[(0, 1.0), (2, 1.0)], [(1, 1.0), (8, 2.0)]])
        for stored, viewed in ((dm.indptr, dm.csr.indptr), (dm.indices, dm.csr.indices), (dm.data, dm.csr.data)):
            assert np.shares_memory(stored, viewed)


class TestSparseDot:
    """Row-by-vector products go through the CSR view."""

    def test_empty_row(self):
        assert (matrix_from_rows(5, [[]]).csr @ np.ones(5)).tolist() == [0.0]

    def test_counts_nonzeros_against_ones(self):
        assert (matrix_from_rows(4, [[(0, 1.0), (3, 1.0)]]).csr @ np.ones(4)).tolist() == [2.0]

    def test_matches_densified_dot(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            nz = rng.choice(n, size=rng.integers(0, min(n, 10) + 1), replace=False)
            dense_row = np.zeros(n)
            dense_row[nz] = rng.normal(size=nz.size)
            dense_row[dense_row == 0.0] = 1.0  # keep stored entries nonzero
            vec = rng.normal(size=n)
            dm = matrix_from_dense(n, [dense_row])
            expected = float(dense_row @ vec)
            got = float((dm.csr @ vec)[0])
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_length_mismatch(self):
        dm = matrix_from_rows(8, [[(7, 1.0)]])
        with pytest.raises(ValueError):
            dm.csr @ np.ones(5)
        with pytest.raises(ValueError):
            dm.csr @ np.ones((5, 2))
        with pytest.raises(ValueError):  # a matrix is taken one column at a time
            dm.csr @ np.ones((8, 2))


class TestDesignMatrix:
    def _matrix(self, space):
        return matrix_from_rows(space, [[(0, 1.0), (2, 1.0)], [(1, 1.0), (8, 2.0)]], [1, 0])

    def test_label_and_row_count_must_match(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 1], [0], [1.0], [1, 0])

    def test_labels_binary(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 1], [0], [1.0], [2])

    def test_rows_must_fit_space(self, space):
        with pytest.raises(LayoutError):
            DesignMatrix(space, [0, 1], [14], [1.0], [1])
        with pytest.raises(LayoutError):  # not wrapped into range by a narrower index type
            DesignMatrix(space, [0, 1], np.array([2**32 + 1]), [1.0], [1])

    def test_indptr_must_cover_the_entries(self, space):
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 1], [0, 1], [1.0, 1.0], [1])
        with pytest.raises(RowFormatError):
            DesignMatrix(space, [0, 2, 1, 2], [0, 1], [1.0, 1.0], [1, 1, 1])

    def test_csr_agrees_with_densify(self, space):
        dm = self._matrix(space)
        columns = [dm.csr @ unit for unit in np.eye(space.width)]
        assert np.array_equal(np.column_stack(columns), to_dense(dm))

    def test_subset(self, space):
        dm = self._matrix(space)
        sub = dm.subset([1])
        assert len(sub) == 1
        assert sub.labels.tolist() == [0]
        assert np.array_equal(to_dense(sub), to_dense(dm)[[1]])

    def test_serialization_header_and_layout(self, space, tmp_path):
        dm = self._matrix(space)
        path = tmp_path / "dm.txt"
        dm.save(path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "#N 14"
        assert text.splitlines()[1] == "1 0:1 2:1"
        assert text.splitlines()[2] == "0 1:1 8:2"

    def test_round_trip_bit_exact(self, space, tmp_path):
        rng = np.random.default_rng(19)
        rows = []
        labels = []
        for _ in range(50):
            nz = np.sort(rng.choice(14, size=rng.integers(1, 6), replace=False))
            vals = rng.integers(1, 9, size=nz.size).astype(float)
            rows.append(list(zip(nz.tolist(), vals.tolist())))
            labels.append(int(rng.integers(0, 2)))
        dm = matrix_from_rows(space, rows, np.array(labels))
        path = tmp_path / "dm.txt"
        dm.save(path)
        assert path.read_bytes() == reference_dump(dm).encode()
        assert read_values(path.read_text(encoding="utf-8")).tobytes() == dm.data.tobytes()

    def test_noninteger_values_round_trip(self, space, tmp_path):
        dm = matrix_from_rows(space, [[(0, 0.1), (5, 3.0)]], [1])
        path = tmp_path / "dm.txt"
        dm.save(path)
        assert path.read_text(encoding="utf-8") == "#N 14\n1 0:0.1 5:3\n"
        assert read_values(path.read_text(encoding="utf-8")).tolist() == [0.1, 3.0]


# any float64 a design matrix may store: finite and nonzero
_values = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)


@st.composite
def design_matrices(draw):
    width = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, width - 1), _values | st.integers(1, 300).map(float), max_size=width),
        max_size=15,
    ))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return matrix_from_rows(width, [sorted(row.items()) for row in rows], labels)


def reference_dump(dm: DesignMatrix) -> str:
    """The design-matrix text written one row and one entry at a time."""
    lines = [f"#N {dm.space.width}\n"]
    indptr = dm.indptr.tolist()
    for r, label in enumerate(dm.labels.tolist()):
        lo, hi = indptr[r], indptr[r + 1]
        entries = zip(dm.indices[lo:hi].tolist(), dm.data[lo:hi].tolist())
        lines.append(" ".join([str(label), *(f"{i}:{_format_value(v)}" for i, v in entries)]) + "\n")
    return "".join(lines)


def read_values(text: str) -> np.ndarray:
    """Every stored value of a design-matrix text, in entry order, read with ``float``."""
    return np.array([float(entry.split(":")[1]) for line in text.splitlines()[1:] for entry in line.split()[1:]])


class TestDesignMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(dm=design_matrices())
    def test_save_then_load_is_bit_exact(self, dm, tmp_path_factory):
        path = tmp_path_factory.mktemp("dm") / "dm.txt"
        dm.save(path)
        assert path.read_bytes() == reference_dump(dm).encode()
        assert read_values(path.read_text(encoding="utf-8")).tobytes() == dm.data.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(dm=design_matrices(), chunk=st.integers(1, 6) | st.just(sparse.CHUNK_ROWS))
    def test_dump_writes_the_row_by_row_bytes(self, dm, chunk):
        # small chunks, so that rows (empty ones too) fall on either side of a boundary
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "CHUNK_ROWS", chunk)
            out = io.StringIO()
            dm.dump(out)
        assert out.getvalue() == reference_dump(dm)

    @settings(max_examples=60, deadline=None)
    @given(dm=design_matrices(), picks=st.lists(st.integers(0, 10**6), max_size=20))
    def test_subset_equals_the_dense_rows(self, dm, picks):
        idx = [p % len(dm) for p in picks] if len(dm) else []
        sub = dm.subset(idx)
        assert np.array_equal(to_dense(sub), to_dense(dm)[idx])
        assert sub.labels.tolist() == dm.labels[idx].tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # products that overflow float64
    @settings(max_examples=80, deadline=None)
    @given(dm=design_matrices(), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 10**6), max_size=20))
    def test_products_and_subset_equal_scipy(self, dm, seed, picks):
        # the numpy row sums run in scipy's order, so they agree to the bit
        w = np.random.default_rng(seed).normal(size=dm.space.width)
        reference = scipy_csr(dm)
        ours, theirs = dm.csr @ w, reference @ w
        assert ours.dtype == np.float64 and ours.shape == theirs.shape
        assert np.array_equal(ours, theirs, equal_nan=True)
        idx = np.array([p % len(dm) for p in picks] if len(dm) else [], dtype=np.int64)
        sub, rows = dm.subset(idx), reference[idx]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sub, name), getattr(rows, name))
