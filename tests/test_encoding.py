import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktfm import (
    EncodingConfig,
    EncodingError,
    QMatrix,
    encode_dataset,
    load_qmatrix,
    preset_encoding,
)
from ktfm.encoding import PRESET_NAMES
from tests.conftest import EXAMPLE_ENCODED, EXAMPLE_LABELS, FULL_CONFIG, to_dense


def replay_encode(triplets, q, config, n_students, extras=None, n_items=None):
    """Dense encoding by a plain row-by-row replay of the running counters."""
    n_items = q.n_items if n_items is None else n_items
    space = config.feature_space(n_students, n_items, q.n_skills)
    blocks = config.enabled_blocks()
    dense = np.zeros((len(triplets), space.width))
    wins, fails = {}, {}
    for r, (student, item, outcome) in enumerate(triplets):
        kc = np.flatnonzero(q.matrix[item]) if item >= 0 else ()
        if "users" in blocks and student >= 0:
            dense[r, space.offset("users") + student] = 1
        if "items" in blocks and item >= 0:
            dense[r, space.offset("items") + item] = 1
        for k in kc:
            if "skills" in blocks:
                dense[r, space.offset("skills") + k] = 1
            if student < 0:
                continue
            won, lost = wins.get((student, k), 0), fails.get((student, k), 0)
            for block, count in (("wins", won), ("fails", lost), ("attempts", won + lost)):
                if block in blocks:
                    dense[r, space.offset(block) + k] = count
        for name, _ in config.extra_columns:
            dense[r, space.offset(name) + extras[name][r]] = 1
        if student >= 0:
            tally = wins if outcome else fails
            for k in kc:
                tally[(student, k)] = tally.get((student, k), 0) + 1
    return dense


def _counter(dm, block, row, skill):
    return to_dense(dm)[row, dm.space.offset(block) + skill]


class TestWorkedExample:
    def test_full_encoding_is_exact(self, example_triplets, example_qmatrix):
        dm = encode_dataset(example_triplets, example_qmatrix, FULL_CONFIG, n_students=2)
        assert np.array_equal(to_dense(dm), EXAMPLE_ENCODED)
        assert dm.labels.tolist() == EXAMPLE_LABELS

    def test_block_layout_order(self, example_triplets, example_qmatrix):
        dm = encode_dataset(example_triplets, example_qmatrix, FULL_CONFIG, n_students=2)
        assert dm.space.block_names == ("users", "items", "skills", "wins", "fails")
        assert dm.space.width == 14

    def test_counters_mask_to_current_item_skills(self, example_triplets, example_qmatrix):
        # before the 4th attempt student 1 has two wins on skill 0, but item 2
        # exercises skills {1, 2}, so the wins block must not mention skill 0
        dm = encode_dataset(example_triplets, example_qmatrix, FULL_CONFIG, n_students=2)
        wins_block = to_dense(dm)[3, 8:11]
        assert wins_block.tolist() == [0.0, 2.0, 0.0]


class TestEncodeDataset:
    def test_single_triplet_has_no_history(self, example_qmatrix):
        dm = encode_dataset([(0, 1, 1)], example_qmatrix, FULL_CONFIG, n_students=2)
        dense = to_dense(dm)[0]
        assert dense[8:14].tolist() == [0.0] * 6

    def test_one_hot_blocks_have_exactly_one_entry(self, example_qmatrix):
        rng = np.random.default_rng(23)
        triplets = [
            (int(rng.integers(0, 4)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            for _ in range(80)
        ]
        dm = encode_dataset(triplets, example_qmatrix, FULL_CONFIG, n_students=4)
        dense = to_dense(dm)
        assert (dense[:, :4].sum(axis=1) == 1).all()
        assert (dense[:, 4:7].sum(axis=1) == 1).all()

    def test_skills_block_matches_item_skills(self, example_qmatrix):
        triplets = [(0, 2, 1), (0, 0, 0)]
        dm = encode_dataset(triplets, example_qmatrix, FULL_CONFIG, n_students=1)
        dense = to_dense(dm)
        assert dense[0, 4:7].tolist() == [0.0, 1.0, 1.0]
        assert dense[1, 4:7].tolist() == [0.0, 0.0, 0.0]

    def test_counters_match_replay_oracle(self, example_qmatrix):
        rng = np.random.default_rng(7)
        n_students = 5
        triplets = [
            (
                int(rng.integers(0, n_students)),
                int(rng.integers(0, 3)),
                int(rng.integers(0, 2)),
            )
            for _ in range(200)
        ]
        dm = encode_dataset(triplets, example_qmatrix, FULL_CONFIG, n_students=n_students)
        dense = to_dense(dm)
        wins_off = dm.space.offset("wins")
        fails_off = dm.space.offset("fails")

        tally: dict[tuple[int, int, int], int] = {}
        for r, (student, item, outcome) in enumerate(triplets):
            for k in np.flatnonzero(example_qmatrix.matrix[item]):
                assert dense[r, wins_off + k] == tally.get((student, k, 1), 0)
                assert dense[r, fails_off + k] == tally.get((student, k, 0), 0)
            for k in np.flatnonzero(example_qmatrix.matrix[item]):
                key = (student, k, outcome)
                tally[key] = tally.get(key, 0) + 1

    def test_attempts_equal_wins_plus_fails(self, example_qmatrix):
        rng = np.random.default_rng(31)
        triplets = [
            (int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            for _ in range(120)
        ]
        afm = EncodingConfig(("skills", "attempts"))
        pfa = EncodingConfig(("skills", "wins", "fails"))
        dm_afm = encode_dataset(triplets, example_qmatrix, afm, n_students=3)
        dm_pfa = encode_dataset(triplets, example_qmatrix, pfa, n_students=3)
        attempts = to_dense(dm_afm)[:, 3:6]
        wins_plus_fails = to_dense(dm_pfa)[:, 3:6] + to_dense(dm_pfa)[:, 6:9]
        assert np.array_equal(attempts, wins_plus_fails)

    def test_deterministic_serialization(self, example_triplets, example_qmatrix, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        encode_dataset(example_triplets, example_qmatrix, FULL_CONFIG, n_students=2).save(a)
        encode_dataset(example_triplets, example_qmatrix, FULL_CONFIG, n_students=2).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_student_out_of_range(self, example_qmatrix):
        with pytest.raises(EncodingError):
            encode_dataset([(2, 0, 1)], example_qmatrix, FULL_CONFIG, n_students=2)

    def test_item_out_of_range(self, example_qmatrix):
        with pytest.raises(EncodingError):
            encode_dataset([(0, 3, 1)], example_qmatrix, FULL_CONFIG, n_students=2)

    def test_unknown_ids_drop_their_one_hots(self, example_qmatrix):
        dm = encode_dataset([(-1, 1, 1)], example_qmatrix, FULL_CONFIG, n_students=2)
        dense = to_dense(dm)[0]
        assert dense[:2].tolist() == [0.0, 0.0]
        assert dense[3] == 1.0  # the item one-hot survives

    def test_extras_length_mismatch(self, example_qmatrix):
        config = replace(FULL_CONFIG, extra_columns=(("mode", 2),))
        with pytest.raises(EncodingError):
            encode_dataset(
                [(0, 0, 1)],
                example_qmatrix,
                config,
                n_students=2,
                extras={"mode": [0, 1]},
            )

    def test_missing_qmatrix_when_skills_needed(self):
        with pytest.raises(EncodingError):
            encode_dataset([(0, 0, 1)], None, FULL_CONFIG, n_students=1)


class TestUpdateCounters:
    """Counter updates, observed in the row after the attempt."""

    def test_correct_answer_increments_wins(self, example_qmatrix):
        log = [(1, 1, 1), (1, 1, 0)]
        dm = encode_dataset(log, example_qmatrix, FULL_CONFIG, n_students=2)
        dense = to_dense(dm)
        assert dense[1, 8:11].tolist() == [1, 1, 0]  # wins of student 1
        assert dense[:, 11:14].sum() == 0  # no fails yet
        assert dense[0, 8:14].sum() == 0  # the first row saw no history

    def test_empty_skill_set_changes_nothing(self, example_qmatrix):
        log = [(0, 0, 1), (0, 0, 0), (0, 1, 1)]
        dm = encode_dataset(log, example_qmatrix, FULL_CONFIG, n_students=2)
        assert to_dense(dm)[:, 8:14].sum() == 0

    def test_attempts_identity_over_random_updates(self, example_qmatrix):
        rng = np.random.default_rng(13)
        log = [
            (int(rng.integers(0, 4)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            for _ in range(50)
        ]
        afm = EncodingConfig(("skills", "attempts"))
        dm = encode_dataset(log + [(s, 1, 0) for s in range(4)], example_qmatrix, afm, 4)
        touches = np.zeros((4, 3), dtype=int)
        for student, item, _ in log:
            for k in np.flatnonzero(example_qmatrix.matrix[item]):
                touches[student, k] += 1
        for s in range(4):  # item 1 exercises skills 0 and 1
            for k in (0, 1):
                assert _counter(dm, "attempts", len(log) + s, k) == touches[s, k]

    def test_counters_never_decrease(self, example_qmatrix):
        rng = np.random.default_rng(17)
        log = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
            for _ in range(30)
        ]
        dm = encode_dataset(log, example_qmatrix, FULL_CONFIG, n_students=2)
        seen: dict = {}
        for r, (student, item, _) in enumerate(log):
            for k in np.flatnonzero(example_qmatrix.matrix[item]):
                now = np.array([_counter(dm, "wins", r, k), _counter(dm, "fails", r, k)])
                assert (now >= seen.get((student, k), 0)).all()
                seen[(student, k)] = now


def reference_load_qmatrix(path) -> QMatrix:
    """The cell-by-cell loader that the batched one replaced."""
    rows: list[list[int]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            cells = []
            for cell in record:
                cell = cell.strip()
                if cell not in ("0", "1"):
                    raise EncodingError(f"{path}: line {lineno}: cell {cell!r} is not 0/1")
                cells.append(int(cell))
            if rows and len(cells) != len(rows[0]):
                raise EncodingError(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(cells)}"
                )
            rows.append(cells)
    if not rows:
        raise EncodingError(f"{path}: empty q-matrix")
    return QMatrix(np.array(rows, dtype=np.int8))


@st.composite
def qmatrix_texts(draw):
    """A q-matrix file of 1-3 columns whose cells are mostly 0/1, padded or
    quoted, with blank lines and the odd bad cell or ragged row; or a plain
    one, of bare cells with "\\n" after every line, which the byte-grid read
    takes unless it holds the odd bad cell, ragged row or blank line."""
    width = draw(st.integers(1, 3))
    plain = draw(st.booleans())
    if plain:
        cells = st.sampled_from(["0", "1"] * 12 + ["2", ""])
        kinds = ["row"] * 24 + ["", "ragged"]
    else:
        cells = st.sampled_from(["0", "1"] * 6 + [" 1", "0 ", '"1"', "2", "+1", "01", "-0", ""])
        kinds = ["row"] * 8 + ["", "  ", "ragged"]
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("", "  "):
            lines.append(kind)
        else:
            n = width if kind == "row" else draw(st.integers(1, 4))
            lines.append(",".join(draw(cells) for _ in range(n)))
    if plain:
        return "".join(line + "\n" for line in lines)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _qmatrix_outcome(load, path):
    try:
        return load(path).matrix.tolist()
    except EncodingError as exc:
        return str(exc)


class TestLoadQMatrix:
    def test_worked_example_file(self, example_log_csv):
        _, qfile = example_log_csv
        q = load_qmatrix(qfile)
        assert q.n_items == 3 and q.n_skills == 3
        assert tuple(np.flatnonzero(q.matrix[1])) == (0, 1)  # second item exercises the first two skills
        assert not q.matrix[0].any()

    def test_all_zero_matrix_is_valid(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("0,0\n0,0\n", encoding="utf-8")
        q = load_qmatrix(path)
        assert not q.matrix.any()

    def test_non_binary_cell_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("0,1\n0,2\n", encoding="utf-8")
        with pytest.raises(EncodingError):
            load_qmatrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("0,1\n1\n", encoding="utf-8")
        with pytest.raises(EncodingError):
            load_qmatrix(path)

    @pytest.mark.parametrize(
        "row, message",
        [("0,2", "cell '2' is not 0/1"), ("1", "expected 2 columns, got 1"), ("1,0,1", "expected 2 columns, got 3")],
        ids=["bad-cell", "short-row", "long-row"],
    )
    def test_errors_name_the_line(self, tmp_path, row, message):
        # line 2 is blank, so the faulty row is line 3 of the file
        path = tmp_path / "q.csv"
        path.write_text(f"0,1\n\n{row}\n", encoding="utf-8")
        with pytest.raises(EncodingError) as caught:
            load_qmatrix(path)
        assert str(caught.value) == f"{path}: line 3: {message}"

    def test_padded_and_quoted_cells_are_read(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('0, 1\n"1" ,0\n', encoding="utf-8")
        assert load_qmatrix(path).matrix.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("cell", ["2", "+1", "01", "-0", "1.0", ""], ids=["2", "+1", "01", "-0", "1.0", "empty"])
    def test_cells_other_than_0_and_1_rejected(self, tmp_path, cell):
        path = tmp_path / "q.csv"
        path.write_text(f"0,1\n{cell},0\n", encoding="utf-8")
        with pytest.raises(EncodingError, match="line 2: cell"):
            load_qmatrix(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=qmatrix_texts())
    def test_matches_the_cell_by_cell_loader(self, tmp_path, text):
        path = tmp_path / "q.csv"
        path.write_text(text, encoding="utf-8")
        assert _qmatrix_outcome(load_qmatrix, path) == _qmatrix_outcome(reference_load_qmatrix, path)


class TestEncodeExtra:
    """Extra side columns, one-hot after the built-in blocks."""

    def _encode(self, config, extras, n=1):
        return encode_dataset([(0, 0, 1)] * n, None, config, 2, extras=extras, n_items=3)

    def test_single_category_one_hot(self):
        config = EncodingConfig(("users",), extra_columns=(("tutor_mode", 4),))
        dm = self._encode(config, {"tutor_mode": [2]})
        assert dm.indices.tolist() == [0, dm.space.offset("tutor_mode") + 2]
        assert dm.data.tolist() == [1.0, 1.0]

    def test_no_extras_gives_empty_fragment(self):
        dm = self._encode(EncodingConfig(("users",)), {"ignored": [5]})
        assert dm.space.block_names == ("users",)
        assert dm.indices.tolist() == [0]

    def test_two_columns_two_nonzeros(self):
        config = EncodingConfig(("users",), extra_columns=(("a", 3), ("b", 5)))
        dm = self._encode(config, {"a": [1], "b": [4]})
        extra = to_dense(dm)[0, dm.space.offset("a") :]
        assert np.flatnonzero(extra).size == 2
        assert (extra[extra != 0] == 1.0).all()

    def test_value_outside_cardinality(self):
        config = EncodingConfig(("users",), extra_columns=(("a", 3),))
        with pytest.raises(EncodingError):
            self._encode(config, {"a": [0, 3]}, n=2)
        with pytest.raises(EncodingError):
            self._encode(config, {"a": [-1]})


class TestEncodingConfig:
    def test_needs_at_least_one_block(self):
        with pytest.raises(EncodingError):
            EncodingConfig()

    def test_attempts_exclusive_with_wins(self):
        with pytest.raises(EncodingError):
            EncodingConfig(("skills", "attempts", "wins"))

    def test_attempts_exclusive_with_fails(self):
        with pytest.raises(EncodingError):
            EncodingConfig(("skills", "attempts", "fails"))

    @pytest.mark.parametrize("blocks", [("users", "students"), ("items", "skills", "items"), "users"])
    def test_unknown_or_repeated_block_rejected(self, blocks):
        with pytest.raises(EncodingError):
            EncodingConfig(blocks)

    def test_blocks_are_kept_in_canonical_order(self):
        assert EncodingConfig(("items", "users")) == EncodingConfig(("users", "items"))
        assert EncodingConfig(("fails", "skills", "wins")).blocks == ("skills", "wins", "fails")

    def test_extra_cannot_shadow_builtin(self):
        with pytest.raises(EncodingError):
            EncodingConfig(("users",), extra_columns=(("wins", 2),))


# the skill lookup gathers q-matrix rows; these are its corner cases
SKILL_LOOKUP_CASES = {
    # item 3 has no skill and nobody attempts it
    "untagged_last_item": (
        [[1, 0], [0, 1], [1, 1], [0, 0]],
        [(0, 2, 1), (1, 0, 0), (0, 1, 1), (0, 2, 0), (1, 2, 1)],
    ),
    # only item 2 has a skill, and no row attempts it: zero (row, skill) pairs
    "no_skill_pairs": (
        [[0, 0], [0, 0], [0, 1]],
        [(0, 0, 1), (1, 1, 0), (0, 1, 1)],
    ),
    # item -1 is an attempt at an item the vocabulary does not know
    "unknown_items": (
        [[1, 0], [1, 1]],
        [(0, -1, 1), (0, 1, 1), (1, -1, 0), (0, 0, 0), (0, -1, 1)],
    ),
}


@pytest.mark.parametrize("preset", ["pfa", "ktm-iswf"])
@pytest.mark.parametrize("case", sorted(SKILL_LOOKUP_CASES))
def test_skill_lookup_corner_cases_match_the_replay(preset, case):
    matrix, triplets = SKILL_LOOKUP_CASES[case]
    q = QMatrix(np.array(matrix))
    config = preset_encoding(preset, d=0)
    dm = encode_dataset(triplets, q, config, n_students=2)
    assert np.array_equal(to_dense(dm), replay_encode(triplets, q, config, 2))


@st.composite
def encoding_cases(draw):
    n_students = draw(st.integers(1, 4))
    n_items = draw(st.integers(1, 4))
    n_skills = draw(st.integers(1, 3))
    q = QMatrix(np.array(
        draw(st.lists(st.lists(st.integers(0, 1), min_size=n_skills, max_size=n_skills),
                      min_size=n_items, max_size=n_items)),
        dtype=np.int8,
    ))  # rows of zeros are untagged items
    triplets = draw(st.lists(
        st.tuples(st.integers(-1, n_students - 1), st.integers(-1, n_items - 1), st.integers(0, 1)),
        max_size=40,
    ))
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    extras = {
        f"x{c}": draw(st.lists(st.integers(0, card - 1), min_size=len(triplets), max_size=len(triplets)))
        for c, card in enumerate(cards)
    }
    preset = draw(st.sampled_from(PRESET_NAMES))
    # mirtb admits only d > 0
    config = preset_encoding(preset, [(f"x{c}", card) for c, card in enumerate(cards)], d=int(preset == "mirtb"))
    return triplets, q, config, n_students, extras


@settings(max_examples=200, deadline=None)
@given(case=encoding_cases())
def test_encoding_matches_the_row_by_row_replay(case):
    triplets, q, config, n_students, extras = case
    dm = encode_dataset(triplets, q, config, n_students, extras=extras)
    assert np.array_equal(to_dense(dm), replay_encode(triplets, q, config, n_students, extras))
    assert dm.labels.tolist() == [outcome for _, _, outcome in triplets]
