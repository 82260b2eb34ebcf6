import codecs
import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktfm import (
    Link,
    QMatrix,
    SynthSpec,
    Vocabulary,
    generate_synthetic,
    load_dataset,
    load_triplets,
    oracle_probabilities,
    write_synthetic,
    write_triplets,
)
from ktfm.datasets import (
    GENERATOR_BLOCKS,
    DataFormatError,
    _random_qmatrix,
    align_qmatrix,
    convert_assistments,
    settle_outcomes,
)
from ktfm import datasets
from ktfm.encoding import EncodingConfig, EncodingError
from ktfm.model import FMParams, raw_scores
from ktfm.sparse import DesignMatrix


class TestLoadTriplets:
    def test_worked_example_counts(self, example_log_csv):
        data, _ = example_log_csv
        triplets, extras, vocab = load_triplets(data)
        assert len(triplets) == 7
        assert len(vocab.users) == 2
        assert len(vocab.items) == 3
        assert extras == {}

    def test_first_appearance_assigns_dense_ids(self, example_log_csv):
        data, _ = example_log_csv
        triplets, _, vocab = load_triplets(data)
        # student "2" and item "2" appear first, so they get dense id 0
        assert vocab.users == {"2": 0, "1": 1}
        assert vocab.items == {"2": 0, "3": 1, "1": 2}
        assert triplets[0].tolist() == [0, 0, 1]

    def test_bad_outcome_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,item_id,correct\n1,1,2\n")
        with pytest.raises(DataFormatError):
            load_triplets(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_triplets(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("user_id,item_id,correct\n")
        with pytest.raises(DataFormatError):
            load_triplets(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("student,question,correct\n1,1,1\n")
        with pytest.raises(DataFormatError):
            load_triplets(path)

    def test_extra_columns_tracked(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "user_id,item_id,correct,tutor_mode\n"
            "a,x,1,tutor\n"
            "a,y,0,test\n"
            "b,x,1,tutor\n"
        )
        triplets, extras, vocab = load_triplets(path)
        assert extras["tutor_mode"].tolist() == [0, 1, 0]
        assert vocab.extras["tutor_mode"] == {"tutor": 0, "test": 1}

    def test_frozen_vocab_rejects_unknown_ids(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct\nzz,1,1\n")
        vocab = Vocabulary(users={"a": 0}, items={"1": 0})
        with pytest.raises(DataFormatError):
            load_triplets(path, vocab)

    def test_allow_unknown_maps_to_sentinel(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct\nzz,1,1\na,1,0\n")
        vocab = Vocabulary(users={"a": 0}, items={"1": 0})
        with pytest.warns(UserWarning, match="outside the vocabulary"):
            triplets, _, _ = load_triplets(path, vocab, allow_unknown=True)
        assert triplets[:, 0].tolist() == [-1, 0]

    def test_frozen_vocab_rejects_unseen_extra_value(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct,mode\na,1,1,strange\n")
        vocab = Vocabulary(
            users={"a": 0}, items={"1": 0}, extras={"mode": {"tutor": 0}}
        )
        with pytest.raises(DataFormatError):
            load_triplets(path, vocab, allow_unknown=True)

    def test_round_trip_is_identity_on_dense_ids(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("user_id,item_id,correct\n")
            for _ in range(10_000):
                fh.write(
                    f"u{rng.integers(0, 150)},q{rng.integers(0, 40)},{rng.integers(0, 2)}\n"
                )
        triplets, _, vocab = load_triplets(path)
        out = tmp_path / "again.csv"
        write_triplets(out, triplets, vocab)
        assert out.read_bytes() == path.read_bytes()
        again, _, vocab2 = load_triplets(out)
        assert np.array_equal(again, triplets)
        assert vocab2.users == vocab.users and vocab2.items == vocab.items

    @pytest.mark.parametrize(
        "body, vocab, message",
        [
            ("1,1\n", None, "expected 3 fields, got 2"),
            ("1,1,2\n", None, "correct must be 0 or 1, got '2'"),
            ("zz,1,1\n", Vocabulary(users={"1": 0}, items={"1": 0}), "id not in the provided vocabulary"),
        ],
        ids=["field-count", "correct", "unknown-id"],
    )
    def test_errors_name_the_line(self, tmp_path, body, vocab, message):
        # line 3 is blank, so the faulty row is line 4 of the file
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct\n1,1,1\n\n" + body)
        with pytest.raises(DataFormatError) as caught:
            load_triplets(path, vocab)
        assert str(caught.value) == f"{path}: line 4: {message}"

    def test_unseen_extra_value_names_the_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct,mode\na,1,1,tutor\n\na,1,1,strange\n")
        vocab = Vocabulary(users={"a": 0}, items={"1": 0}, extras={"mode": {"tutor": 0}})
        with pytest.raises(DataFormatError) as caught:
            load_triplets(path, vocab, allow_unknown=True)
        assert str(caught.value) == f"{path}: line 4: unseen value 'strange' for extra column 'mode'"

    @pytest.mark.parametrize(
        "body, allow_unknown, message",
        [
            ("zz,1,2,strange\n", False, "line 2: correct must be 0 or 1, got '2'"),
            ("zz,1,1,strange\n", False, "line 2: id not in the provided vocabulary"),
            ("zz,1,1,strange\n", True, "line 2: unseen value 'strange' for extra column 'mode'"),
            ("a,1,2,tutor\na,1\n", False, "line 2: correct must be 0 or 1, got '2'"),
        ],
        ids=["correct-first", "id-before-extra", "extra", "fault-before-malformed-row"],
    )
    def test_first_check_to_fail_names_the_fault(self, tmp_path, body, allow_unknown, message):
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct,mode\n" + body)
        vocab = Vocabulary(users={"a": 0}, items={"1": 0}, extras={"mode": {"tutor": 0}})
        with pytest.raises(DataFormatError) as caught:
            load_triplets(path, vocab, allow_unknown=allow_unknown)
        assert str(caught.value) == f"{path}: {message}"

    def test_loaded_log_is_a_read_only_int64_array(self, example_log_csv):
        triplets, _, _ = load_triplets(example_log_csv[0])
        assert triplets.dtype == np.int64 and triplets.shape == (7, 3)
        assert not triplets.flags.writeable

    def test_repeated_extra_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("user_id,item_id,correct,mode,mode\na,1,1,x,y\n")
        with pytest.raises(DataFormatError, match="repeats an extra column"):
            load_triplets(path)


def reference_load_triplets(path, vocab=None, *, allow_unknown=False):
    """The row-by-row loader that the columnar one replaced: the same ids,
    extras, vocabulary, warnings and errors, with the log as a list of rows."""

    def assign(mapping, raw, extend):
        if raw in mapping:
            return mapping[raw]
        if not extend:
            return -1
        mapping[raw] = len(mapping)
        return mapping[raw]

    fresh = vocab is None
    vocab = Vocabulary() if fresh else vocab
    triplets, extras, unknown = [], {}, 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:3] != ["user_id", "item_id", "correct"]:
            raise DataFormatError(
                f"{path}: header must start with user_id,item_id,correct, got {header[:3]}"
            )
        tracked = [
            (pos, name) for pos, name in enumerate(header[3:], start=3) if fresh or name in vocab.extras
        ]
        for _, name in tracked:
            extras[name] = []
            vocab.extras.setdefault(name, {})
        for lineno, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(header):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(record)}"
                )
            raw_user, raw_item, raw_correct = (f.strip() for f in record[:3])
            if raw_correct not in ("0", "1"):
                raise DataFormatError(
                    f"{path}: line {lineno}: correct must be 0 or 1, got {raw_correct!r}"
                )
            user = assign(vocab.users, raw_user, fresh)
            item = assign(vocab.items, raw_item, fresh)
            if user < 0 or item < 0:
                if not allow_unknown:
                    raise DataFormatError(f"{path}: line {lineno}: id not in the provided vocabulary")
                unknown += 1
            triplets.append([user, item, int(raw_correct)])
            for pos, name in tracked:
                raw_value = record[pos].strip()
                column = vocab.extras[name]
                if raw_value not in column:
                    if not fresh:
                        raise DataFormatError(
                            f"{path}: line {lineno}: unseen value {raw_value!r} "
                            f"for extra column {name!r}"
                        )
                    column[raw_value] = len(column)
                extras[name].append(column[raw_value])
    if not triplets:
        raise DataFormatError(f"{path}: no data rows")
    if unknown:
        warnings.warn(f"{path}: {unknown} rows reference ids outside the vocabulary")
    return triplets, {k: np.array(v) for k, v in extras.items()}, vocab


# the fields of each column: under "" those of a plain log (bare printable
# ASCII of at most 8 bytes), under each quirk those only the csv loop reads
_IDS = {"": ["1", "2", "10", "u1", "u2", "x", "y", "12345678"],
        "padded": [" 2", "10 ", " u1 "], "quoted": ['"3"'], "long": ["123456789"], "non-ASCII": ["ü"]}
_CORRECT = {"": ["0", "1"], "padded": [" 1", "0 "], "quoted": ['"1"']}
_EXTRA = {"": ["a", "b", "d", "", "pre_test"],
          "padded": [" a", "c "], "quoted": ['"b"'], "long": ["tutor_mode"], "non-ASCII": ["ä"]}
_QUIRKS = ["padded", "quoted", "long", "non-ASCII", "padded header", "crlf line ends", "no last line end"]


@st.composite
def triplet_logs(draw):
    """CSV text of a log with 0-2 extra columns, plus up to four inserted
    lines that are blank or faulty (a wrong field count or a bad ``correct``).

    Half the logs are plain: bare fields of at most 8 printable ASCII bytes and
    "\\n" after every line, which the numpy pass reads unless an inserted line
    is blank or faulty. The others have one to three quirks that send them to
    the csv loop: padded, quoted, long or non-ASCII fields, a padded header
    name, "\\r\\n" line ends or no last line end.
    """
    quirks = set() if draw(st.booleans()) else draw(st.sets(st.sampled_from(_QUIRKS), min_size=1, max_size=3))

    def field(pools):
        return draw(st.sampled_from(pools[""] * 2 + [v for quirk in quirks for v in pools.get(quirk, [])]))

    names = draw(st.lists(st.sampled_from(["mode", "school", "tutor"]), max_size=2, unique=True))
    lines = [
        ",".join([field(_IDS), field(_IDS), field(_CORRECT), *(field(_EXTRA) for _ in names)])
        for _ in range(draw(st.integers(0, 30)))
    ]
    inserts = st.tuples(st.integers(0, 30), st.sampled_from(["", "  ", "short", "long", "correct"]))
    for at, kind in draw(st.lists(inserts, max_size=4)):
        # "new" is in no vocabulary, so one row can hold several faults
        ids = st.sampled_from(["1", "u1", "new"])
        cells = [draw(ids), draw(ids), draw(st.sampled_from(["2", "", "yes", "01"])), *("a" for _ in names)]
        if kind == "short":
            cells = cells[:2] + cells[3:]
        elif kind == "long":
            cells.append("z")
        lines.insert(min(at, len(lines)), ",".join(cells) if kind in ("short", "long", "correct") else kind)
    header = ",".join(["user_id", " item_id" if "padded header" in quirks else "item_id", "correct", *names])
    end = "\r\n" if "crlf line ends" in quirks else "\n"
    return end.join([header, *lines]) + ("" if "no last line end" in quirks else end)


def load_by_csv_loop(path, vocab=None, *, allow_unknown=False):
    """``load_triplets`` with the numpy pass turned off: its csv loop alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "_read_plain_log", lambda *args: None)
        return load_triplets(path, vocab, allow_unknown=allow_unknown)


def _outcome(load, path, vocab, allow_unknown):
    """What a loader returns or raises, with the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            triplets, extras, vocab = load(path, vocab, allow_unknown=allow_unknown)
        except DataFormatError as exc:
            result = ("error", str(exc))
        else:
            log = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
            result = (log.tolist(), {k: v.tolist() for k, v in extras.items()}, vocab.to_json())
    return result, [str(w.message) for w in caught]


_PLAIN_LOG = "user_id,item_id,correct,mode\nu1,10,1,a\nu2,12345678,0,pre_test\nu1,2,1,b\n"
_PLAIN_VOCAB = {"users": {"u1": 0, "u2": 1}, "items": {"10": 0, "12345678": 1, "2": 2},
                "extras": {"mode": {"a": 0, "pre_test": 1, "b": 2}}}


def _long_plain_log(n_rows=5_000):
    """A plain log of more than 4,096 data lines whose users, items and extra
    values keep first appearing after line 4,096, each column in an order of
    first appearance unlike its keys' sorted order."""
    lines = ["user_id,item_id,correct,mode"]
    for r in range(n_rows):
        # users and modes appear in descending order, items in a scattered one
        user, item, mode = f"u{(n_rows - r) // 7}", str((r * 7_919) % (r // 2 + 1)), f"m{9 - r // 600}"
        lines.append(f"{user},{item},{r % 3 % 2},{mode}")
    return "\n".join(lines) + "\n"


_LONG_PLAIN_LOG = _long_plain_log()


def _reversed_vocab(text):
    """The vocabulary of a plain log's values, dense ids in reverse order of first appearance."""
    header, *rows = (line.split(",") for line in text.splitlines())

    def reverse(k):
        values = list(dict.fromkeys(row[k] for row in rows))
        return {value: len(values) - 1 - i for i, value in enumerate(values)}

    return {"users": reverse(0), "items": reverse(1), "extras": {name: reverse(k) for k, name in enumerate(header[3:], 3)}}


class TestLoaderDifferential:
    @pytest.mark.parametrize(
        "text, vocab, allow_unknown",
        [
            (_PLAIN_LOG, None, False),
            (_PLAIN_LOG, _PLAIN_VOCAB, False),
            (_PLAIN_LOG.replace("u2", "u3"), _PLAIN_VOCAB, True),
            (_LONG_PLAIN_LOG, None, False),
            (_LONG_PLAIN_LOG, _reversed_vocab(_LONG_PLAIN_LOG), False),
        ],
        ids=["fresh", "frozen", "unknown-id-allowed", "long-fresh", "long-frozen"],
    )
    def test_a_plain_log_takes_the_numpy_pass(self, tmp_path, text, vocab, allow_unknown):
        path = tmp_path / "log.csv"
        path.write_text(text)
        assert datasets._read_plain_log(path, Vocabulary.from_dict(vocab or {}), vocab is None, allow_unknown)
        frozen = (lambda: Vocabulary.from_dict(vocab)) if vocab else (lambda: None)
        want = _outcome(reference_load_triplets, path, frozen(), allow_unknown)
        assert _outcome(load_triplets, path, frozen(), allow_unknown) == want

    @pytest.mark.parametrize(
        "text, vocab, allow_unknown",
        [
            (_PLAIN_LOG.replace("u2", " u2"), None, False),
            (_PLAIN_LOG.replace("u2", '"u2"'), None, False),
            (_PLAIN_LOG.replace("12345678", "123456789"), None, False),
            (_PLAIN_LOG.replace("u2", "ü2"), None, False),
            (_PLAIN_LOG.replace("u2", "u2\x7f"), None, False),
            (_PLAIN_LOG.replace("u2", "u2\t"), None, False),
            (_PLAIN_LOG.replace("item_id", " item_id"), None, False),
            (_PLAIN_LOG.replace("\n", "\r\n"), None, False),
            (_PLAIN_LOG[:-1], None, False),
            (_PLAIN_LOG.replace("\nu2", "\n\nu2"), None, False),
            (_PLAIN_LOG.replace("\nu2", "\nu2\nu2"), None, False),
            (_PLAIN_LOG.replace(",0,", ",2,"), None, False),
            (_PLAIN_LOG.replace(",pre_test", ""), None, False),
            (_PLAIN_LOG.replace("u2", "u3"), _PLAIN_VOCAB, False),
            (_PLAIN_LOG.replace(",b", ",c"), _PLAIN_VOCAB, True),
            ("\ufeff" + _PLAIN_LOG, None, False),
        ],
        ids=["padded", "quoted", "long", "non-ASCII", "delete-byte", "tab-padded", "padded-header", "crlf", "no-last-line-end", "blank-line", "lone-field",
             "bad-correct", "ragged", "unknown-id", "unseen-extra", "bom"],
    )
    def test_a_quirk_or_fault_sends_the_log_to_the_csv_loop(self, tmp_path, text, vocab, allow_unknown):
        path = tmp_path / "log.csv"
        path.write_bytes(text.encode())
        assert datasets._read_plain_log(path, Vocabulary.from_dict(vocab or {}), vocab is None, allow_unknown) is None
        frozen = (lambda: Vocabulary.from_dict(vocab)) if vocab else (lambda: None)
        want = _outcome(reference_load_triplets, path, frozen(), allow_unknown)
        assert _outcome(load_triplets, path, frozen(), allow_unknown) == want

    def test_the_plain_bytes_are_those_of_the_old_table(self, tmp_path):
        # the reader once checked the bytes by this table; "," and "\n" are in every
        # log, and each other byte value goes into one user id of a plain log
        table = np.zeros(256, dtype=bool)
        table[0x21:0x7F] = True
        table[ord('"')] = False
        table[ord("\n")] = True
        path = tmp_path / "log.csv"
        for byte in range(256):
            text = _PLAIN_LOG.encode()
            if byte not in b",\n":
                text = text.replace(b"u2", b"u" + bytes([byte]))
            path.write_bytes(text)
            plain = datasets._read_plain_log(path, Vocabulary.from_dict({}), True, False) is not None
            assert plain == table[byte], byte

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        train=triplet_logs(),
        test=triplet_logs(),
        forget=st.booleans(),
    )
    def test_matches_the_row_by_row_loader(self, tmp_path, train, test, forget):
        paths = []
        for name, text in (("train", train), ("test", test)):
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_bytes(text.encode())
        fresh = _outcome(load_triplets, paths[0], None, False)
        for oracle in (load_by_csv_loop, reference_load_triplets):
            assert fresh == _outcome(oracle, paths[0], None, False)
        if fresh[0][0] == "error":
            return
        frozen = Vocabulary.from_dict(json.loads(fresh[0][2]))
        if forget and frozen.extras:  # a column the vocabulary does not know is ignored
            frozen.extras.pop(sorted(frozen.extras)[0])
        for allow_unknown in (False, True):
            got = _outcome(load_triplets, paths[1], Vocabulary.from_dict(frozen.to_dict()), allow_unknown)
            for oracle in (load_by_csv_loop, reference_load_triplets):
                assert got == _outcome(oracle, paths[1], Vocabulary.from_dict(frozen.to_dict()), allow_unknown)


class TestVocabularyLoad:
    def test_saved_vocabulary_round_trips(self, tmp_path):
        vocab = Vocabulary(users={"b": 1, "a": 0}, items={"7": 0}, extras={"mode": {"x": 1, "y": 0}})
        vocab.save(tmp_path / "v.json")
        assert Vocabulary.load(tmp_path / "v.json").to_json() == vocab.to_json()

    @pytest.mark.parametrize(
        "text",
        ["", "{", b"\xff{}", '{"users": {"a": 0, "b": 0}}', '{"users": {"a": 1}}', '{"items": {"1": 0, "2": 2}}',
         '{"users": {"a": "0"}}', '{"users": {"a": 0.0}}', '{"users": {"a": true}}', '{"users": {"a": -1}}',
         '{"extras": {"mode": {"x": 0, "y": 0}}}', '{"extras": {"mode": {"x": null}}}', "[]", '{"users": [0]}'],
    )
    def test_anything_else_is_one_error_naming_the_file(self, tmp_path, text):
        path = tmp_path / "v.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: ") as caught:
            Vocabulary.load(path)
        assert "\n" not in str(caught.value)


class TestQMatrixAlignment:
    def test_one_based_ids(self):
        q = QMatrix(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8))
        vocab_items = {"2": 0, "3": 1, "1": 2}  # first-appearance order
        aligned = align_qmatrix(q, vocab_items)
        assert aligned.matrix.tolist() == [[0, 1], [1, 1], [1, 0]]  # raw items 2, 3, 1

    def test_zero_based_ids(self):
        q = QMatrix(np.array([[1, 0], [0, 1]], dtype=np.int8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # ids that reach 0 are not ambiguous
            aligned = align_qmatrix(q, {"1": 0, "0": 1})
        assert aligned.matrix.tolist() == [[0, 1], [1, 0]]  # raw item 1 is q row 1

    def test_ids_that_fit_both_bases_warn(self):
        # ids 1..4 against 5 rows: 0-based leaves row 0 unused, 1-based row 4
        q = QMatrix(np.eye(5, dtype=np.int8))
        with pytest.warns(UserWarning, match=r"\[1, 4\].*5-row.*0-based.*row 0 goes unused"):
            aligned = align_qmatrix(q, {"1": 0, "2": 1, "3": 2, "4": 3})
        assert aligned.matrix.tolist() == np.eye(5, dtype=int)[1:].tolist()

    def test_vocab_order_passthrough(self):
        q = QMatrix(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int8))
        aligned = align_qmatrix(q, {"anything": 0, "goes": 1}, vocab_order=True)
        assert tuple(np.flatnonzero(aligned.matrix[0])) == (0,)

    def test_non_integer_ids_need_vocab_order(self):
        q = QMatrix(np.array([[1]], dtype=np.int8))
        with pytest.raises(EncodingError):
            align_qmatrix(q, {"Q17a": 0})

    def test_out_of_range_ids_rejected(self):
        q = QMatrix(np.array([[1, 0]], dtype=np.int8))
        with pytest.raises(EncodingError):
            align_qmatrix(q, {"5": 0})


class TestLoadDataset:
    def test_example_files(self, example_log_csv):
        data, qfile = example_log_csv
        dataset = load_dataset(data, qfile)
        assert dataset.n_students == 2
        assert dataset.n_items == 3
        # raw item "2" (dense 0) exercises the first two skills
        assert tuple(np.flatnonzero(dataset.qmatrix.matrix[0])) == (0, 1)

    def test_extra_columns_property(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "user_id,item_id,correct,mode\n1,1,1,a\n1,1,0,b\n2,1,1,c\n"
        )
        dataset = load_dataset(path)
        assert dataset.extra_columns == (("mode", 3),)

    def test_a_bom_twin_loads_like_the_plain_file(self, tmp_path):
        # spreadsheet exports often open with a UTF-8 byte order mark, which is no part of a field
        texts = {"data.csv": "user_id,item_id,correct,mode\n1,1,1,a\n1,2,0,b\n2,2,1,a\n", "q.csv": "1,0\n1,1\n"}
        loaded = []
        for prefix in (b"", codecs.BOM_UTF8):
            for name, text in texts.items():
                (tmp_path / name).write_bytes(prefix + text.encode())
            loaded.append(load_dataset(tmp_path / "data.csv", tmp_path / "q.csv"))
        plain, bom = loaded
        assert bom.triplets.tolist() == plain.triplets.tolist()
        assert {k: v.tolist() for k, v in bom.extras.items()} == {k: v.tolist() for k, v in plain.extras.items()}
        assert bom.vocab.to_dict() == plain.vocab.to_dict()
        assert bom.qmatrix.matrix.tolist() == plain.qmatrix.matrix.tolist() == [[1, 0], [1, 1]]


class TestSynthSpec:
    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            SynthSpec("magic", 10, 5)

    def test_mirt_needs_dimension(self):
        with pytest.raises(ValueError):
            SynthSpec("mirt", 10, 5, d=0)

    def test_pfa_needs_skills(self):
        with pytest.raises(ValueError):
            SynthSpec("pfa", 10, 5, n_skills=0)


class TestGenerators:
    def test_saturated_abilities_dominate_outcomes(self):
        # huge parameter scale forces near-deterministic outcomes; the student
        # with the larger ability must answer far better than the other
        for seed in range(10):
            spec = SynthSpec("rasch", 2, 2, attempts=50, seed=seed, scale=10.0)
            data = generate_synthetic(spec)
            ability = data.truth["ability"]
            if not (ability[0] > 3 and ability[1] < -3):
                continue
            student, _, outcome = data.triplets.T
            rates = [outcome[student == s].mean() for s in (0, 1)]
            assert rates[0] > 0.9
            assert rates[1] < 0.1
            return
        raise AssertionError("no screening seed produced well-separated abilities")

    def test_win_gain_raises_success_rate(self):
        # positive win gain, zero fail gain: empirical success rate must be
        # nondecreasing in the prior win count, checked on 10k attempts
        truth = {
            "generator": "pfa",
            "link": "logit",
            "n_students": 100,
            "n_items": 1,
            "qmatrix": [[1]],
            "skill_bias": [-1.0],
            "win_gain": [0.35],
            "fail_gain": [0.0],
        }
        students = np.repeat(np.arange(100), 100)
        uniforms = np.random.default_rng(0).random(students.size)
        triplets = settle_outcomes(truth, students, np.zeros_like(students), uniforms)
        assert len(triplets) == 10_000
        wins = {}
        by_count: dict[int, list[int]] = {}
        for student, _, outcome in triplets.tolist():
            count = wins.get(student, 0)
            by_count.setdefault(min(count, 8), []).append(outcome)
            if outcome:
                wins[student] = count + 1
        rates = [np.mean(by_count[c]) for c in sorted(by_count) if len(by_count[c]) > 50]
        assert all(b >= a - 0.05 for a, b in zip(rates, rates[1:]))
        assert rates[-1] > rates[0]

    def test_fixed_seed_reproduces_files(self, tmp_path):
        spec = SynthSpec("pfa", 8, 5, n_skills=3, seed=11)
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_synthetic(generate_synthetic(spec), a)
        write_synthetic(generate_synthetic(spec), b)
        for name in ("triplets.csv", "qmatrix.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rasch_oracle_matches_formula(self):
        spec = SynthSpec("rasch", 5, 4, seed=2)
        data = generate_synthetic(spec)
        probs = oracle_probabilities(data.truth, data.triplets)
        ability = np.array(data.truth["ability"])
        difficulty = np.array(data.truth["difficulty"])
        for (student, item, _), p in zip(data.triplets, probs):
            z = ability[student] - difficulty[item]
            assert p == pytest.approx(1 / (1 + np.exp(-z)), rel=1e-12)

    def test_ktm_generator_runs(self):
        spec = SynthSpec("ktm", 6, 4, n_skills=3, d=2, seed=4)
        data = generate_synthetic(spec)
        assert len(data.triplets) == 24
        assert data.qmatrix is not None

    def test_mirt_generator_truth_round_trips_json(self, tmp_path):
        spec = SynthSpec("mirt", 4, 3, d=2, seed=5)
        data = generate_synthetic(spec)
        paths = write_synthetic(data, tmp_path / "out")
        truth = json.loads((tmp_path / "out" / "truth.json").read_text())
        assert truth["generator"] == "mirt"
        assert len(truth["user_vectors"]) == 4

    def test_synthetic_files_load_back(self, tmp_path):
        spec = SynthSpec("pfa", 6, 4, n_skills=2, seed=3)
        data = generate_synthetic(spec)
        write_synthetic(data, tmp_path)
        dataset = load_dataset(tmp_path / "triplets.csv", tmp_path / "qmatrix.csv")
        assert len(dataset.triplets) == len(data.triplets)
        assert dataset.qmatrix.n_skills == 2


def _reference_inv_link(link: Link, z):
    from scipy.special import expit, ndtr

    return expit(z) if link is Link.LOGIT else ndtr(z)


def reference_synthetic(spec: SynthSpec):
    """The generators as written before they shared one FM oracle: a per-pair
    rasch/mirt loop, a per-attempt pfa tally and a per-attempt ktm score on a
    one-row design matrix, each drawing its own uniforms one at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    n, m = spec.n_students, spec.n_items
    truth = {
        "generator": spec.generator,
        "link": spec.link.value,
        "seed": spec.seed,
        "n_students": n,
        "n_items": m,
    }

    def draw(z):
        return int(rng.random() < float(_reference_inv_link(spec.link, np.array(z))))

    if spec.generator in ("rasch", "mirt"):
        ability = rng.normal(0.0, spec.scale, size=n)
        difficulty = rng.normal(0.0, spec.scale, size=m)
        truth["ability"] = ability.tolist()
        truth["difficulty"] = difficulty.tolist()
        if spec.generator == "mirt":
            emb_scale = spec.scale / np.sqrt(spec.d)
            user_vecs = rng.normal(0.0, emb_scale, size=(n, spec.d))
            item_vecs = rng.normal(0.0, emb_scale, size=(m, spec.d))
            truth["user_vectors"] = user_vecs.tolist()
            truth["item_vectors"] = item_vecs.tolist()
        pairs = [(i, j) for i in range(n) for j in range(m)] * spec.attempts
        triplets = []
        for idx in rng.permutation(len(pairs)):
            i, j = pairs[idx]
            z = ability[i] - difficulty[j]
            if spec.generator == "mirt":
                z += float(user_vecs[i] @ item_vecs[j])
            triplets.append([i, j, draw(z)])
        return triplets, None, truth

    q = _random_qmatrix(m, spec.n_skills, rng)
    truth["qmatrix"] = q.matrix.tolist()
    wins = np.zeros((n, spec.n_skills), dtype=np.int64)
    fails = np.zeros((n, spec.n_skills), dtype=np.int64)
    if spec.generator == "pfa":
        skill_bias = rng.normal(0.0, spec.scale, size=spec.n_skills)
        win_gain = np.abs(rng.normal(0.0, spec.scale / 4, size=spec.n_skills))
        fail_gain = -np.abs(rng.normal(0.0, spec.scale / 4, size=spec.n_skills))
        truth["skill_bias"] = skill_bias.tolist()
        truth["win_gain"] = win_gain.tolist()
        truth["fail_gain"] = fail_gain.tolist()

        def score(student, item, kc):
            return float(
                skill_bias[kc].sum()
                + (win_gain[kc] * wins[student, kc]).sum()
                + (fail_gain[kc] * fails[student, kc]).sum()
            )

    else:
        space = EncodingConfig(GENERATOR_BLOCKS["ktm"]).feature_space(n, m, spec.n_skills)
        w = rng.normal(0.0, spec.scale / 2, size=space.width)
        V = rng.normal(0.0, spec.scale / (2 * np.sqrt(spec.d)), size=(space.width, spec.d))
        params = FMParams(0.0, w, V)
        truth["w"] = w.tolist()
        truth["V"] = V.tolist()
        truth["blocks"] = list(space.blocks)

        def score(student, item, kc):
            x = np.zeros(space.width)
            x[[space.offset("users") + student, space.offset("items") + item]] = 1.0
            x[space.offset("skills") + kc] = 1.0
            x[space.offset("wins") + kc] = wins[student, kc]
            x[space.offset("fails") + kc] = fails[student, kc]
            cols = np.flatnonzero(x)
            return float(raw_scores(params, DesignMatrix(space, [0, cols.size], cols, x[cols], [0]))[0])

    triplets = []
    for student in range(n):
        for _ in range(spec.attempts):
            for item in rng.permutation(m):
                item = int(item)
                kc = np.flatnonzero(q.matrix[item])
                outcome = draw(score(student, item, kc))
                triplets.append([student, item, outcome])
                (wins if outcome else fails)[student, kc] += 1
    return triplets, q, truth


class TestSettledGenerators:
    # (students, items, skills, d, attempts, scale); one skill forces a
    # one-column q-matrix where every attempt moves the same counters
    SHAPES = [(7, 5, 1, 1, 3, 1.0), (12, 9, 3, 2, 2, 1.0), (20, 6, 2, 3, 2, 3.0)]

    @pytest.mark.parametrize("generator", sorted(GENERATOR_BLOCKS))
    @pytest.mark.parametrize("link", list(Link))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_sequential_generators(self, generator, link, seed):
        for n, m, n_skills, d, attempts, scale in self.SHAPES:
            spec = SynthSpec(
                generator,
                n,
                m,
                n_skills=n_skills if generator in ("pfa", "ktm") else 0,
                d=d if generator in ("mirt", "ktm") else 0,
                attempts=attempts,
                link=link,
                seed=seed,
                scale=scale,
            )
            data = generate_synthetic(spec)
            triplets, q, truth = reference_synthetic(spec)
            assert data.triplets.tolist() == triplets
            assert data.truth == truth
            assert (q is None) == (data.qmatrix is None)
            if q is not None:
                assert np.array_equal(data.qmatrix.matrix, q.matrix)

    def test_ktm_oracle_is_the_dense_fm_score(self):
        spec = SynthSpec("ktm", 5, 4, n_skills=3, d=2, attempts=2, seed=8)
        data = generate_synthetic(spec)
        w, V = np.array(data.truth["w"]), np.array(data.truth["V"])
        n, m, n_skills = 5, 4, 3
        q = data.qmatrix.matrix
        wins = np.zeros((n, n_skills))
        fails = np.zeros((n, n_skills))
        expected = []
        for student, item, outcome in data.triplets:
            kc = q[item]
            x = np.concatenate(
                [np.eye(n)[student], np.eye(m)[item], kc, kc * wins[student], kc * fails[student]]
            )
            z = sum(w[a] * x[a] for a in range(x.size))
            z += sum(V[a] @ V[b] * x[a] * x[b] for a in range(x.size) for b in range(a + 1, x.size))
            expected.append(1 / (1 + np.exp(-z)))
            (wins if outcome else fails)[student] += kc
        probs = oracle_probabilities(data.truth, data.triplets)
        np.testing.assert_allclose(probs, expected, rtol=1e-12)


class TestAssistmentsConverter:
    def test_mini_export(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "order_id,assignment_id,user_id,problem_id,correct,skill_id,skill_name,"
            "first_action,school_id,teacher_id,tutor_mode\n"
            "5,1,u1,p1,1,s9,frac,attempt,sc1,t1,tutor\n"
            "5,1,u1,p1,1,s7,dec,attempt,sc1,t1,tutor\n"
            "2,1,u2,p2,0,,,hint,sc2,t2,test\n"
            "9,1,u1,p2,1,,,attempt,sc1,t1,tutor\n"
        )
        out_data = tmp_path / "triplets.csv"
        out_q = tmp_path / "q.csv"
        convert_assistments(raw, out_data, out_q)
        triplets, extras, vocab = load_triplets(out_data)
        # rows come back in order_id order and multi-skill rows are merged
        assert len(triplets) == 3
        assert extras["tutor_mode"].tolist()[0] == 0  # first row is "test"
        q = np.loadtxt(out_q, delimiter=",", ndmin=2)
        assert q.shape == (2, 2)
        # the multi-skill problem carries both skills, the untagged one none
        assert q.sum() == 2
        assert sorted(q.sum(axis=1).tolist()) == [0.0, 2.0]

    def test_missing_columns_rejected(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataFormatError):
            convert_assistments(raw, tmp_path / "a.csv", tmp_path / "b.csv")
