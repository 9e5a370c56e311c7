import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld.errors import InvalidInput
from mcld.serialize import FloatTexts, dumps, format_number, write_csv, write_json
from mcld.trajectory import Event

from helpers import oracle_csv_text, oracle_dumps

# values that hash alike or print alike, drawn often so that one structure
# repeats them: 1, 1.0 and True hash alike; 0.0 and -0.0 compare equal
_CLASHING = [0.0, -0.0, 0, False, 1, 1.0, True, -1.0, 0.1, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, 2.0 ** 53, 2 ** 53]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.sampled_from(_CLASHING),
    _FLOATS,
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals among them
    _FLOATS.map(np.float64),
    st.integers(-(10 ** 300), 10 ** 300),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII and control characters among them
)
_KEYS = st.one_of(st.text(), st.integers(), _FLOATS, st.booleans(), st.none())
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(_KEYS, children, max_size=6),
    ),
    max_leaves=60,
)


def _columns(rows):
    """The columns of rows of one width."""
    return [list(c) for c in zip(*rows)]


class TestFormatNumber:
    def test_ints_are_plain(self):
        assert format_number(42) == "42"
        assert format_number(True) == "true"

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInput):
                format_number(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, x):
        assert float(format_number(x)) == x


class TestDumps:
    def test_valid_json_with_order_preserved(self):
        obj = {"b": [1, 0.5, None], "a": {"nested": "x"}, "flag": False}
        text = dumps(obj)
        assert json.loads(text) == obj
        assert text.index('"b"') < text.index('"a"')

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInput):
            dumps({"x": object()})


class TestAgainstOracle:
    """The writers give the bytes of formatting every value afresh."""

    @settings(max_examples=200, deadline=None)
    @given(_TREES)
    def test_dumps_matches_the_oracle(self, obj):
        assert dumps(obj) == oracle_dumps(obj)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.text(), min_size=1, max_size=4),
        st.integers(1, 5).flatmap(
            lambda width: st.lists(
                st.lists(
                    _SCALARS.filter(lambda c: c is not None), min_size=width, max_size=width
                ),
                max_size=12,
            )
        ),
    )
    @example(["a"], [])
    @example(["a", "b"], [[1.5, 2], [1.5, 0.25], [0.25, "x"], [1.5, 2]])
    @example(
        ["x", "y"],
        [[0.0, 1.5], [-0.0, 1.5], [1.5, 0.0], [0.0, -0.0], [1.5, 1.5], [-0.0, 0.25]],
    )
    @example(
        ["x", "y"],
        [[1.5, 0.5], [1, 0.5], [True, 0.5], [np.float64(1.5), 0.5], ["1.5", 0.5], [1.0, 2]],
    )
    @example(["x", "y"], [[1.5, 2], [2.5, 2], [1.5, 2], [2.5, 2], [math.inf, 2], [1.5, 2]])
    def test_write_csv_matches_the_oracle(self, header, rows):
        try:
            want = oracle_csv_text(header, rows).encode("utf-8")
        except InvalidInput:
            want = None  # a non-finite cell: the file is refused
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "o.csv"
            if want is None:
                with pytest.raises(InvalidInput):
                    write_csv(path, header, _columns(rows))
                assert not path.exists()
            else:
                write_csv(path, header, _columns(rows))
                assert path.read_bytes() == want

    def test_write_csv_refuses_columns_of_unequal_length(self, tmp_path):
        path = tmp_path / "o.csv"
        with pytest.raises(InvalidInput, match="equal length"):
            write_csv(path, ("x", "y"), [[1.5, 2.5], [1]])
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                Event,
                st.sampled_from(_CLASHING).filter(lambda x: type(x) is float)
                | _FLOATS
                | _FLOATS.map(np.float64),
                st.sampled_from(["merge", "delete"]) | st.text(),
                st.lists(
                    st.integers(1, 10 ** 6)
                    | st.booleans()
                    | st.integers(1, 10 ** 6).map(np.int64),
                    max_size=3,
                ).map(tuple),
                _FLOATS,
            ),
            max_size=8,
        )
    )
    @example([Event(-0.0, "delete", (3,), 0.0), Event(0.0, "merge", (1, 2), -0.0)])
    @example([Event(1.0, "merge", (1, 2), 2.0), Event(1.0, 'a"b', (1,), 2.0)])
    @example([Event(1.0, "merge", (True, 2), 2.0), Event(2.0, "delete", (3,), 0.5)])
    @example([Event(1.0, "a\\b", (), 2.0), Event(np.float64(0.5), "délété", (1, 2, 3), 1.5)])
    @example([Event(1.0, "merge", (1,), 2.0), Event(2.0, "delete", (3, 4), 0.5)])
    @example([Event(1.0, "merge", (1, np.int64(2)), 2.0)])
    def test_events_match_the_oracle_of_their_dicts(self, events):
        # an event is rendered as the dict time, kind, components, weight
        dicts = [
            {"time": e.time, "kind": e.kind, "components": list(e.components), "weight": e.weight}
            for e in events
        ]
        # the whole log, as a list and as a tuple, and each event alone
        for obj, want in [(events, dicts), (tuple(events), dicts), *zip(events, dicts)]:
            try:
                text = oracle_dumps(want)
            except InvalidInput:  # an id the oracle cannot serialize, np.int64
                with pytest.raises(InvalidInput):
                    dumps(obj)
            else:
                assert dumps(obj) == text

    def test_an_event_of_a_subclass_is_written_as_the_event(self):
        class Sub(Event):
            pass

        events = [Event(1.0, "merge", (1, 2), 2.0), Event(0.5, "delete", (3,), 0.25),
                  Event(2.0, 'a"b', (True,), 1.5)]
        subs = [Sub(*e) for e in events]
        for sub, event in zip(subs, events):
            assert dumps(sub) == dumps(event)
            assert dumps([sub]) == dumps([event])
        assert dumps(subs) == dumps(events)
        assert dumps(tuple(subs)) == dumps(tuple(events))
        assert dumps([events[0], subs[1]]) == dumps(events[:2])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
    def test_non_finite_refused_deep_after_equal_finite_values(self, tmp_path, bad):
        obj = {"a": [1.5, 1.5, {"b": [(1.5, -0.0, [bad])]}]}
        with pytest.raises(InvalidInput):
            oracle_dumps(obj)
        with pytest.raises(InvalidInput):
            dumps(obj)
        # an event log whose last of 300 events has a non-finite time or weight
        good = [Event(0.5 + k, "merge" if k % 2 else "delete", (k + 1, k + 2)[: 1 + k % 2], 1.5)
                for k in range(299)]
        for last in (Event(bad, "delete", (1,), 1.5), Event(400.0, "merge", (1, 2), bad)):
            with pytest.raises(InvalidInput):
                dumps(good + [last])
            with pytest.raises(InvalidInput):
                write_json(tmp_path / "o.json", good + [last])
            assert not (tmp_path / "o.json").exists()
        path = tmp_path / "o.csv"
        # a column of exact floats, and a mixed one
        for column in ([1.5, 1.5, bad], [1.5, 2, bad]):
            with pytest.raises(InvalidInput):
                write_csv(path, ("x", "y"), [[1.5, 1.5, 1.5], column])
            assert not path.exists()


class TestFloatTexts:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_refused(self, tmp_path, bad):
        texts = FloatTexts()
        with pytest.raises(InvalidInput, match="non-finite"):
            texts[bad]
        assert not texts
        # a column refused for a late non-finite value stores none of its own
        texts[1.5]
        with pytest.raises(InvalidInput, match="non-finite"):
            write_csv(tmp_path / "o.csv", ("x",), [[2.5, 1.5, -0.0, 3.5, 2.5, bad]], texts)
        assert list(texts) == [1.5] and texts[1.5] == "1.5"

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_zeros_are_never_stored(self, first):
        texts = FloatTexts()
        second = -first
        assert texts[first] == format_number(first)
        assert texts[second] == format_number(second)
        assert texts[first] == format_number(first)
        assert not texts
        assert texts[1.5] == "1.5" and list(texts) == [1.5]

    def test_one_table_across_calls_gives_the_bytes_of_fresh_ones(self, tmp_path):
        texts = FloatTexts()
        obj = [0.1, -0.0, 0.0, 2.5, 1e-300]
        assert dumps(obj, texts) == dumps(obj, texts) == dumps(obj) == oracle_dumps(obj)
        assert set(texts) == {0.1, 2.5, 1e-300}
        # a CSV column of both zeros, repeats and values already in the
        # table, then an event log over the same values, as mcld simulate
        column = [0.0, 2.5, -0.0, 0.75, 2.5, 0.1, 0.75, -0.0]
        write_csv(tmp_path / "o.csv", ("x",), [column], texts)
        assert (tmp_path / "o.csv").read_text() == oracle_csv_text(("x",), [[c] for c in column])
        assert set(texts) == {0.1, 2.5, 1e-300, 0.75}
        events = [Event(0.75, "merge", (1, 2), 2.5), Event(-0.0, "delete", (3,), 0.0),
                  Event(0.1, "merge", (1, 4), 1e-300)]
        dicts = [dict(zip(("time", "kind", "components", "weight"), e)) for e in events]
        assert dumps(events, texts) == dumps(events) == oracle_dumps(dicts)

    @pytest.mark.parametrize(
        "obj, text",
        [([True, 1, 1.0], "[true, 1, 1]"), ([1.0, True, 1], "[1, true, 1]"),
         ([1, 1.0, True], "[1, 1, true]"), ({"a": 1.0, "b": True, "c": 1}, '{"a": 1, "b": true, "c": 1}')],
    )
    def test_values_that_hash_alike_keep_their_own_text(self, obj, text):
        assert dumps(obj) == text == oracle_dumps(obj)


def test_writers_round_trip(tmp_path):
    write_json(tmp_path / "o.json", {"v": [0.1, 2]})
    assert json.loads((tmp_path / "o.json").read_text()) == {"v": [0.1, 2]}
    write_csv(tmp_path / "o.csv", ("a", "b"), [(1, 2), (0.5, 0.25)])
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert lines == ["a,b", "1,0.5", "2,0.25"]
