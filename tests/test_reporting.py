"""The report writers: golden JSON and CSV text for each kind of value, and
a property test against the standard library's encoder."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekstat.reporting import csv_cell, dumps_csv, dumps_json


def _items(*lines):
    """The text of a top-level array holding one item per line."""
    return "[\n" + ",\n".join("  " + line for line in lines) + "\n]\n"


class TestScalars:
    @pytest.mark.parametrize("value,text", [
        (float("nan"), '"nan"'),
        (float("inf"), '"inf"'),
        (float("-inf"), '"-inf"'),
        (-0.0, "-0"),
        (0.0, "0"),
        (1.0, "1"),
        (5e-324, "4.9406564584124654e-324"),
        (0.1, "0.10000000000000001"),
        (1e300, "1.0000000000000001e+300"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.int64(-7), "-7"),
        (2**70, "1180591620717411303424"),
        (True, "true"),
        (np.bool_(False), "false"),
        (None, "null"),
    ])
    def test_golden(self, value, text):
        assert dumps_json(value) == text + "\n"

    @pytest.mark.parametrize("x", [0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308, -2.5e-310,
                                   123456789.12345678])
    def test_seventeen_digits_round_trip(self, x):
        text = dumps_json(x)
        assert text == format(x, ".17g") + "\n"
        assert float(text) == x

    @pytest.mark.parametrize("value", [complex(1.5, -0.25), np.complex128(1.5 - 0.25j)])
    def test_complex(self, value):
        assert dumps_json(value) == '{\n  "re": 1.5,\n  "im": -0.25\n}\n'

    def test_complex_in_an_array(self):
        assert dumps_json([1j, complex("nan")]) == (
            '[\n  {\n    "re": 0,\n    "im": 1\n  },\n'
            '  {\n    "re": "nan",\n    "im": 0\n  }\n]\n')

    def test_strings(self):
        assert dumps_json('say "hi"\\now') == '"say \\"hi\\"\\\\now"\n'
        assert dumps_json("a\tb\nc\x00\x1f") == '"a\\u0009b\\u000ac\\u0000\\u001f"\n'
        assert dumps_json("µ→ü") == '"µ→ü"\n'

    @pytest.mark.parametrize("key,text", [
        ('x"y', '"x\\"y"'),
        ("back\\slash", '"back\\\\slash"'),
        ("tab\tkey", '"tab\\u0009key"'),
        ("µ→ü", '"µ→ü"'),
    ])
    def test_keys_are_escaped(self, key, text):
        doc = {key: 1, "plain": 2}
        out = dumps_json(doc)
        assert out == "{\n  " + text + ': 1,\n  "plain": 2\n}\n'
        assert json.loads(out) == doc

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", [1.0, {2}]])
    def test_unsupported_type(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_json(value)


class TestContainers:
    def test_empty(self):
        assert dumps_json([]) == "[]\n"
        assert dumps_json(()) == "[]\n"
        assert dumps_json({}) == "{}\n"
        assert dumps_json(np.empty(0)) == "[]\n"
        assert dumps_json({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'

    def test_tuple_and_list_are_arrays(self):
        assert dumps_json((0.5, 2.0)) == dumps_json([0.5, 2.0]) == _items("0.5", "2")

    def test_floats_with_nan_and_inf(self):
        assert dumps_json([1.0, float("nan"), -float("inf"), -0.0]) == \
            _items("1", '"nan"', '"-inf"', "-0")

    def test_numpy_arrays(self):
        assert dumps_json(np.array([0.1, np.inf])) == _items("0.10000000000000001", '"inf"')
        assert dumps_json(np.array([0.1], dtype=np.float32)) == _items("0.10000000149011612")
        assert dumps_json(np.array([3, -4])) == _items("3", "-4")
        assert dumps_json(np.array([True, False])) == _items("true", "false")
        assert dumps_json(np.eye(2)) == (
            "[\n  [\n    1,\n    0\n  ],\n  [\n    0,\n    1\n  ]\n]\n")

    def test_mixed_array(self):
        assert dumps_json([1, 1.0, True, "x", None]) == \
            _items("1", "1", "true", '"x"', "null")

    def test_nesting(self):
        doc = {"config": {"k": 2, "tags": ("a", "b")},
               "result": {"z": [0.5, -1.25], "low": (False, True), "points": [{"s": [1.5]}]}}
        assert dumps_json(doc) == """{
  "config": {
    "k": 2,
    "tags": [
      "a",
      "b"
    ]
  },
  "result": {
    "z": [
      0.5,
      -1.25
    ],
    "low": [
      false,
      true
    ],
    "points": [
      {
        "s": [
          1.5
        ]
      }
    ]
  }
}
"""


class TestCsv:
    def test_rows(self):
        rows = [[0.1, float("nan"), float("-inf"), -0.0],
                [np.float64(1.5), np.float32(0.1), 3, True],
                ["x", None, False, float("inf")]]
        assert dumps_csv(["a", "b", "c", "d"], rows) == (
            "a,b,c,d\n"
            "0.10000000000000001,nan,-inf,-0\n"
            "1.5,0.10000000149011612,3,true\n"
            "x,None,false,inf\n")

    def test_float_rows_equal_the_cells(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 3)).tolist() + [[float("nan"), float("inf"), 5e-324]]
        assert dumps_csv(["a", "b", "c"], rows).splitlines()[1:] == \
            [",".join(map(csv_cell, row)) for row in rows]


# nested finite floats, ints, bools and printable ASCII strings, which are
# also the object keys (quotes and backslashes included)
_PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7e)
_SCALARS = (st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.booleans()
            | st.text(_PRINTABLE, max_size=8))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(_PRINTABLE, max_size=6), inner, max_size=5),
    max_leaves=25)


def _with_float_marks(x, floats):
    """``x`` with each float replaced by a string naming its index in ``floats``."""
    if isinstance(x, float):
        floats.append(x)
        return f"\0{len(floats) - 1}\0"
    if isinstance(x, list):
        return [_with_float_marks(v, floats) for v in x]
    if isinstance(x, dict):
        return {key: _with_float_marks(v, floats) for key, v in x.items()}
    return x


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_DOCS)
def test_matches_the_standard_encoder(doc):
    text = dumps_json(doc)
    assert json.loads(text) == doc
    floats = []
    want = json.dumps(_with_float_marks(doc, floats), indent=2)
    want = re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: "%.17g" % floats[int(m.group(1))], want)
    assert text == want + "\n"
