import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab.cli import main
from lelab.serialize import fmt_float, payload_hash, to_csv, to_json


def reference_json(obj, indent=2):
    """The emitter as it was, with ``json.dumps`` on every key and string:
    the oracle for ``to_json``'s bytes."""
    out = []

    def emit(obj, level):
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        if obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif isinstance(obj, int):
            out.append(str(obj))
        elif isinstance(obj, float):
            out.append(fmt_float(obj) if math.isfinite(obj) else "null")
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            out.append("{\n")
            for i, (k, v) in enumerate(obj.items()):
                out.append(pad_in + json.dumps(k) + ": ")
                emit(v, level + 1)
                out.append(",\n" if i < len(obj) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(obj, (list, tuple)):
            if len(obj) == 0:
                out.append("[]")
                return
            out.append("[\n")
            for i, v in enumerate(obj):
                out.append(pad_in)
                emit(v, level + 1)
                out.append(",\n" if i < len(obj) - 1 else "\n")
            out.append(pad + "]")
        else:
            emit(obj.item(), level)

    emit(obj, 0)
    out.append("\n")
    return "".join(out)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats(width=32).map(np.float32), st.integers(-2**40, 2**40).map(np.int64),
    st.booleans().map(np.bool_), st.floats().map(np.float64))
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


class TestEmitter:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents, indent=st.sampled_from([0, 2]))
    def test_bytes_match_the_json_dumps_emitter(self, doc, indent):
        # the C string encoder and the exact-type dispatch write the bytes
        # of json.dumps per key and string, on numpy scalars, non-ASCII and
        # control characters, NaN and infinities too
        assert to_json(doc, indent) == reference_json(doc, indent)

    def test_refusals(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            to_json({1: 2})
        with pytest.raises(TypeError, match="cannot serialize"):
            to_json({"a": object()})

    def test_payload_hash_unchanged(self):
        assert payload_hash({"cmd": "solve", "p": 9.0, "q": 6.0, "N": 11,
                             "shoot": True, "bracket": [0.2, 5.0]}) \
            == "ce61dc59a248"


def reference_csv(header, rows):
    """The CSV writer as it was, with a type test per cell: the oracle for
    ``to_csv``'s bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            c if isinstance(c, str) else str(c) if isinstance(c, int)
            else fmt_float(float(c)) for c in row))
    return "\n".join(lines) + "\n"


# a column holds text or numbers, as every caller's columns do
CELLS = {"text": st.text(alphabet="abc-.0123456789e", max_size=6),
         "int": st.integers(-2**53, 2**53), "float": st.floats(),
         "float64": st.floats().map(np.float64),
         "int64": st.integers(-2**40, 2**40).map(np.int64)}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=6))
    return [f"c{i}" for i in range(len(kinds))], rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_bytes_match_the_per_cell_writer(table):
    # one %-format per row, fixed by the first: the bytes of a type test
    # per cell, on ints, numpy scalars, NaN, infinities and -0.0 too
    header, rows = table
    assert to_csv(header, rows) == reference_csv(header, rows)


# one document of every artifact kind, by test id: (argv, the file glob or
# None for stdout, its sha256), each also written by the json.dumps emitter;
# the classify, curve, scan and eig bytes are those of the emitter that
# called json.dumps per string, the solve and compare bytes those of the
# degree-12 series start but for their payload_hash, which moved when the
# event tolerance left the solve payload.  eig_extended's ladder is the 5
# default rungs and 3 appended ones, each with its copy of the verdict
ARTIFACTS = {
    "classify": (["classify", "8", "8", "11"], None,
                 "6eada0eed54a5697c62f788537c7c8fe010b7bd1f2ad72e3ac3ccf54ee729837"),
    "curve": (["curve", "11", "--p-min", "7", "--p-max", "9", "--steps", "5"],
              "curve_*.json",
              "65b514fac5ebe0457d39d0af771862db4de886ef247e326ed1c66bc2960e35fb"),
    "scan": (["scan", "11", "--window", "1", "12", "1", "12",
              "--resolution", "16"], "scan_*.json",
             "3c84f378e01041ee557b74fc874643c50d4f5935c0008c9a863b2b3a828b1087"),
    "eig": (["eig", "9", "6", "11", "--annulus", "0.1", "10", "1024"],
            "eig_*.json",
            "dc40af630f0439a76782cd22ac34e589afe770118552246c6911fd58c097ecf6"),
    "eig_extended": (["eig", "6.9", "6.9", "11"], "eig_*.json",
                     "b64afc1169647ccc6578eb65d3991e1ec405fba9722b72a7fa465e915bd8827e"),
    "solve": (["solve", "3", "3", "11", "--u0", "1", "--v0", "1"],
              "profile_*.json",
              "fc56713f39787331a638b7502db667544d216f10254e517c976f67305a4810e0"),
}


@pytest.mark.parametrize("argv, pattern, digest", ARTIFACTS.values(),
                         ids=ARTIFACTS.keys())
def test_artifact_json_bytes_pinned(tmp_path, capsys, argv, pattern, digest):
    assert main(["--out", str(tmp_path), "--no-cache", *argv]) == 0
    out = capsys.readouterr().out
    text = out if pattern is None else next(tmp_path.glob(pattern)).read_text()
    assert reference_json(json.loads(text)) == text
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_compare_json_bytes_pinned(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--no-cache", "solve", "3", "3", "11",
                 "--u0", "1", "--v0", "1"]) == 0
    profile = next(tmp_path.glob("profile_*.csv"))
    assert main(["--out", str(tmp_path), "--no-cache", "compare", "3", "3",
                 "11", "--profile", str(profile)]) == 0
    capsys.readouterr()
    text = next(tmp_path.glob("compare_*.json")).read_text()
    assert reference_json(json.loads(text)) == text
    # its payload_hash moved when profile_hash came to hash the stored
    # files' bytes
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c0b6b47f5343e636da162c25a924ed55446b51e2df2191a35ad8ebe34195995a")
