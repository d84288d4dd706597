"""Property test of the CLI's input files: a model file, a policy file, a
token file and a corpus, each valid but for one drawn defect, end in exit 0
or 1 with at most one stderr line, never a traceback or a warning (a
warning prints two lines on a console).

The CLI runs in-process, as ``cli.main``; a process per example would make
the test minutes long.
"""

import contextlib
import io
import json
import tempfile
import traceback
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazykv.cli import main

# Leaves of every kind a field can be mistyped as: null, bool, float (NaN
# and infinities included), string, negative, past int64; and nested ones.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.integers(-3, 3)
    | st.integers(min_value=2**63, max_value=2**80),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
DELETE = object()

GOOD_POLICY = {
    "fingerprint": "", "lazy_layers": [0], "w_sink": 1, "w_recent": 4,
    "provenance": "manual", "recent_windows": [4, 4], "seed": 3,
}
GOOD_SAMPLE = {"question": [1, 2, 3], "answer": [4]}


def run(*argv):
    """Exit code and stderr of ``cli.main``, or of the parser's exit; an
    escaped exception becomes the traceback a console would show, and
    warnings are returned too. The
    package's own ``UserWarning`` (a corpus sample too short to rank
    layers) is a notice about valid input and is not counted."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", UserWarning)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main([str(a) for a in argv])
            except SystemExit as exc:  # the parser refusing a flag
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = None
    return rc, err.getvalue(), [str(w.message) for w in caught]


def check(rc, err, caught):
    assert rc in (0, 1), err
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert not caught


@st.composite
def byte_defect(draw, data: bytes) -> bytes:
    """``data`` with one byte changed, cut short, or with bytes appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    return data + draw(st.binary(min_size=1, max_size=16))


@st.composite
def field_defect(draw, doc: dict) -> bytes:
    """``doc`` as JSON with one field deleted or set to a drawn value."""
    doc = dict(doc)
    key = draw(st.sampled_from(sorted(doc)))
    value = draw(JSON_VALUES | st.just(DELETE))
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = value
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.lazykv"
    rc = main([
        "gen-model", "--layers", "2", "--heads", "2", "--dim", "4", "--dk", "3",
        "--vocab", "7", "--seed", "0", "--scale", "0.5", "--out", str(path),
        "--report", str(path.with_suffix(".json")),
    ])
    assert rc == 0
    return path


def run_on_file(data: bytes, *argv):
    """Writes ``data`` to a file, then runs the CLI with ``FILE`` in
    ``argv`` naming it and a report going to a scratch file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        argv = [path if a == "FILE" else a for a in argv]
        return run(*argv, "--report", Path(tmp) / "report.json")


PROFILE = settings(max_examples=50, deadline=None)


@PROFILE
@given(data=st.data())
def test_model_file(model, data):
    good = model.read_bytes()
    header, blob = good.split(b"\n", 1)
    defect = data.draw(
        byte_defect(good) | field_defect(json.loads(header)).map(lambda h: h + b"\n" + blob)
    )
    check(*run_on_file(defect, "run", "--model", "FILE", "--tokens", "1,2,3", "--max-new", 1))


@PROFILE
@given(data=st.data())
def test_policy_file(model, data):
    good = json.dumps(GOOD_POLICY).encode()
    defect = data.draw(byte_defect(good) | field_defect(GOOD_POLICY))
    check(*run_on_file(
        defect, "run", "--model", model, "--tokens", "1,2,3", "--policy", "FILE", "--max-new", 1
    ))


@PROFILE
@given(data=st.data())
def test_token_file(model, data):
    good = [1, 2, 3]
    element = data.draw(st.integers(0, len(good) - 1))
    value = data.draw(JSON_VALUES)
    mutated = good[:element] + [value] + good[element + 1 :]
    defect = data.draw(
        byte_defect(json.dumps(good).encode())
        | st.just(json.dumps(mutated).encode())
        | st.just(json.dumps(value).encode())
    )
    check(*run_on_file(defect, "run", "--model", model, "--tokens", "FILE", "--max-new", 1))


@PROFILE
@given(data=st.data())
def test_corpus_line(model, data):
    good = json.dumps(GOOD_SAMPLE).encode()
    defect = data.draw(byte_defect(good) | field_defect(GOOD_SAMPLE))
    check(*run_on_file(
        good + b"\n" + defect + b"\n", "preselect", "--model", model, "--corpus", "FILE"
    ))
