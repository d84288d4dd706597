"""Property test of the CLI's flags: a valid small argv for each subcommand,
with one flag's value replaced by a drawn one, ends in exit 0 or 1 (2 only
for a verify-theory violation, which prints nothing), never a traceback,
and every exit 1 prints exactly one stderr line.

Work counts (decode steps, trials, repeats, prompt lengths) draw only
invalid values or values up to 3: a large valid count is long work, not a
defect. Every other flag also draws values of 2**62 and more, so no case
allocates more than a few MiB: such sizes are refused or fail at once.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lazykv.bench
from lazykv.cli import main

from test_file_inputs import GOOD_SAMPLE, run

WORK_FLAGS = {"--max-new", "--trials", "--lemma-trials", "--repeats", "--lengths"}
# Flags naming a file or a choice; every other flag of an argv is drawn.
FIXED_FLAGS = {"--model", "--corpus", "--strategy", "--out", "--emit-policy", "--out-policy"}

INVALID = st.sampled_from(["-1", "-3", str(-(2**63) - 1), "abc", "", "1e3"])
SMALL = st.integers(0, 3).map(str)
HUGE = st.sampled_from([2**62, 2**63 - 1, 2**63, 10**20]).map(str)
ANY = INVALID | SMALL | HUGE

WINDOWS = ["--w-sink", "1", "--w-recent", "2", "--w-last", "2", "--p-layers", "1"]
ARGVS = {
    "gen-model": ["gen-model", "--layers", "2", "--heads", "1", "--dim", "3", "--dk", "2",
                  "--vocab", "5", "--seed", "0", "--scale", "0.5", "--out", "OUT"],
    "run": ["run", "--model", "MODEL", "--tokens", "1,2,3", *WINDOWS, "--max-new", "2",
            "--emit-policy", "OUT"],
    "bench": ["bench", "--model", "MODEL", "--lengths", "4", *WINDOWS, "--repeats", "1",
              "--max-new", "1", "--seed", "0"],
    "verify-theory": ["verify-theory", "--trials", "1", "--lemma-trials", "1",
                      "--max-layers", "2", "--max-heads", "2", "--max-dim", "3",
                      "--max-tokens", "4", "--seed", "0"],
    "analyze": ["analyze", "--model", "MODEL", "--tokens", "1,2,3", "--w-last-sweep", "1,2",
                "--w-sink", "1", "--w-recent", "2", "--p-layers", "1", "--max-new", "2"],
    "preselect": ["preselect", "--model", "MODEL", "--corpus", "CORPUS", *WINDOWS,
                  "--out-policy", "OUT"],
    "make-policy-random": ["make-policy", "--model", "MODEL", "--strategy", "random",
                           "--seed", "0", "--range", "0:2", *WINDOWS, "--out", "OUT"],
    "make-policy-manual": ["make-policy", "--model", "MODEL", "--strategy", "manual",
                           "--layers", "0", *WINDOWS, "--out", "OUT"],
    "make-policy-pyramid": ["make-policy", "--model", "MODEL", "--strategy", "pyramid",
                            *WINDOWS, "--out", "OUT"],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A tiny model and a one-sample corpus; bench times one block per
    repeat, since its timings are not under test here."""
    tmp = tmp_path_factory.mktemp("argv")
    model, corpus = tmp / "model.lazykv", tmp / "corpus.jsonl"
    rc = main(["gen-model", "--layers", "2", "--heads", "2", "--dim", "4", "--dk", "3",
               "--vocab", "7", "--seed", "0", "--scale", "0.5", "--out", str(model),
               "--report", str(tmp / "gen.json")])
    assert rc == 0
    corpus.write_text(json.dumps(GOOD_SAMPLE) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lazykv.bench, "MIN_SPAN_SECONDS", 0.0)
        yield {"MODEL": model, "CORPUS": corpus, "OUT": tmp / "out", "REPORT": tmp / "report"}


@pytest.mark.parametrize("name", sorted(ARGVS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_drawn_flag(paths, name, data):
    argv = list(ARGVS[name])
    drawable = [i for i in range(2, len(argv), 2) if argv[i - 1] not in FIXED_FLAGS]
    i = data.draw(st.sampled_from(drawable))
    argv[i] = data.draw(INVALID | SMALL if argv[i - 1] in WORK_FLAGS else ANY)
    argv = [paths.get(a, a) for a in argv] + ["--report", paths["REPORT"]]
    rc, err, caught = run(*argv)
    assert "Traceback" not in err, err
    assert not caught, caught
    if rc == 2:
        assert argv[0] == "verify-theory" and err == "", err
    else:
        assert rc in (0, 1), err
        if rc == 1:
            assert err.startswith("error:") and err.count("\n") == 1, err
