"""Fuzz every file-reading subcommand with JSON-shaped inputs.

Each run goes through ``cli.run`` in process.  Whatever the input, it must
end with a documented exit code (0-5) and exactly one parseable envelope
on stdout.  Inputs mix arbitrary JSON with near-valid scalars, vectors,
matrices and series whose numbers range from 0 to near the float limits.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyplab.cli as cli

moderate = st.floats(min_value=-10.0, max_value=10.0)
numbers = st.one_of(
    *[moderate] * 12,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, 1e-160, 1e160, 1e300]),
)
pair = st.one_of(
    st.lists(numbers, min_size=2, max_size=2),
    st.lists(numbers, min_size=2, max_size=2),
    st.lists(numbers, min_size=0, max_size=3),
)
scalars = st.fixed_dictionaries({"e1": pair, "e2": pair}) | st.fixed_dictionaries(
    {"w": st.lists(numbers, min_size=3, max_size=5)}
)


@st.composite
def vectors(draw, dim=None):
    n = dim if dim is not None else draw(st.integers(min_value=1, max_value=4))
    doc = {
        "e1": draw(st.lists(pair, min_size=n, max_size=n)),
        "e2": draw(st.lists(pair, min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        doc["dim"] = draw(st.one_of(st.just(n), st.just(n), st.integers(-1, 5), st.text(max_size=3)))
    return doc


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=rows, max_value=4))
    entry = st.lists(numbers, min_size=2, max_size=2)
    grid = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    doc = {"e1": draw(grid), "e2": draw(grid)}
    if draw(st.booleans()):
        doc["rows"], doc["cols"] = rows, draw(st.one_of(st.just(cols), st.just(cols), numbers))
    return doc


series = st.lists(vectors(dim=2), min_size=0, max_size=6) | st.fixed_dictionaries(
    {"kind": st.just("geometric"), "ratio": scalars, "seed_vector": vectors(dim=2)}
)
anything = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def maybe(strategy):
    """Mostly the near-valid shape, sometimes arbitrary JSON."""
    return st.one_of(strategy, strategy, strategy, anything)


#: subcommand -> (file options with their input strategies, fixed options)
SUBCOMMANDS = {
    "knorm": ({"--scalar": scalars}, []),
    "inv": ({"--scalar": scalars}, []),
    "norm": ({"--vector": vectors()}, []),
    "opnorm": ({"--matrix": matrices()}, []),
    "solve": ({"--matrix": matrices(), "--y": vectors()}, []),
    "omc": ({"--matrix": matrices()}, []),
    "series": ({"--terms": series}, ["--maxN", "40", "--abs-check"]),
    "zabreiko": ({"--matrix": matrices(), "--x": vectors()}, ["--m", "50,50", "--r", "1", "--eps", "1,1", "--maxN", "20"]),
    "ubp": ({"--family": st.lists(matrices(), min_size=0, max_size=3)}, ["--samples", "4"]),
    "omt-verify": ({"--matrix": matrices()}, ["--trials", "4"]),
    "lemma31": ({"--matrix": matrices()}, ["--trials", "4"]),
    "subadd": ({"--matrix": matrices(), "--terms": series}, ["--maxN", "40"]),
    "ballscale": ({"--matrix": matrices()}, ["--samples", "4"]),
}


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def fuzz_case(name):
    files, fixed = SUBCOMMANDS[name]
    strategy = st.fixed_dictionaries({opt: maybe(s) for opt, s in files.items()})

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(docs=strategy)
    def case(docs):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [name]
            for k, (opt, doc) in enumerate(docs.items()):
                path = os.path.join(tmp, f"in{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                argv += [opt, path]
            code, out = run_in_process(argv + fixed)
        assert code in range(6)
        lines = out.splitlines()
        assert len(lines) == 1 and out.endswith("\n")
        env = json.loads(lines[0])
        assert env["subcommand"] == name
        assert env["pass"] is (code == 0)

    return case


for _name in SUBCOMMANDS:
    globals()[f"test_fuzz_{_name.replace('-', '_')}"] = fuzz_case(_name)
