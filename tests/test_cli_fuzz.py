"""Fuzz every file-reading subcommand with JSON-shaped inputs and value flags.

Each run goes through ``cli.run`` in process.  Whatever the input, it must
end with an exit code of the 0-4 table, exactly one envelope on stdout that
is strict JSON (no NaN or Infinity token), no warning, and on stderr nothing
after a verdict (exit 0 or 1) and exactly one ``hyplab:`` line after a
rejection (exit 2-4).  The one exception is a number flag whose text is not
a number: argparse rejects it before any envelope exists, with exit 2 and
its usage message.

Inputs mix arbitrary JSON with near-valid scalars, vectors, matrices and
series whose numbers range from 0 to near the float limits.  The value
flags take valid values, NaN, infinities, -0.0, 1e308 and non-numeric
text.  Term caps (``--maxN``) and sample counts (``--trials``,
``--samples``) range over -3..50 and also take 10**12, 10**20 and 10**30:
a series or a check must reject such a cap or count before it sums a term
or allocates, and a Zabreiko trace ends by its step count.
Each subcommand gets only the flags it reads: ``--tol`` goes to
``opnorm``, ``solve`` and ``omc``, and ``--format`` (either form, or
absent) to the five subcommands that emit a scalar.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyplab.cli as cli

#: Examples per subcommand: 15, or the count of the ``fuzz-deep`` profile
#: (conftest.py) when that profile is loaded.
FUZZ_EXAMPLES = (
    settings.default.max_examples if settings.get_current_profile_name() == "fuzz-deep" else 15
)

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


#: texts a number flag or a literal component is fuzzed with
specials = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0", "1e308", "-1e308", "1e-320", "abc", ""])


def value(valid: str):
    """Mostly ``valid``, else a special number or non-numeric text."""
    return st.one_of(st.just(valid), st.just(valid), specials)


def literal(valid: str):
    """A hyperbolic literal "a1,a2" (or one value) built from ``value``."""
    parts = value(valid.split(",")[0])
    return st.one_of(
        st.just(valid),
        parts,
        st.builds(lambda a, b: f"{a},{b}", parts, parts),
        st.text(alphabet="0123456789.,-e", max_size=6),
    )


deltas = st.one_of(
    st.just("0.5,2"),
    st.lists(value("2"), min_size=0, max_size=4).map(",".join),
)
counts = (st.integers(min_value=-3, max_value=50) | st.sampled_from([10**12, 10**20, 10**30])).map(str)
caps = counts
tol = value("1e-10")
form = st.sampled_from(["idempotent", "cartesian", None])

#: subcommand -> (file options with their input strategies, value options)
SUBCOMMANDS = {
    "knorm": ({"--scalar": scalars}, {"--format": form}),
    "inv": ({"--scalar": scalars}, {"--format": form}),
    "norm": ({"--vector": vectors()}, {"--format": form}),
    "opnorm": ({"--matrix": matrices()}, {"--tol": tol, "--format": form}),
    "solve": ({"--matrix": matrices(), "--y": vectors()}, {"--tol": tol}),
    "omc": ({"--matrix": matrices()}, {"--tol": tol, "--format": form}),
    "series": (
        {"--terms": series},
        {"--maxN": caps, "--series-tol": literal("1e-12"), "--abs-check": st.booleans()},
    ),
    "zabreiko": (
        {"--matrix": matrices(), "--x": vectors()},
        {"--m": literal("50,50"), "--r": value("1"), "--eps": literal("1,1"), "--maxN": caps},
    ),
    "ubp": ({"--family": st.lists(matrices(), min_size=0, max_size=3)}, {"--samples": counts}),
    "omt-verify": ({"--matrix": matrices()}, {"--trials": counts}),
    "lemma31": ({"--matrix": matrices()}, {"--trials": counts}),
    "subadd": (
        {"--matrix": matrices(), "--terms": series},
        {"--maxN": caps, "--series-tol": literal("1e-12")},
    ),
    "ballscale": (
        {"--matrix": matrices()},
        {
            "--samples": counts,
            "--r": value("1"),
            "--alpha": st.none() | literal("100,100"),
            "--deltas": deltas,
        },
    ),
}

#: value options a subcommand cannot run without
REQUIRED = {"zabreiko": ("--m", "--r", "--eps")}

#: argparse's own rejection of a number flag whose text is not a number
USAGE_ERROR = re.compile(r"error: argument --[\w-]+: invalid (float|int) value: '.*'")


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.run(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _refuse(token):
    raise ValueError(f"non-JSON constant {token}")


def fuzz_case(name):
    files, values = SUBCOMMANDS[name]
    file_docs = st.fixed_dictionaries({opt: maybe(s) for opt, s in files.items()})
    required = {opt: values[opt] for opt in REQUIRED.get(name, ())}
    optional = {opt: s for opt, s in values.items() if opt not in required}
    flags = st.fixed_dictionaries(required, optional=optional)

    @settings(
        max_examples=FUZZ_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(docs=file_docs, opts=flags)
    def case(docs, opts):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [name]
            for k, (opt, doc) in enumerate(docs.items()):
                path = os.path.join(tmp, f"in{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                argv += [opt, path]
            for opt, text in opts.items():
                if text is True:
                    argv.append(opt)
                elif text not in (False, None):
                    argv.append(f"{opt}={text}")  # "-inf" alone reads as an option
            code, out, err, caught = run_in_process(argv)
        assert not caught, [str(w.message) for w in caught]
        assert code in range(5), err
        if out == "" and code == 2:
            assert USAGE_ERROR.search(err.splitlines()[-1]), err
            return
        lines = out.splitlines()
        assert len(lines) == 1 and out.endswith("\n")
        env = json.loads(lines[0], parse_constant=_refuse)
        assert env["subcommand"] == name
        assert env["pass"] is (code == 0)
        if code < 2:
            assert err == ""
        else:
            assert err.startswith("hyplab: ") and err.count("\n") == 1 and err.endswith("\n")

    return case


for _name in SUBCOMMANDS:
    globals()[f"test_fuzz_{_name.replace('-', '_')}"] = fuzz_case(_name)
