"""Value and report semantics: equality, hashes, reprs, immutability and
construction of the scalar values, ``DSeminorm`` and the reports.

The values are immutable and hashable, and a ``Hyperbolic`` equals the
``DPlus`` with the same components.  Reports are built from keyword fields,
compare field by field and are not hashable.  The strings here are the ones
users see in a REPL and in error messages.
"""

import copy
import pickle

import pytest

from hyplab import (
    AbsSummabilityReport,
    BCMatrix,
    Bicomplex,
    Columns,
    DPlus,
    DSeminorm,
    Hyperbolic,
    InvalidInput,
    SeriesReport,
    SurjectivityReport,
)

T = BCMatrix.identity(2)

#: (value, its repr, the tuple whose hash it has)
VALUES = [
    (Hyperbolic(1, -2.5), "Hyperbolic(1.0, -2.5)", (1.0, -2.5)),
    (DPlus(1, 2), "DPlus(a1=1.0, a2=2.0)", (1.0, 2.0)),
    (DPlus(-0.0, 5e-324), "DPlus(a1=-0.0, a2=5e-324)", (-0.0, 5e-324)),
    (Bicomplex(1, 2j), "Bicomplex((1+0j), 2j)", (1 + 0j, 2j)),
    (DSeminorm(T), "DSeminorm(T=BCMatrix(rows=2, cols=2))", (T,)),
]
IDS = [r for _, r, _ in VALUES]


@pytest.mark.parametrize("value, text, key", VALUES, ids=IDS)
def test_value_repr_and_hash(value, text, key):
    assert repr(value) == text
    assert hash(value) == hash(key)


@pytest.mark.parametrize("value", [v for v, _, _ in VALUES], ids=IDS)
def test_value_is_immutable(value):
    for name in ("a1", "a2", "z1", "z2", "T"):
        if hasattr(value, name):
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.other = 1


@pytest.mark.parametrize("value", [v for v, _, _ in VALUES[:-1]], ids=IDS[:-1])
def test_value_survives_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_value_equality():
    assert Hyperbolic(1, 2) == Hyperbolic(1.0, 2.0) != Hyperbolic(1, 3)
    assert Hyperbolic(0.0, 1) == Hyperbolic(-0.0, 1)
    # the same algebra element, whichever side is the cone value
    assert Hyperbolic(1, 2) == DPlus(1, 2) and DPlus(1, 2) == Hyperbolic(1, 2)
    assert not Hyperbolic(1, 2) != DPlus(1, 2)
    assert len({Hyperbolic(1, 2), DPlus(1, 2)}) == 1
    assert Hyperbolic(1, 2) != (1.0, 2.0) and DPlus(1, 2) != [1.0, 2.0]
    assert Bicomplex(1, 2) == Bicomplex(1 + 0j, 2.0) != Bicomplex(1, 2j)
    assert Bicomplex(1, 2) != Hyperbolic(1, 2) and Hyperbolic(1, 2) != Bicomplex(1, 2)
    # an operator compares by identity, so a seminorm does too
    assert DSeminorm(T) == DSeminorm(T) != DSeminorm(BCMatrix.identity(2))


def test_value_construction_is_checked():
    with pytest.raises(InvalidInput, match=r"^cone violation: DPlus components must be nonnegative, got \(1\.0, -0\.5\)$"):
        DPlus(1, -0.5)
    with pytest.raises(InvalidInput, match=r"^non-finite component nan rejected$"):
        DPlus(float("nan"), -1.0)
    with pytest.raises(InvalidInput, match=r"^non-finite component inf rejected$"):
        Bicomplex(complex(1, float("inf")), 0)
    assert type(DPlus(1, 2).a1) is float and type(Bicomplex(1, 2).z1) is complex


def test_a_cone_value_runs_one_constructor(monkeypatch):
    """Building a ``DPlus`` runs one ``__init__`` of the class tree, so a
    count of constructor calls is a count of values."""
    calls = []
    for cls in (Hyperbolic, DPlus):
        init = cls.__dict__.get("__init__")
        if init is not None:
            def counted(self, *args, _init=init, **kwargs):
                calls.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
    DPlus(1, 2)
    Hyperbolic(1, 2)
    assert calls == ["DPlus", "Hyperbolic"]


SURJ = dict(surjective=True, rank_e1=1, rank_e2=2, rows=2, cols=3)
SERIES = dict(
    n_terms=1,
    converged=True,
    limit=None,
    partial_norms=Columns([[1.0], [2.0]]),
    abs_sums=Columns([[1.0], [2.0]]),
    cauchy_margin=DPlus(0.5, 0.5),
    tol=DPlus(1e-12, 1e-12),
    window=3,
)


def test_report_keyword_construction_and_repr():
    rep = SurjectivityReport(**SURJ)
    assert [getattr(rep, k) for k in SURJ] == list(SURJ.values())
    assert repr(rep) == "SurjectivityReport(surjective=True, rank_e1=1, rank_e2=2, rows=2, cols=3)"
    assert list(rep.to_json_dict()) == list(SURJ)


def test_report_field_order_follows_the_class_tree():
    extra = dict(abs_converged=True, cauchy_chain_ok=False, chain_margin=Hyperbolic(-1, 0))
    rep = AbsSummabilityReport(**extra, **SERIES)  # keyword order does not matter
    assert list(rep.to_json_dict()) == [*SERIES, *extra]
    assert repr(rep).startswith("AbsSummabilityReport(n_terms=1, converged=True, limit=None, partial_norms=")
    assert repr(rep).endswith(
        "window=3, abs_converged=True, cauchy_chain_ok=False, chain_margin=Hyperbolic(-1.0, 0.0))"
    )


def test_report_rejects_a_missing_or_unknown_field():
    with pytest.raises(TypeError):
        SurjectivityReport(**{k: v for k, v in SURJ.items() if k != "cols"})
    with pytest.raises(TypeError):
        SurjectivityReport(**SURJ, extra=1)
    with pytest.raises(TypeError):
        AbsSummabilityReport(**SERIES)  # its own three fields missing


def test_report_equality_and_unhashability():
    a, b = SurjectivityReport(**SURJ), SurjectivityReport(**SURJ)
    assert a == b and not a != b
    assert a != SurjectivityReport(**{**SURJ, "cols": 4})
    assert a != dict(SURJ)
    assert SeriesReport(**SERIES) == SeriesReport(**SERIES)
    with pytest.raises(TypeError):
        hash(a)
    a.rows = 5  # reports are plain records, not frozen
    assert a != b and a.rows == 5
