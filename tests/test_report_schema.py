"""Schema pins: the exact JSON of every report class and of the CLI
envelope, from hand-set fields.

Each report is built from literal field values, with no kernel run, so the
expected strings hold on every platform.  The values include -0.0, the
smallest subnormal 5e-324, empty lists and ``Columns`` views beside plain
lists of cone values.  A serializer that reorders, renames, drops or adds a
key, or formats a value differently, fails here.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import hyplab

from hyplab import (
    AbsSummabilityReport,
    BallScaleReport,
    BCVector,
    Columns,
    ContinuityReport,
    DPlus,
    Hyperbolic,
    OpenMapReport,
    OperatorNormReport,
    SeriesReport,
    SolveReport,
    SubaddReport,
    SurjectivityReport,
    UBPReport,
    ZabreikoTrace,
)
from hyplab.cli import _new_envelope
from hyplab.dmodule import Report
from hyplab.jsonio import dumps

TINY = 5e-324


def _reports():
    yield "continuity", ContinuityReport(
        check="lemma31",
        seed=-3,
        trials=1,
        alpha_star=DPlus(-0.0, TINY),
        all_ok=True,
        sequence_ok=False,
        witness_tight=True,
        worst_margin=Hyperbolic(-1.5, 0.1),
    ), (
        '{"check":"lemma31","seed":-3,"trials":1,"alpha_star":[-0.0,5e-324],'
        '"all_ok":true,"sequence_ok":false,"witness_tight":true,'
        '"worst_margin":[-1.5,0.1],"pass":false}'
    )
    yield "subadd", SubaddReport(
        check="subadd",
        n_terms=0,
        series_converged=True,
        partial_ok=True,
        limit_ok=True,
        worst_margin=Hyperbolic(-0.0, -TINY),
    ), (
        '{"check":"subadd","n_terms":0,"series_converged":true,"partial_ok":true,'
        '"limit_ok":true,"worst_margin":[-0.0,-5e-324],"pass":true}'
    )
    yield "ballscale", BallScaleReport(
        check="ballscale",
        seed=0,
        samples=2,
        r=-0.0,
        alpha=DPlus(1.0, 2.0),
        deltas=[],
        per_delta_ok=[],
        worst_margin=Hyperbolic(0.0, 0.0),
        closure_tol=TINY,
    ), (
        '{"check":"ballscale","seed":0,"samples":2,"r":-0.0,"alpha":[1.0,2.0],"deltas":[],'
        '"per_delta_ok":[],"worst_margin":[0.0,0.0],"closure_tol":5e-324,'
        '"pass":true}'
    )
    yield "ballscale-deltas", BallScaleReport(
        check="ballscale",
        seed=7,
        samples=1,
        r=0.5,
        alpha=DPlus(TINY, 1e308),
        deltas=[0.5, -0.0],
        per_delta_ok=[True, False],
        worst_margin=Hyperbolic(1e-300, -2.0),
        closure_tol=1e-9,
    ), (
        '{"check":"ballscale","seed":7,"samples":1,"r":0.5,'
        '"alpha":[5e-324,1e+308],"deltas":[0.5,-0.0],'
        '"per_delta_ok":[true,false],"worst_margin":[1e-300,-2.0],'
        '"closure_tol":1e-09,"pass":false}'
    )
    yield "ubp", UBPReport(
        check="ubp",
        seed=1,
        family_size=2,
        samples=1,
        sup_opnorm=DPlus(3.0, 0.25),
        bound_delta=DPlus(-0.0, TINY),
        all_bounds_ok=True,
        worst_margin=Hyperbolic(-0.0, 0.0),
    ), (
        '{"check":"ubp","seed":1,"family_size":2,"samples":1,"sup_opnorm":[3.0,0.25],'
        '"bound_delta":[-0.0,5e-324],"all_bounds_ok":true,"worst_margin":[-0.0,0.0],"pass":true}'
    )
    yield "ubp-empty", UBPReport(
        check="ubp",
        seed=1,
        family_size=0,
        samples=0,
        sup_opnorm=DPlus(0.0, 0.0),
        bound_delta=DPlus(0.0, 0.0),
        all_bounds_ok=False,
        worst_margin=Hyperbolic(0.0, 0.0),
    ), (
        '{"check":"ubp","seed":1,"family_size":0,"samples":0,'
        '"sup_opnorm":[0.0,0.0],"bound_delta":[0.0,0.0],"all_bounds_ok":false,'
        '"worst_margin":[0.0,0.0],"pass":false}'
    )
    yield "openmap", OpenMapReport(
        check="omt-verify",
        seed=2,
        trials=3,
        delta=DPlus(TINY, -0.0),
        solve_ok=True,
        bound_ok=True,
        witness_ok=False,
        witness_ratio=DPlus(1.0, 1.0),
        subadd_ok=True,
        worst_residual=DPlus(0.0, TINY),
        worst_margin=Hyperbolic(-1e-17, 2.5),
    ), (
        '{"check":"omt-verify","seed":2,"trials":3,"delta":[5e-324,-0.0],'
        '"solve_ok":true,"bound_ok":true,"witness_ok":false,"witness_ratio":[1.0,1.0],'
        '"subadd_ok":true,"worst_residual":[0.0,5e-324],'
        '"worst_margin":[-1e-17,2.5],"pass":false}'
    )
    yield "opnorm", OperatorNormReport(
        M=DPlus(-0.0, TINY),
        sigma_max=(-0.0, TINY),
        tol=1e-10,
    ), (
        '{"M":[-0.0,5e-324],"sigma_max":[-0.0,5e-324],'
        '"tol":1e-10}'
    )
    yield "solve", SolveReport(
        x=BCVector([complex(-0.0, TINY), 1 + 2j], [0j, complex(3.0, -0.0)]),
        qy=DPlus(TINY, -0.0),
        residual=DPlus(0.0, 0.0),
        tol=DPlus(1e-10, 1e-10),
    ), (
        '{"x":{"dim":2,"e1":[[-0.0,5e-324],[1.0,2.0]],"e2":[[0.0,0.0],[3.0,-0.0]]},'
        '"qy":[5e-324,-0.0],"residual":[0.0,0.0],'
        '"tol":[1e-10,1e-10]}'
    )
    yield "surjectivity", SurjectivityReport(
        surjective=False, rank_e1=0, rank_e2=3, rows=3, cols=5
    ), '{"surjective":false,"rank_e1":0,"rank_e2":3,"rows":3,"cols":5}'
    yield "series-bare", SeriesReport(
        n_terms=0,
        converged=False,
        limit=None,
        partial_norms=[],
        abs_sums=[],
        cauchy_margin=DPlus(-0.0, TINY),
        tol=DPlus(1e-12, 1e-12),
        window=3,
    ), (
        '{"n_terms":0,"converged":false,"limit":null,"partial_norms":[],"abs_sums":[],'
        '"cauchy_margin":[-0.0,5e-324],'
        '"tol":[1e-12,1e-12],"window":3}'
    )
    yield "series-full", AbsSummabilityReport(
        n_terms=2,
        converged=True,
        limit=BCVector([complex(-0.0, 0.5)], [complex(TINY, 0.0)]),
        partial_norms=Columns([[1.0, TINY], [-0.0, 2.0]]),
        abs_sums=Columns([[1.0, 1.5], [0.0, 2.0]]),
        cauchy_margin=DPlus(0.5, 0.5),
        tol=DPlus(0.25, 4.0),
        window=1,
        abs_converged=False,
        cauchy_chain_ok=True,
        chain_margin=Hyperbolic(-0.0, -TINY),
    ), (
        '{"n_terms":2,"converged":true,"limit":{"dim":1,"e1":[[-0.0,0.5]],'
        '"e2":[[5e-324,0.0]]},"partial_norms":[[1.0,-0.0],'
        '[5e-324,2.0]],"abs_sums":[[1.0,0.0],[1.5,2.0]],"cauchy_margin":[0.5,0.5],'
        '"tol":[0.25,4.0],"window":1,"abs_converged":false,"cauchy_chain_ok":true,'
        '"chain_margin":[-0.0,-5e-324]}'
    )
    yield "zabreiko", ZabreikoTrace(
        check="zabreiko",
        m=DPlus(50.0, 50.0),
        r=1.0,
        eps=DPlus(1.0, TINY),
        alpha_star=DPlus(-0.0, 2.0),
        x_norm=DPlus(0.5, 0.25),
        px=DPlus(TINY, 0.0),
        n_steps=1,
        capped=False,
        epsilons=Columns([[0.5, 0.02], [0.25, -0.0]]),
        x_terms=Columns(np.array([[[complex(-0.0, 0.5)]], [[complex(TINY, 1.0)]]])),
        remainders=Columns(np.array([[[0j]], [[complex(-TINY, -0.0)]]])),
        chain_exact=True,
        term_bounds_ok=True,
        remainder_bounds_ok=False,
        final_bound_ok=True,
        worst_term_margin=Hyperbolic(-0.0, -1.0),
        worst_remainder_margin=Hyperbolic(TINY, -TINY),
    ), (
        '{"check":"zabreiko","m":[50.0,50.0],"r":1.0,"eps":[1.0,5e-324],'
        '"alpha_star":[-0.0,2.0],"x_norm":[0.5,0.25],"px":[5e-324,0.0],'
        '"n_steps":1,"capped":false,"epsilons":[[0.5,0.25],[0.02,-0.0]],'
        '"x_terms":[{"dim":1,"e1":[[-0.0,0.5]],"e2":[[5e-324,1.0]]}],'
        '"remainders":[{"dim":1,"e1":[[0.0,0.0]],"e2":[[-5e-324,-0.0]]}],'
        '"chain_exact":true,"term_bounds_ok":true,"remainder_bounds_ok":false,'
        '"final_bound_ok":true,"worst_term_margin":[-0.0,-1.0],'
        '"worst_remainder_margin":[5e-324,-5e-324],'
        '"pass":false}'
    )
    envelope = _new_envelope("knorm")
    envelope.update(
        seed=-0,
        payload={"error": {"kind": "InvalidInput", "message": "bad \"x\""}, "r": -0.0},
    )
    yield "envelope", envelope, (
        '{"tool":"hyplab","version":"0.13.0","subcommand":"knorm","inputs_digest":"",'
        '"seed":0,"payload":{"error":{"kind":"InvalidInput","message":"bad \\"x\\""},'
        '"r":-0.0},"pass":false}'
    )


CASES = list(_reports())


def _pinned():
    return {type(report) for _, report, _ in CASES if not isinstance(report, dict)}


def test_every_report_class_is_pinned():
    assert len(_pinned()) == 11


def test_every_report_class_uses_the_one_encoder():
    modules = [importlib.import_module(f"hyplab.{m.name}") for m in pkgutil.iter_modules(hyplab.__path__)]
    encoders = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and hasattr(obj, "to_json_dict")
    }
    assert encoders == _pinned() | {Report}
    for cls in encoders:
        assert cls.to_json_dict is Report.to_json_dict, cls.__name__


@pytest.mark.parametrize("report,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_json_is_pinned(report, expected):
    doc = report if isinstance(report, dict) else report.to_json_dict()
    assert dumps(doc) == expected
