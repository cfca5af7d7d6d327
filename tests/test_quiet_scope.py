"""One quiet scope per run (torseform.expr.quiet): only the outermost of
nested scopes enters numpy's errstate, so a tape run or a row within a
check run enters none of its own.  The scope is left as it was entered
when a check raises, and outside any run a row still fails with
JetDomainError and without a numpy warning."""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

import torseform.expr as ex
import torseform.runner as runner
from torseform import (MetricField, VectorField, builtin_scene, classify, eval_float,
                       fit_torse_forming, parse)
from torseform.errors import DomainEvalError, JetDomainError, PreconditionError
from torseform.expr import _QUIET, Tape, quiet
from torseform.jets import call


@pytest.fixture
def errstates(monkeypatch):
    """The keyword arguments of every np.errstate that torseform makes from
    here on (numpy makes some of its own, as a module it imports lazily
    is loaded)."""
    made, errstate = [], np.errstate

    def recording(**kwargs):
        if sys._getframe(1).f_globals["__name__"].startswith("torseform"):
            made.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", recording)
    return made


def test_a_check_run_enters_numpy_errstate_once(monkeypatch, errstates):
    counts = {"runs": 0, "rows": 0}
    tape_run = Tape.run

    def counting_run(self, env):
        counts["runs"] += 1
        return tape_run(self, env)

    def counting(derivatives):
        def counted(*args):
            counts["rows"] += 1
            return derivatives(*args)
        return counted

    monkeypatch.setattr(Tape, "run", counting_run)
    # a tape binds each row when it is built, and the scene is built below
    for name, function in list(ex.FUNCTIONS.items()):
        monkeypatch.setitem(ex.FUNCTIONS, name, function._replace(
            derivatives=counting(function.derivatives)))
    runner.run(builtin_scene("rectifying-psi"), points=20)
    # frames, the induced metric and the fits run several tapes and rows
    # (the field's four divisions by one radius share its reciprocal)
    assert counts["runs"] >= 5 and counts["rows"] >= 8
    assert errstates == [{"all": "ignore"}]


def test_outside_a_run_each_tape_run_holds_its_own_scope(errstates):
    tape = Tape((parse("sin(x1)"),))
    eval_float(tape, {"x1": 0.5})
    assert errstates == [{"all": "ignore"}]
    with quiet():
        eval_float(tape, {"x1": 0.5})
        ex.row("exp", 1.0, 2)
    assert len(errstates) == 2


@pytest.mark.parametrize("error", [PreconditionError("held"), KeyError("escapes")],
                         ids=["caught-per-check", "escaping"])
def test_the_scope_is_left_when_a_check_raises(monkeypatch, error):
    seen = []

    def raising(ctx):
        seen.append((_QUIET.get(), np.geterr()["over"]))
        raise error

    before = np.geterr()
    monkeypatch.setitem(runner._CHECKS, "classify", raising)
    scene = builtin_scene("radial-r4")
    if isinstance(error, KeyError):
        with pytest.raises(KeyError, match="escapes"):
            runner.run(scene, points=10)
    else:
        assert runner.run(scene, points=10).checks[0].status == "n/a"
    assert seen == [(True, "ignore")]
    assert _QUIET.get() is False
    assert np.geterr() == before


@pytest.mark.parametrize("evaluate, error, reason", [
    (lambda: call("exp", 1000.0), JetDomainError, "exp is not finite at 1000.0"),
    (lambda: eval_float(parse("2*exp(x1)"), {"x1": 1000.0}), DomainEvalError,
     "exp is not finite at 1000.0 in subexpression 'exp(x1)'"),
], ids=["row", "tape-run"])
def test_outside_a_run_a_row_fails_without_a_warning(evaluate, error, reason):
    # a numpy warning would raise here, as under -W error::RuntimeWarning;
    # a tape run reports its row's JetDomainError as a DomainEvalError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error) as err:
            evaluate()
    assert str(err.value) == reason
    assert isinstance(err.value.__cause__ or err.value, JetDomainError)


OVERFLOWING = VectorField(["x1^300", "x2", "0"])   # |∇V| ~ 3e92 at (2, 1, 0.5)
BOX = [2.0, 1.0, 0.5] + np.random.default_rng(0).uniform(-0.01, 0.01, (50, 3))


@pytest.mark.parametrize("fit, result", [
    (lambda: fit_torse_forming(MetricField.euclidean(3), OVERFLOWING, (2.0, 1.0, 0.5)),
     lambda report: (report.verdict, report.residual_torse)),
    (lambda: classify(MetricField.euclidean(3), OVERFLOWING, list(BOX)),
     lambda scene: (scene.verdict, scene.witness_residual)),
], ids=["point", "box"])
def test_a_fit_outside_a_run_overflows_without_a_warning(fit, result):
    # products inside the fit overflow, and the fit judges them itself,
    # with the bits it gets within a run's scope
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outside = result(fit())
    with quiet():
        assert outside == result(fit())
