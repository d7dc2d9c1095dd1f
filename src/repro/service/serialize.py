"""Transport for questions: the service holds no list of them.

:func:`run_question` looks the name up in
:mod:`repro.questions.registry`, binds the raw params against the
declaration's schema (:func:`prepare`, which the API also calls before
it queues a job, and again before :func:`answer` runs it), asserts
convergence when the declaration asks for it (a non-convergent
snapshot degrades to a structured 422 instead of garbage rows), and runs the question in a coverage scope whose record
lands on the session asked about. What a question is — its params, its scope, its answer's JSON
shape — is the registry's; a rejected param leaves there as a
``ParamError``, which :func:`repro.service.errors.to_service_error`
turns into ``400 invalid_request`` naming the field.

:func:`settings_from_json` decodes the one request object that is not a
question's: the convergence settings of a snapshot-init body.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.questions import coverage as qcov
from repro.questions import registry
from repro.questions.params import (
    Param,
    ParamError,
    boolean,
    decode_object,
    integer,
    text,
)
from repro.questions.registry import Question
from repro.routing.engine import ConvergenceSettings
from repro.service.errors import UnknownQuestionError, to_service_error

#: The questions any caller may ask (debug aids left out), by name.
QUESTIONS: Dict[str, Question] = {
    name: declared
    for name, declared in registry.QUESTIONS.items()
    if not declared.debug
}

_SETTINGS_SCHEMA = {
    "schedule": Param(text),
    "use_logical_clocks": Param(boolean),
    "max_iterations": Param(integer(0)),
    "max_session_rounds": Param(integer(0)),
}


def settings_from_json(raw) -> ConvergenceSettings:
    """Convergence settings from the snapshot-init body."""
    return ConvergenceSettings(**decode_object(raw, _SETTINGS_SCHEMA))


def prepare(store, snapshot: str, question: str, params, debug: bool = False):
    """``(declaration, session, args)``, or whatever refuses a request
    before any analysis runs: an unknown question (debug aids count only
    when ``debug``), an unknown snapshot, a param that does not bind."""
    declared = registry.QUESTIONS.get(question)
    if declared is None or (declared.debug and not debug):
        raise UnknownQuestionError(
            f"unknown question {question!r}", available=sorted(QUESTIONS)
        )
    session = store.get(snapshot)
    try:
        return declared, session, registry.bind(declared, params, session.snapshot)
    except ParamError as error:
        raise to_service_error(error) from None


def run_question(
    store, snapshot: str, question: str, params: Optional[Dict] = None,
    debug: bool = False,
) -> Dict:
    """Execute one question against a stored snapshot.

    Raises :class:`ServiceError` subclasses for every modelled failure;
    anything else is mapped by the job layer.
    """
    return answer(store, prepare(store, snapshot, question, params, debug), params)


def answer(store, prepared, params: Optional[Dict]) -> Dict:
    """Run a question :func:`prepare` bound (``prepared``) on the
    session it opened."""
    declared, session, args = prepared

    def converged(opened):
        if declared.converged:
            opened.assert_converged()  # NotConvergedError -> structured 422
        return opened

    def run() -> Dict:
        return declared.run(
            converged(session), args, lambda name: converged(store.get(name))
        )

    if declared.debug:
        return run()
    # The run's touches become its record on the session it ran on,
    # which the delta engine later ranks against a delta.
    with qcov.recording(session, declared, params, args):
        return run()
