"""Questions (Lesson 5, §4.4): the analyses, one module per family, and
:mod:`repro.questions.registry`, which declares every question a front
end can ask — its name, params, scope and JSON answer — exactly once.

This package imports nothing on its own: ``repro.core.session`` builds
on the analysis modules and the registry builds on the session's
surface, so the registry is imported by name where it is needed.
"""
