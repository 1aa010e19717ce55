"""Hypothesis profiles. The default profile keeps the random search. The
`explicit` profile runs only each property's `@example`s, so a test run with
`--hypothesis-profile=explicit` passes or fails the same way every time;
`tests/mutants.py` runs each mutant's tests under it."""

from hypothesis import Phase, settings

settings.register_profile("explicit", phases=[Phase.explicit])
