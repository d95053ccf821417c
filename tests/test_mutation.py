"""Mutation gauge of the frame assembly's outputs (ROADMAP item 14b).

Each mutant wraps ``frames._assemble`` and changes one field of what it
returns, τ, κ′ or τ′, then clears the one-entry frame cache and runs
``run_validation(samples=32)`` on the default curves.  A mutant is caught
when a row that passes on the unmutated library fails; a run that raises
catches nothing.  The gauge prints the smallest relative scaling ε of each
field that some row catches, so that a change to the oracle or the
tolerances shows what the suite can see.
"""

import pytest

from modframe import frames, validation
from modframe.errors import NonConstantCurvature

# Where each field sits in what _assemble returns: T, N, B, kappa, tau, kappa', tau'.
FIELDS = {"tau": 4, "kappa_prime": 5, "tau_prime": 6}
EPSILONS = (1e-4, 1e-5, 1e-6)
_caught = {}  # (field, eps) -> rows caught, shared by the tests below


@pytest.fixture(scope="module")
def passing():
    frames.modified_frame.cache_clear()
    report = validation.run_validation(samples=32)
    return {e.name for e in report.entries if e.passed and e.n_evaluated}


def _rows_failed(monkeypatch, passing, field, change) -> list[str]:
    real = frames._assemble

    def mutant(*derivatives):
        out = list(real(*derivatives))
        out[FIELDS[field]] = change(out[FIELDS[field]])
        return tuple(out)

    with monkeypatch.context() as m:
        m.setattr(frames, "_assemble", mutant)
        frames.modified_frame.cache_clear()
        try:
            report = validation.run_validation(samples=32)
        finally:
            frames.modified_frame.cache_clear()  # no mutant frame outlives the run
    return sorted(e.name for e in report.entries if e.name in passing and not e.passed)


def _scaled(monkeypatch, passing, field, eps) -> list[str]:
    if (field, eps) not in _caught:
        _caught[field, eps] = _rows_failed(monkeypatch, passing, field,
                                          lambda value: value * (1.0 + eps))
    return _caught[field, eps]


@pytest.mark.parametrize("field", FIELDS)
def test_scaled_field_is_caught(monkeypatch, passing, field):
    assert _scaled(monkeypatch, passing, field, 1e-4)


def test_smallest_scaling_caught(monkeypatch, passing, capsys):
    lines = []
    for field in FIELDS:
        caught = [eps for eps in EPSILONS if _scaled(monkeypatch, passing, field, eps)]
        smallest = f"{min(caught):g}" if caught else "none"
        lines.append(f"MUTATION {field} x (1 + eps): smallest eps caught {smallest} "
                     f"of {', '.join(f'{e:g}' for e in EPSILONS)}")
    with capsys.disabled():  # past pytest's capture, like the ACCEPT lines
        print("\n" + "\n".join(lines))


@pytest.mark.xfail(strict=True, raises=NonConstantCurvature, reason=(
    "ROADMAP item 14c: a kappa' above the Darboux gate on a curve that declares "
    "constant kappa makes run_validation raise instead of failing a row"))
def test_offset_kappa_prime_fails_a_row(monkeypatch, passing):
    assert _rows_failed(monkeypatch, passing, "kappa_prime", lambda value: value + 1e-5)
