"""Mutation gauge of the frame assembly's outputs and of the indicatrix
closed forms (ROADMAP item 14b).

Each field mutant wraps ``frames._assemble`` and changes one field of what
it returns, τ, κ′ or τ′; each form mutant replaces one closed form of a
``KINDS`` row.  The gauge then clears the one-entry frame cache and runs
``run_validation(samples=32)`` on the default curves.  A mutant is caught
when a row that passes on the unmutated library fails; a run that raises
catches nothing.  The gauge prints the smallest relative scaling ε of each
field and form that some row catches, so that a change to the oracle or
the tolerances shows what the suite can see.
"""

import numpy as np
import pytest

from modframe import frames, indicatrix, validation
from modframe.errors import ModFrameError
from modframe.indicatrix import IndicatrixKind

# Where each field sits in what _assemble returns: T, N, B, kappa, tau, kappa', tau'.
FIELDS = {"tau": 4, "kappa_prime": 5, "tau_prime": 6}
# The closed forms of a KINDS row, each a function of the frame.
FORMS = [(kind, form) for kind in IndicatrixKind
         for form in ("point", "rate", "tangent", "cov", "gamma")]
EPSILONS = (1e-4, 1e-5, 1e-6)
_caught = {}  # (mutant, eps) -> rows caught or the error raised, shared by the tests below


@pytest.fixture(scope="module")
def passing():
    frames.modified_frame.cache_clear()
    report = validation.run_validation(samples=32)
    return {e.name for e in report.entries if e.passed and e.n_evaluated}


def _rows_failed(monkeypatch, passing, patch) -> list[str]:
    # The passing rows that fail under patch(m), m a monkeypatch context.
    with monkeypatch.context() as m:
        patch(m)
        frames.modified_frame.cache_clear()
        try:
            report = validation.run_validation(samples=32)
        finally:
            frames.modified_frame.cache_clear()  # no mutant frame outlives the run
    return sorted(e.name for e in report.entries if e.name in passing and not e.passed)


def _field(field, change):
    real = frames._assemble

    def mutant(*derivatives):
        out = list(real(*derivatives))
        out[FIELDS[field]] = change(out[FIELDS[field]])
        return tuple(out)

    return lambda m: m.setattr(frames, "_assemble", mutant)


def _form(kind, form, replace):
    # KINDS[kind] with its ``form`` replaced by replace(real form)
    row = indicatrix.KINDS[kind]
    return lambda m: m.setitem(indicatrix.KINDS, kind,
                               row._replace(**{form: replace(getattr(row, form))}))


def _scaled(monkeypatch, passing, mutant, eps):
    """The passing rows that ``mutant`` (a field name or a (kind, form))
    scaled by 1 + eps fails, or the ModFrameError its run raises."""
    if (mutant, eps) not in _caught:
        scale = lambda value: value * (1.0 + eps)
        patch = (_field(mutant, scale) if mutant in FIELDS
                 else _form(*mutant, lambda real: lambda mf: scale(real(mf))))
        try:
            _caught[mutant, eps] = _rows_failed(monkeypatch, passing, patch)
        except ModFrameError as exc:
            _caught[mutant, eps] = exc
    return _caught[mutant, eps]


def _assert_caught(outcome):
    if isinstance(outcome, ModFrameError):
        raise outcome
    assert outcome


@pytest.mark.parametrize("field", FIELDS)
def test_scaled_field_is_caught(monkeypatch, passing, field):
    _assert_caught(_scaled(monkeypatch, passing, field, 1e-4))


# A scaled unit-sphere point leaves the sphere by eps: the determinant
# oracle refuses it, and geodesic-sphere-det fails by that distance.
@pytest.mark.parametrize("kind, form", FORMS, ids=lambda v: getattr(v, "value", v))
def test_scaled_form_is_caught(monkeypatch, passing, kind, form):
    _assert_caught(_scaled(monkeypatch, passing, (kind, form), 1e-4))


def test_smallest_scaling_caught(monkeypatch, passing, capsys):
    lines = []
    for mutant in [*FIELDS, *FORMS]:
        outcomes = {eps: _scaled(monkeypatch, passing, mutant, eps) for eps in EPSILONS}
        caught = [eps for eps, rows in outcomes.items()
                  if rows and not isinstance(rows, ModFrameError)]
        raised = {type(rows).__name__ for rows in outcomes.values()
                  if isinstance(rows, ModFrameError)}
        name = mutant if mutant in FIELDS else f"{mutant[0].value} {mutant[1]}"
        smallest = f"{min(caught):g}" if caught else "none"
        lines.append(f"MUTATION {name} x (1 + eps): smallest eps caught {smallest} "
                     f"of {', '.join(f'{e:g}' for e in EPSILONS)}"
                     + "".join(f" (raises {r})" for r in sorted(raised)))
    with capsys.disabled():  # past pytest's capture, like the ACCEPT lines
        print("\n" + "\n".join(lines))


def test_offset_kappa_prime_fails_a_row(monkeypatch, passing):
    # a kappa' above the Darboux gate, on curves that declare constant kappa
    assert _rows_failed(monkeypatch, passing, _field("kappa_prime", lambda value: value + 1e-5))


def _pole_cov_without_kappa(mf):
    # the pole covariant derivative with N term (|w|/phi')N, not (|w|/(phi' kappa))N
    d, k = mf.darboux, mf.kappa
    cphi, sphi = np.cos(d.phi), np.sin(d.phi)
    return (-sphi * mf.T.T - (cphi / k) * mf.B.T + (d.w_norm / d.phi_prime) * mf.N.T).T


# Forms off by a factor of kappa.  The pole rows and the phi' term of the
# normal geodesic curvature need constant kappa and tau' != 0, which among
# the defaults only salkowski(0.5) has, at kappa = 1.
KAPPA_FACTOR = {
    "pole gamma |w| kappa/|phi'|": (IndicatrixKind.POLE, "gamma", lambda mf: (
        mf.darboux.w_norm * mf.kappa / np.abs(mf.darboux.phi_prime))),
    "pole rate kappa phi'": (IndicatrixKind.POLE, "rate",
                             lambda mf: mf.kappa * mf.darboux.phi_prime),
    "pole cov (|w|/phi')N": (IndicatrixKind.POLE, "cov", _pole_cov_without_kappa),
    "normal gamma phi'/(kappa^2 |w|)": (IndicatrixKind.NORMAL, "gamma", lambda mf: np.hypot(
        mf.darboux.phi_prime / (mf.kappa**2 * mf.darboux.w_norm),
        (mf.kappa * mf.kappa - 1.0) / mf.kappa)),
}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 14a: no default curve has constant kappa != 1 and tau' != 0, "
    "so a form off by a factor of kappa passes every row"))
@pytest.mark.parametrize("mutant", KAPPA_FACTOR)
def test_kappa_factor_mutant_is_caught(monkeypatch, passing, mutant):
    kind, form, wrong = KAPPA_FACTOR[mutant]
    assert _rows_failed(monkeypatch, passing, _form(kind, form, lambda real: wrong))
