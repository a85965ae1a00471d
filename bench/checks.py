"""Correctness gates and closed-form references for the benchmark's outputs.

The closed forms are written here from the distributions' definitions,
not taken from the library (``Rician.mean()`` in particular is itself a
quadrature), so a wrong library value cannot vouch for itself.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "GROSS_FACTOR",
    "MC_Z_LIMIT",
    "split_spec",
    "family_mean",
    "closed_forms",
    "check_bounds",
    "check_references",
    "CheckTally",
]

# A closed-form deviation fails the gate only when it exceeds this many
# reported error bars: the error bars are known to understate heavy-tail
# truncation (counted in ``err_bar_misses``), but not by a factor of 10.
GROSS_FACTOR = 10.0
MC_Z_LIMIT = 6.0


def split_spec(spec):
    """``"nakagami:1.5,2"`` -> ``("nakagami", (1.5, 2.0))``."""
    family, _, rest = spec.partition(":")
    return family, tuple(float(p) for p in rest.split(","))


def family_mean(spec):
    family, p = split_spec(spec)
    if family == "exp":
        return 1.0 / p[0]
    if family == "uniform":
        return 0.5 * (p[0] + p[1])
    if family == "rayleigh":
        return p[0] * math.sqrt(math.pi / 2.0)
    if family == "nakagami":
        m, omega = p
        return math.exp(special.gammaln(m + 0.5) - special.gammaln(m)) * math.sqrt(omega / m)
    if family == "lognormal":
        return math.exp(p[0] + 0.5 * p[1] ** 2)
    if family == "rician":
        k, scale = p
        return scale * math.sqrt(math.pi / 2.0) * (
            (1.0 + k) * special.i0e(k / 2.0) + k * special.i1e(k / 2.0)
        )
    raise ValueError(f"no mean for {spec!r}")


def _product_coupled(fx, fy):
    """(comonotonic, countermonotonic) E[XY] where a closed form exists."""
    (fa, a), (fb, b) = split_spec(fx), split_spec(fy)
    if fa != fb:
        return None
    if fa == "exp":
        scale = 1.0 / (a[0] * b[0])
        return 2.0 * scale, (2.0 - math.pi ** 2 / 6.0) * scale
    if fa == "uniform":
        (l1, h1), (l2, h2) = a, b
        w1, w2 = h1 - l1, h2 - l2
        co = l1 * l2 + 0.5 * (l1 * w2 + l2 * w1) + w1 * w2 / 3.0
        counter = l1 * l2 + 0.5 * (l1 * w2 + w1 * l2) + w1 * w2 / 6.0
        return co, counter
    if fa == "lognormal":
        (m1, s1), (m2, s2) = a, b
        return math.exp(m1 + m2 + 0.5 * (s1 + s2) ** 2), math.exp(m1 + m2 + 0.5 * (s1 - s2) ** 2)
    return None


def closed_forms(cost, fx, fy):
    """Known values of E[c] for this query: {"comonotonic"|"countermonotonic"|"independent": v}."""
    name = cost.partition(":")[0]
    if name == "additive":
        total = family_mean(fx) + family_mean(fy)
        return {"comonotonic": total, "countermonotonic": total, "independent": total}
    if name == "product":
        out = {"independent": family_mean(fx) * family_mean(fy)}
        coupled = _product_coupled(fx, fy)
        if coupled is not None:
            out["comonotonic"], out["countermonotonic"] = coupled
        return out
    return {}


class CheckTally:
    """Running worst relative deviation and error-bar misses over a run."""

    def __init__(self):
        self.max_rel_dev = 0.0
        self.err_bar_misses = 0
        self.closed_form_checks = 0
        self.max_mc_z = 0.0

    def compare(self, truth, value, error, counts_miss):
        """Record one closed-form comparison; returns an error string on gross error."""
        dev = abs(value - truth)
        self.closed_form_checks += 1
        self.max_rel_dev = max(self.max_rel_dev, dev / abs(truth))
        if counts_miss and dev > error:
            self.err_bar_misses += 1
        if dev > GROSS_FACTOR * error + 1e-12 * abs(truth):
            return f"closed form {truth!r} vs {value!r} (error {error!r})"
        return None

    def mc_z(self, estimate, reference):
        z = abs(estimate.value - reference.value) / math.hypot(estimate.stderr, reference.error)
        self.max_mc_z = max(self.max_mc_z, z)
        if not z <= MC_Z_LIMIT:
            return f"Monte Carlo z = {z:.3g} against quadrature {reference.value!r}"
        return None


def check_bounds(query, result, tally):
    """Gate one ``BoundsResult``; returns a list of failure strings (empty if fine).

    Endpoints map to couplings by the reported classification: the lower
    bound of a submodular cost is the comonotonic value, of a
    supermodular one the countermonotonic value.
    """
    failures = []
    values = [result.lower, result.upper, result.lower_err, result.upper_err]
    if result.independent is not None:
        values.append(result.independent)
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite result {result!r}"]
    slack = result.lower_err + result.upper_err
    if result.lower > result.upper + slack:
        failures.append(f"lower {result.lower!r} > upper {result.upper!r} + errors")
    if result.independent is not None and not (
        result.lower - slack <= result.independent <= result.upper + slack
    ):
        failures.append(f"independent {result.independent!r} outside [lower, upper] +- errors")

    truth = closed_forms(query["cost"], query["fx"], query["fy"])
    if result.classification_used == "supermodular":
        roles = {"countermonotonic": ("lower", "lower_err"), "comonotonic": ("upper", "upper_err")}
    else:
        roles = {"comonotonic": ("lower", "lower_err"), "countermonotonic": ("upper", "upper_err")}
    for coupling, (field, err_field) in roles.items():
        if coupling in truth:
            msg = tally.compare(truth[coupling], getattr(result, field), getattr(result, err_field), True)
            if msg:
                failures.append(f"{field}: {msg}")
    if result.independent is not None and "independent" in truth:
        # BoundsResult carries no error for the independent value; its
        # quadrature uses the same tolerances as the endpoints, so the
        # endpoints' larger error stands in for it.
        err = max(result.lower_err, result.upper_err)
        msg = tally.compare(truth["independent"], result.independent, err, False)
        if msg:
            failures.append(f"independent: {msg}")
    return failures


def check_references(scenario, refs, tally):
    """Closed-form checks on the quadrature references of one Monte Carlo scenario.

    ``scenario`` is ``(cost, fx, fy)`` specs, ``refs`` maps each coupling
    to its ``Expectation``.
    """
    failures = []
    for coupling, value in closed_forms(*scenario).items():
        ref = refs[coupling]
        msg = tally.compare(value, ref.value, ref.error, coupling != "independent")
        if msg:
            failures.append(f"{coupling} reference: {msg}")
    return failures
