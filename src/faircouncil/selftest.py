"""Cross-module invariant checks, runnable from the command line.

Each check recomputes a structural identity through two routes (brute-force
enumeration against the structured evaluator, identity against definition,
sampler against exact law) and reports one line. Used by ``faircouncil
selftest`` to guard installations; the pytest suite covers the same ground
in finer grain.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import estimators, meanfield
from .commonbelief import distribution_distance, margin_bound_check
from .core import CommonBelief, Independent, MeanField, RngStream, margin, q_margin
from .measures import (
    MOMENT_NATS,
    DiscreteSymmetric,
    PointMassZero,
    UniformSymmetric,
    _gibbs_half,
    belief_to_field,
    field_to_belief,
    magnetization_pmf,
    pmf_exact,
    state_law,
    totals_sampler,
)
from .weights import CouncilSpec, delta, optimal_weights, verify_minimizer


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _models():
    return [
        ("independent", Independent()),
        ("belief:point_mass", CommonBelief(PointMassZero())),
        ("belief:uniform(1)", CommonBelief(UniformSymmetric(1.0))),
        ("belief:atoms(0.4)", CommonBelief(DiscreteSymmetric([(-0.4, 0.5), (0.4, 0.5)]))),
        ("meanfield(0)", MeanField(0.0)),
        ("meanfield(0.7)", MeanField(0.7)),
        ("meanfield(1.5)", MeanField(1.5)),
    ]


def _all_outcomes(n):
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int8)


def _check_outcome_primitives():
    rng = RngStream(99).generator()
    for _ in range(64):
        n = int(rng.integers(1, 40))
        votes = 2 * rng.integers(0, 2, n) - 1
        m = margin(votes)
        yes = int(np.count_nonzero(votes == 1))
        if m != abs(2 * yes - n):
            return False, f"margin mismatch at n={n}"
        if abs(q_margin(votes, 0.5 + 1e-12) - m) > 1e-9 * n:
            return False, f"q-margin limit mismatch at n={n}"
    return True, ""


def _check_pmf_structure():
    for label, model in _models():
        for n in range(1, 9):
            outcomes = _all_outcomes(n)
            probs = np.array([pmf_exact(model, o) for o in outcomes])
            if abs(probs.sum() - 1.0) > 1e-10:
                return False, f"{label} n={n}: pmf sums to {probs.sum()!r}"
            flipped = np.array([pmf_exact(model, -o) for o in outcomes])
            if np.max(np.abs(probs - flipped)) > 1e-14:
                return False, f"{label} n={n}: sign-flip symmetry broken"
    for n in range(1, 9):
        for model in (MeanField(0.0), CommonBelief(PointMassZero())):
            p = pmf_exact(model, np.ones(n, dtype=np.int8))
            if abs(p - 0.5**n) > 1e-14:
                return False, f"reduction to independent broken at n={n}"
    return True, ""


def _check_magnetization_vs_enumeration():
    n = 12
    outcomes = _all_outcomes(n)
    totals = outcomes.sum(axis=1, dtype=np.int64)
    for j in (0.3, 1.0, 2.0):
        probs = np.array([pmf_exact(MeanField(j), o) for o in outcomes])
        pmf = magnetization_pmf(j, n)
        for idx, s in enumerate(pmf.support):
            direct = float(probs[totals == s].sum())
            if abs(direct - pmf.probs[idx]) > 1e-10:
                return False, f"J={j} s={s}: {direct!r} vs {pmf.probs[idx]!r}"
    return True, ""


def _check_moment_window():
    for j, n in ((0.5, 10**5), (1.0, 10**6), (1.5, 10**5 + 1)):
        law = magnetization_pmf(j, n)
        spins, mass = law.window()
        full = [float(np.sum(np.abs(spins.astype(float)) ** p * mass)) for p in (1, 2)]
        if not np.allclose([law.abs_moment(1), law.abs_moment(2)], full, rtol=1e-15, atol=0.0):
            return False, f"J={j} n={n}: the moments differ from the full window's {full!r}"
        half = _gibbs_half(j, n, MOMENT_NATS)[1]
        if not math.log(half.max() / half[-1]) >= MOMENT_NATS:
            return False, f"J={j} n={n}: the moment window ends short of {MOMENT_NATS} nats"
    return True, ""


def _check_sign_identity():
    for label, model in _models():
        for n in (3, 6, 8):
            outcomes = _all_outcomes(n)
            probs = np.array([pmf_exact(model, o) for o in outcomes])
            totals = outcomes.sum(axis=1, dtype=np.int64).astype(float)
            chi = np.where(totals > 0, 1.0, -1.0)
            mean_spin = float(np.dot(probs, totals))
            s_chi = float(np.dot(probs, totals * chi))
            abs_s = float(np.dot(probs, np.abs(totals)))
            if abs(mean_spin) > 1e-12:
                return False, f"{label} n={n}: E S = {mean_spin!r}"
            if abs(s_chi - abs_s) > 1e-12:
                return False, f"{label} n={n}: E(S chi) = {s_chi!r} != E|S| = {abs_s!r}"
    return True, ""


def _check_moments_vs_bruteforce():
    for label, model in _models():
        for n in (5, 8):
            outcomes = _all_outcomes(n)
            probs = np.array([pmf_exact(model, o) for o in outcomes])
            totals = outcomes.sum(axis=1, dtype=np.int64)
            law = state_law(model, n)
            exact = (estimators.expected_margin_exact(model, n).value,
                     law.abs_moment(power=2), law.prob_of(0))
            brute = (probs @ np.abs(totals), probs @ totals**2, probs @ (totals == 0))
            for name, b, e in zip(("E|S|", "E S^2", "P(S=0)"), brute, exact):
                if abs(b - e) > 1e-9:
                    return False, f"{label} n={n} {name}: {b!r} vs {e!r}"
    for m in (3, 8, 40):
        closed = 2 * m * math.comb(2 * m, m) / 4.0**m
        exact = estimators.expected_margin_exact(Independent(), 2 * m).value
        if abs(closed - exact) > 1e-9:
            return False, f"central-binomial closed form broken at n={2*m}"
    return True, ""


def _check_uniform_closed_form():
    # K is uniform on 0..n under Uniform(1), so E|S| is (n + 1)/2 for odd n
    # and n (n + 2)/(2 (n + 1)) for even n
    for n in (2, 101, 1000, 10**7, 10**9):
        closed = (n + 1) / 2 if n % 2 else n * (n + 2) / (2 * (n + 1))
        exact = estimators.expected_margin_exact(CommonBelief(UniformSymmetric(1.0)), n).value
        if abs(exact - closed) > 1e-12 * closed:
            return False, f"Uniform(1) n={n}: E|S| = {exact!r}, closed form {closed!r}"
    return True, ""


def _check_fixed_point():
    prev = 0.0
    for j in (1.01, 1.1, 1.5, 2.0, 5.0, 10.0):
        c = meanfield.solve_cj(j)
        if abs(math.tanh(j * c) - c) > 1e-12:
            return False, f"residual too large at J={j}"
        if not c > prev:
            return False, f"C(J) not increasing at J={j}"
        prev = c
    return True, ""


def _check_deficit_routes():
    council = CouncilSpec([("a", 1, Independent()),
                           ("b", 3, Independent()),
                           ("c", 5, MeanField(0.8))])
    w = optimal_weights(council)
    exact = delta(council, w, mode="exact").value
    semi = delta(council, w, mode="semi_exact").value
    if abs(exact - semi) > 1e-10:
        return False, f"semi-exact {semi!r} vs exact {exact!r}"
    even = CouncilSpec([("a", 2, Independent()), ("b", 2, Independent())])
    exact = delta(even, [1.0, 1.0], mode="exact").value
    semi = delta(even, [1.0, 1.0], mode="semi_exact").value
    if abs(exact - semi) > 1e-10:
        return False, f"tied states: semi-exact {semi!r} vs exact {exact!r}"
    report = verify_minimizer(council, w, step=0.1)
    if not report.ok:
        return False, f"minimizer violated: {report.violations()!r}"
    return True, ""


def _check_belief_bounds():
    beliefs = [PointMassZero(), UniformSymmetric(1.0), UniformSymmetric(0.5),
               DiscreteSymmetric([(-0.5, 0.5), (0.5, 0.5)])]
    for belief in beliefs:
        last = None
        for n in (100, 1000):
            rep = margin_bound_check(belief, n)
            if not (rep.sandwich_ok and rep.coupling_ok):
                return False, f"{belief!r} n={n}: sandwich/coupling bound violated"
            dist = distribution_distance(belief, n)
            if dist > rep.bound:
                return False, f"{belief!r} n={n}: transport distance {dist!r} > {rep.bound!r}"
            if last is not None and not dist < last:
                return False, f"{belief!r}: distance not decreasing"
            last = dist
    return True, ""


def _check_monte_carlo():
    cases = [
        (Independent(), 100),
        (CommonBelief(UniformSymmetric(1.0)), 200),
        (MeanField(1.5), 200),
    ]
    for model, n in cases:
        exact = estimators.expected_margin_exact(model, n).value
        est = estimators.expected_margin_mc(model, n, 40_000, RngStream(1234), workers=4)
        if abs(est.value - exact) > 4.0 * est.std_error:
            return False, f"{model!r} n={n}: {est.value!r} vs {exact!r} (4 sigma)"
    council = CouncilSpec([("a", 1, Independent()), ("b", 3, Independent()),
                           ("c", 5, Independent())])
    w = optimal_weights(council)
    exact = delta(council, w, mode="exact").value
    mc = delta(council, w, mode="monte_carlo", trials=40_000, rng=RngStream(77), workers=2)
    if abs(mc.value - exact) > 4.0 * mc.std_error:
        return False, f"deficit MC {mc.value!r} vs exact {exact!r}"
    return True, ""


def _check_sampler_inverse_cdf():
    for j, n in ((0.0, 2), (0.7, 101), (1.0, 224_431), (2.0, 10_000)):
        spins, mass = magnetization_pmf(j, n).window()
        cdf = np.cumsum(mass)
        cdf /= cdf[-1]
        gen, ref = RngStream(5, n).generator(), RngStream(5, n).generator()
        drawn = totals_sampler(MeanField(j), n)(gen, 50_000)
        if not np.array_equal(drawn, spins[cdf.searchsorted(ref.random(50_000), side="right")]):
            return False, f"J={j} n={n}: draws differ from the inverse cdf"
        if gen.random() != ref.random():
            return False, f"J={j} n={n}: generator state differs from the inverse cdf"
    return True, ""


def _check_field_map():
    for z in (-0.99, -0.5, 0.0, 0.3, 0.7616, 0.999):
        if abs(field_to_belief(belief_to_field(z)) - z) > 1e-12:
            return False, f"field map roundtrip broken at {z}"
    return True, ""


CHECKS = (
    ("core.outcome_primitives", _check_outcome_primitives),
    ("measures.pmf_structure", _check_pmf_structure),
    ("measures.magnetization_enumeration", _check_magnetization_vs_enumeration),
    ("measures.field_map", _check_field_map),
    ("measures.sampler_inverse_cdf", _check_sampler_inverse_cdf),
    ("measures.moment_window", _check_moment_window),
    ("weights.sign_identity", _check_sign_identity),
    ("estimators.bruteforce_margins", _check_moments_vs_bruteforce),
    ("estimators.uniform_closed_form", _check_uniform_closed_form),
    ("meanfield.fixed_point", _check_fixed_point),
    ("weights.deficit_routes", _check_deficit_routes),
    ("commonbelief.bounds", _check_belief_bounds),
    ("estimators.monte_carlo", _check_monte_carlo),
)


def run_selftest():
    """Run every invariant check, printing one line per check; returns the
    list of results."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, don't hide, broken invariants
            ok, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name=name, ok=ok, detail=detail))
        print(f"ok   {name}" if ok else f"FAIL {name}: {detail}")
    return results
