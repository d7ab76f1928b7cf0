"""Seeded end-to-end check suite driven by the command line.

Every check draws its own instances from a named seed, compares the
closed-form calculus against the independent oracles, and reports a
pass/fail verdict with JSON-ready detail.  All randomness flows through
numpy Generators seeded from the suite seed, so reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    grad_cent,
    grad_exp,
    grad_f_inner,
    grad_reg,
    grad_total,
    hessian_cent,
    hessian_exp,
    hessian_total,
    loss_kernel_parts,
)
from .model import (
    ProblemInstance,
    loss_cent,
    loss_exp,
    loss_reg,
    make_state,
    state_losses,
)
from .newton import SolverConfig, solve
from .planted import GeneratorSpec, basin_start, generate_planted
from .verify import (
    convergence_audit,
    fd_gradient,
    fd_hessian,
    kernel_norm,
    lipschitz_probe,
    psd_check,
    rel_err,
    sandwich_check,
)

GRAD_TOL = 1e-6
HESS_TOL = 1e-4
CENT_FORM_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def random_instance(seed, n_max: int = 50, d_max: int = 10) -> tuple[ProblemInstance, np.ndarray]:
    """Small dense instance with ||A|| <= 2, b >= 0, ||x|| <= 2."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, min(d_max, n) + 1))
    a = rng.standard_normal((n, d))
    a *= rng.uniform(0.3, 2.0) / max(np.linalg.norm(a, 2), 1e-300)
    b = rng.uniform(0.0, 1.0, n)
    b *= rng.uniform(0.1, 2.0) / max(np.linalg.norm(b), 1e-300)
    w = rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 else np.zeros(n)
    x = rng.standard_normal(d)
    x *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(x), 1e-300)
    return ProblemInstance(a=a, b=b, w=w), x


def _term_losses(inst: ProblemInstance):
    """Finite-difference evaluator: ``(l_exp, l_cent, l_reg, total)`` per point.

    Every term of a stencil comes from one stacked state.
    """

    def evaluate(points):
        st = make_state(inst, points)
        terms = (
            loss_exp(st.f, inst.b),
            loss_cent(st.f, inst.b),
            loss_reg(inst, points),
            state_losses(inst, st).total,
        )
        return np.stack(terms, axis=-1)

    return evaluate


def check_gradients(seed: int, num_instances: int = 20) -> CheckResult:
    """Analytic gradients of every term against central finite differences."""
    worst = 0.0
    for i in range(num_instances):
        inst, x = random_instance([seed, i])
        state = make_state(inst, x)
        fd = fd_gradient(_term_losses(inst), x)
        analytic = (
            grad_exp(state, inst),
            grad_cent(state, inst),
            grad_reg(state, inst),
            grad_total(state, inst),
        )
        for k, grad in enumerate(analytic):
            worst = max(worst, rel_err(grad, fd[:, k]))
    return CheckResult(
        name="gradients",
        passed=worst <= GRAD_TOL,
        detail={"max_rel_err": worst, "tol": GRAD_TOL, "instances": num_instances},
    )


def check_hessians(seed: int, num_instances: int = 10) -> CheckResult:
    """Closed-form Hessians against finite differences and the entry formulas."""
    worst_fd = 0.0
    worst_form = 0.0
    for i in range(num_instances):
        inst, x = random_instance([seed, i], n_max=30, d_max=6)
        state = make_state(inst, x)
        h_cent = hessian_cent(state, inst)
        fd = fd_hessian(_term_losses(inst), x)
        worst_fd = max(
            worst_fd,
            rel_err(h_cent, fd[..., 1]),
            rel_err(hessian_exp(state, inst), fd[..., 0]),
            rel_err(hessian_total(state, inst), fd[..., 3]),
        )
        # Entrywise covariance formula, an independent path to A^T B A.
        bsum = float(inst.b.sum())
        entry = np.array(
            [[bsum * grad_f_inner(state, inst, r, c) for c in range(inst.d)] for r in range(inst.d)]
        )
        worst_form = max(worst_form, rel_err(h_cent, entry))
    passed = worst_fd <= HESS_TOL and worst_form <= CENT_FORM_TOL
    return CheckResult(
        name="hessians",
        passed=passed,
        detail={
            "max_rel_err_fd": worst_fd,
            "max_rel_err_entry_formula": worst_form,
            "tol_fd": HESS_TOL,
            "tol_entry_formula": CENT_FORM_TOL,
            "instances": num_instances,
        },
    )


def check_psd_recipe(seed: int, levels=(0.1, 1.0, 10.0)) -> CheckResult:
    """Ridge weights from the spectral recipe force eigmin(H) >= 0.99 level."""
    reports = []
    passed = True
    for k, level in enumerate(levels):
        spec = GeneratorSpec(n=20, d=5, ridge_l=level, seed=seed + 17 * k)
        inst, x_star = generate_planted(spec)
        rng = np.random.default_rng([seed, k])
        for probe in (x_star, basin_start(x_star, 0.3, rng), basin_start(x_star, 1.0, rng)):
            report = psd_check(hessian_total(make_state(inst, probe), inst), 0.99 * level)
            reports.append(report.to_dict())
            passed = passed and report.passed
    return CheckResult(name="psd", passed=passed, detail={"reports": reports})


def check_sandwich(seed: int) -> CheckResult:
    """Dominant ridge weights push W^2 within 1% of the shifted kernel.

    W^2 = 100 K + 1, with the kernel norm K from ``kernel_norm`` of the
    parts that also give the dense kernel, the path ``kernel_bound`` and the
    ridge recipe take.
    """
    inst0, x = random_instance(seed, n_max=20, d_max=5)
    parts = loss_kernel_parts(make_state(inst0, x), inst0)
    w2 = 100.0 * kernel_norm([parts]) + 1.0
    shifted = parts.dense() + w2 * np.eye(inst0.n)
    ok = sandwich_check(w2 * np.eye(inst0.n), shifted, 0.99, 1.01)
    return CheckResult(name="sandwich", passed=ok, detail={"w_squared": w2, "lo": 0.99, "hi": 1.01})


def check_lipschitz(seed: int, num_pairs: int = 5) -> CheckResult:
    """Hessian-difference ratios stay finite and stable across a distance ladder."""
    inst, _ = generate_planted(GeneratorSpec(n=15, d=4, ridge_l=1.0, seed=seed))
    distances = (1e-2, 1e-3, 1e-4)
    probe = lipschitz_probe(inst, radius_r=4.0, num_pairs=num_pairs, seed=seed, distances=distances)
    k = len(distances)
    passed = True
    spreads = []
    for g in range(num_pairs):
        ratios = [probe.pairs[g * k + j].ratio for j in range(k)]
        spread = max(ratios) / max(min(ratios), 1e-300)
        spreads.append(spread)
        passed = passed and np.isfinite(spread) and spread <= 2.0
    return CheckResult(
        name="lipschitz",
        passed=passed,
        detail={"max_spread": max(spreads), "report": probe.to_dict()},
    )


def check_convergence(seed: int, num_instances: int = 3) -> CheckResult:
    """Planted solves meet the convergence audit at epsilon = 1e-10."""
    epsilon = 1e-10
    audits = []
    for i in range(num_instances):
        inst, x_star = generate_planted(GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=seed + i))
        x0 = basin_start(x_star, 1e-3, [seed, i])
        trace = solve(inst, x0, SolverConfig(epsilon=epsilon, max_iters=40, seed=seed))
        audits.append(
            {
                "converged": trace.converged,
                "iterations": trace.iterations_run,
                "audit": convergence_audit(trace, epsilon),
            }
        )
    passed = all(a["audit"] for a in audits)
    return CheckResult(name="convergence", passed=passed, detail={"runs": audits})


_CHECKS = {
    "gradients": check_gradients,
    "hessians": check_hessians,
    "psd": check_psd_recipe,
    "sandwich": check_sandwich,
    "lipschitz": check_lipschitz,
    "convergence": check_convergence,
}

CHECK_NAMES = tuple(_CHECKS)


def run_suite(names, seed: int) -> list[CheckResult]:
    """Run the named checks in canonical order."""
    results = []
    for name in names:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}; available: {CHECK_NAMES}")
        results.append(_CHECKS[name](seed))
    return results
