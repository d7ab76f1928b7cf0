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
    grad_reg,
    grad_total,
    hessian_cent,
    hessian_exp,
    hessian_total,
    loss_kernel_parts,
)
from .exceptions import DomainError
from .model import ProblemInstance, _require_seed, loss_cent, make_state, state_losses
from .newton import SolverConfig, solve
from .planted import RIDGE_HEADROOM, GeneratorSpec, basin_start, generate_planted
from .verify import (
    convergence_audit,
    fd_gradient,
    fd_hessian,
    lipschitz_probe,
    psd_check,
    rel_err,
    sandwich_check,
)

GRAD_TOL = 1e-6
HESS_TOL = 1e-4
CENT_FORM_TOL = 1e-10

# what each check draws per seed: instances, ridge levels or probe pairs
GRADIENT_INSTANCES = 20
HESSIAN_INSTANCES = 10
PSD_LEVELS = (0.1, 1.0, 10.0)
LIPSCHITZ_PAIRS = 5
CONVERGENCE_INSTANCES = 3


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

    Every term of a stencil comes from one stacked state, and all but the cross
    entropy (``loss_cent``) from one ``state_losses``: random instances enable every term.
    """

    def evaluate(points):
        st = make_state(inst, points)
        losses = state_losses(inst, st)
        terms = (losses.l_exp, loss_cent(st.f, inst.b), losses.l_reg, losses.total)
        return np.stack(terms, axis=-1)

    return evaluate


def check_gradients(seed: int) -> CheckResult:
    """Analytic gradients of every term against central finite differences."""
    worst = 0.0
    for i in range(GRADIENT_INSTANCES):
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
        detail={"max_rel_err": worst, "tol": GRAD_TOL, "instances": GRADIENT_INSTANCES},
    )


def check_hessians(seed: int) -> CheckResult:
    """Closed-form Hessians against finite differences and the entry formulas."""
    worst_fd = 0.0
    worst_form = 0.0
    for i in range(HESSIAN_INSTANCES):
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
        # Entrywise covariance formula <df/dx_r, A_c>, an independent path to A^T B A.
        f, cols, bsum = state.f, inst.a.T, float(inst.b.sum())
        entry = [[float(-(f @ a_r) * (f @ a_c) + f @ (a_r * a_c)) for a_c in cols] for a_r in cols]
        worst_form = max(worst_form, rel_err(h_cent, bsum * np.array(entry)))
    passed = worst_fd <= HESS_TOL and worst_form <= CENT_FORM_TOL
    return CheckResult(
        name="hessians",
        passed=passed,
        detail={
            "max_rel_err_fd": worst_fd,
            "max_rel_err_entry_formula": worst_form,
            "tol_fd": HESS_TOL,
            "tol_entry_formula": CENT_FORM_TOL,
            "instances": HESSIAN_INSTANCES,
        },
    )


def check_psd_recipe(seed: int) -> CheckResult:
    """Ridge weights from the spectral recipe force eigmin(H) >= 0.99 level."""
    reports = []
    passed = True
    for k, level in enumerate(PSD_LEVELS):
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

    W^2 = RIDGE_HEADROOM R + 1, with the kernel-norm bound R that the
    planted ridge takes, from the parts that also give the dense kernel.
    The 1% window holds only if ||D||_2 <= W^2 / 99, just above R, so the
    check also tests that R bounds the norm.
    """
    inst0, x = random_instance(seed, n_max=20, d_max=5)
    parts = loss_kernel_parts(make_state(inst0, x), inst0)
    w2 = RIDGE_HEADROOM * parts.norm_bound() + 1.0
    shifted = parts.dense() + w2 * np.eye(inst0.n)
    ok = sandwich_check(w2 * np.eye(inst0.n), shifted, 0.99, 1.01)
    return CheckResult(name="sandwich", passed=ok, detail={"w_squared": w2, "lo": 0.99, "hi": 1.01})


def check_lipschitz(seed: int) -> CheckResult:
    """Hessian-difference ratios stay finite and stable across a distance ladder."""
    inst, _ = generate_planted(GeneratorSpec(n=15, d=4, ridge_l=1.0, seed=seed))
    distances = (1e-2, 1e-3, 1e-4)
    probe = lipschitz_probe(inst, 4.0, num_pairs=LIPSCHITZ_PAIRS, seed=seed, distances=distances)
    k = len(distances)
    passed = True
    spreads = []
    for g in range(LIPSCHITZ_PAIRS):
        ratios = [probe.pairs[g * k + j].ratio for j in range(k)]
        spread = max(ratios) / max(min(ratios), 1e-300)
        spreads.append(spread)
        passed = passed and np.isfinite(spread) and spread <= 2.0
    return CheckResult(
        name="lipschitz",
        passed=passed,
        detail={"max_spread": max(spreads), "report": probe.to_dict()},
    )


def check_convergence(seed: int) -> CheckResult:
    """Planted solves meet the convergence audit at epsilon = 1e-10."""
    epsilon = 1e-10
    audits = []
    for i in range(CONVERGENCE_INSTANCES):
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
    """Run the named checks in the order given, once every name and the seed are checked."""
    _require_seed(seed)
    for name in names:
        if name not in _CHECKS:
            raise DomainError(f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}")
    return [_CHECKS[name](seed) for name in names]
