"""Acceptance suite: one test per criterion, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -v -s`` to see per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import scipy.linalg

import softmaxopt as so
from softmaxopt.cli import main as cli_main
from softmaxopt.suite import random_instance


def verdict(num, name, ok, detail, started, budget_s):
    elapsed = time.perf_counter() - started
    line = (
        f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget_s:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget_s, line


def planted_suite(count=20, seed_base=300):
    out = []
    for s in range(count):
        inst, x_star = so.generate_planted(
            so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=seed_base + s)
        )
        x0 = so.basin_start(x_star, 1e-3, [seed_base, s])
        out.append((inst, x_star, x0))
    return out


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        inst, x = random_instance([1000, i])
        state = so.make_state(inst, x)
        checks = [
            (so.grad_exp(state, inst), lambda v: so.loss_exp(so.make_state(inst, v).f, inst.b)),
            (so.grad_cent(state, inst), lambda v: so.loss_cent(so.make_state(inst, v).f, inst.b)),
            (so.grad_reg(state, inst), lambda v: so.loss_reg(inst, v)),
            (so.grad_total(state, inst), lambda v: so.loss_total(inst, v).total),
        ]
        for analytic, evaluator in checks:
            worst = max(worst, so.rel_err(analytic, so.fd_gradient(evaluator, x, h=1e-5)))
    verdict(1, "gradient fidelity", worst <= 1e-6,
            f"max rel err {worst:.2e} <= 1e-06 over 100 instances", started, 30)


def test_criterion_2_hessian_fidelity():
    started = time.perf_counter()
    worst_fd = 0.0
    worst_form = 0.0
    for i in range(100):
        inst, x = random_instance([2000, i])
        state = so.make_state(inst, x)
        h_cent = so.hessian_cent(state, inst)
        h_exp = so.hessian_exp(state, inst)
        worst_fd = max(
            worst_fd,
            so.rel_err(h_cent, so.fd_hessian(
                lambda v: so.loss_cent(so.make_state(inst, v).f, inst.b), x)),
            so.rel_err(h_exp, so.fd_hessian(
                lambda v: so.loss_exp(so.make_state(inst, v).f, inst.b), x)),
        )
        # independent path to A^T B A: the per-entry covariance formula
        f = state.f
        bsum = float(inst.b.sum())
        entry = np.empty((inst.d, inst.d))
        for r in range(inst.d):
            for c in range(inst.d):
                cr, cc = inst.a[:, r], inst.a[:, c]
                entry[r, c] = bsum * (f @ (cr * cc) - (f @ cr) * (f @ cc))
        worst_form = max(worst_form, so.rel_err(h_cent, entry))
    ok = worst_fd <= 1e-4 and worst_form <= 1e-10
    verdict(2, "Hessian fidelity", ok,
            f"fd max rel err {worst_fd:.2e} <= 1e-04, kernel-congruence err "
            f"{worst_form:.2e} <= 1e-10", started, 60)


def test_criterion_3_softmax_invariants():
    started = time.perf_counter()
    worst_sum = 0.0
    worst_l1 = 0.0
    worst_l2 = 0.0
    checked = 0
    for i in range(100):
        inst, _ = random_instance([3000, i])
        rng = np.random.default_rng([3001, i])
        for _ in range(100):
            x = rng.standard_normal(inst.d)
            x *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(x), 1e-300)
            f = so.make_state(inst, x).f
            worst_sum = max(worst_sum, abs(float(f.sum()) - 1.0))
            worst_l1 = max(worst_l1, abs(float(np.abs(f).sum()) - 1.0))
            worst_l2 = max(worst_l2, float(np.linalg.norm(f)))
            checked += 1
    ok = worst_sum <= 1e-12 and worst_l1 <= 1e-12 and worst_l2 <= 1.0 + 1e-12
    verdict(3, "softmax invariants", ok,
            f"{checked} draws: |<f,1>-1| {worst_sum:.1e}, |l1-1| {worst_l1:.1e}, "
            f"l2 max {worst_l2:.12f}", started, 5)


def test_criterion_4_psd_recipe():
    started = time.perf_counter()
    levels = (0.1, 1.0, 10.0)
    worst_margin = np.inf
    ok = True
    for i in range(20):
        level = levels[i % 3]
        inst, x_star = so.generate_planted(
            so.GeneratorSpec(n=20, d=5, ridge_l=level, seed=4000 + i)
        )
        rng = np.random.default_rng([4001, i])
        for probe in (x_star, so.basin_start(x_star, 0.3, rng), so.basin_start(x_star, 1.0, rng)):
            hess = so.hessian_total(so.make_state(inst, probe), inst)
            eigmin = float(np.linalg.eigvalsh(hess)[0])
            worst_margin = min(worst_margin, eigmin / level)
            ok = ok and eigmin >= 0.99 * level
    verdict(4, "PSD ridge recipe", ok,
            f"20 instances, l in {levels}: min eigmin/l = {worst_margin:.3f} >= 0.99",
            started, 30)


def test_criterion_5_newton_convergence():
    started = time.perf_counter()
    budget_iters = math.ceil(math.log2(1e-3 / 1e-10)) + 5
    assert budget_iters == 29
    ok = True
    worst_ratio = 0.0
    worst_iters = 0
    for inst, x_star, x0 in planted_suite():
        trace = so.solve(inst, x0, so.SolverConfig(epsilon=1e-10, max_iters=40))
        audited = so.convergence_audit(trace, 1e-10)
        errs = [rec.err_to_opt for rec in trace.iterates]
        ratios = [
            errs[t + 1] / errs[t] for t in range(len(errs) - 1) if errs[t] > 0.0
        ]
        worst_ratio = max(worst_ratio, max(ratios, default=0.0))
        worst_iters = max(worst_iters, trace.iterations_run)
        ok = ok and audited and trace.converged and errs[-1] <= 1e-10
        ok = ok and all(r <= 0.5 for r in ratios) and trace.iterations_run <= budget_iters
    verdict(5, "Newton convergence", ok,
            f"20 planted runs: max iters {worst_iters} <= {budget_iters}, "
            f"max err ratio {worst_ratio:.2e} <= 0.5", started, 10)


def test_criterion_6_sampled_hessian_guarantee():
    started = time.perf_counter()
    inst, x_star = so.generate_planted(so.GeneratorSpec(n=200, d=5, ridge_l=1.0, seed=6000))
    state = so.make_state(inst, so.basin_start(x_star, 0.05, 60))
    exact = so.hessian_total(state, inst)
    inside = 0
    for s in range(100):
        approx = so.approx_hessian(inst, state, 0.1, seed=s)
        gen = scipy.linalg.eigh(approx, exact, eigvals_only=True)
        inside += bool(gen[0] >= 0.9 and gen[-1] <= 1.1)
    audits = 0
    for inst_p, _, x0 in planted_suite():
        cfg = so.SolverConfig(epsilon=1e-10, max_iters=40, mode="sampled", seed=6001)
        trace = so.solve(inst_p, x0, cfg)
        audits += bool(trace.converged and so.convergence_audit(trace, 1e-10))
    ok = inside >= 95 and audits >= 18
    verdict(6, "sampled-Hessian guarantee", ok,
            f"spectral window hit on {inside}/100 seeds (need >= 95); sampled solves "
            f"audited on {audits}/20 (need >= 18)", started, 60)


def test_criterion_7_hessian_lipschitz_probe():
    started = time.perf_counter()
    distances = (1e-2, 1e-3, 1e-4)
    ok = True
    worst_spread = 0.0
    for seed in (7000, 7001):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=seed))
        probe = so.lipschitz_probe(inst, radius_r=4.0, num_pairs=5, seed=seed, distances=distances)
        k = len(distances)
        for g in range(5):
            ratios = [probe.pairs[g * k + j].ratio for j in range(k)]
            ok = ok and all(np.isfinite(r) for r in ratios)
            spread = max(ratios) / min(ratios)
            worst_spread = max(worst_spread, spread)
            ok = ok and spread <= 2.0
    verdict(7, "Hessian-Lipschitz probe", ok,
            f"ratio spread across distances {distances}: max {worst_spread:.3f} <= 2",
            started, 30)


def test_criterion_8_nce_estimator():
    started = time.perf_counter()
    rng = np.random.default_rng(8000)
    ok = True
    # sign: never positive on random batches
    for _ in range(10_000):
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        batch = so.NceBatch(
            anchor=rng.standard_normal(p),
            positive=rng.standard_normal(q),
            negatives=tuple(rng.standard_normal(q) for _ in range(k - 1)),
            weight=rng.standard_normal((p, q)),
        )
        if so.nce_loss(batch) > 0.0:
            ok = False
            break
    # equal scores: exactly -log K
    worst_logk = 0.0
    for k in (1, 2, 5, 8):
        common = rng.standard_normal(4)
        batch = so.NceBatch(
            anchor=rng.standard_normal(3),
            positive=common,
            negatives=tuple(common.copy() for _ in range(k - 1)),
            weight=rng.standard_normal((3, 4)),
        )
        worst_logk = max(worst_logk, abs(so.nce_loss(batch) + math.log(k)))
    ok = ok and worst_logk <= 1e-12
    # gradients vs central differences
    h = 1e-6
    worst_grad = 0.0
    for i in range(100):
        gr = np.random.default_rng([8001, i])
        p = int(gr.integers(2, 17))
        q = int(gr.integers(2, 17))
        k = int(gr.integers(2, 9))
        batch = so.NceBatch(
            anchor=gr.standard_normal(p),
            positive=gr.standard_normal(q),
            negatives=tuple(gr.standard_normal(q) for _ in range(k - 1)),
            weight=0.5 * gr.standard_normal((p, q)),
        )
        gw, ga = so.nce_gradients(batch)
        fd_w = np.zeros_like(batch.weight)
        for r in range(p):
            for c in range(q):
                bump = np.zeros_like(batch.weight)
                bump[r, c] = h
                fd_w[r, c] = (
                    so.nce_loss(so.NceBatch(batch.anchor, batch.positive, batch.negatives, batch.weight + bump))
                    - so.nce_loss(so.NceBatch(batch.anchor, batch.positive, batch.negatives, batch.weight - bump))
                ) / (2 * h)
        fd_a = np.zeros_like(batch.anchor)
        for r in range(p):
            bump = np.zeros_like(batch.anchor)
            bump[r] = h
            fd_a[r] = (
                so.nce_loss(so.NceBatch(batch.anchor + bump, batch.positive, batch.negatives, batch.weight))
                - so.nce_loss(so.NceBatch(batch.anchor - bump, batch.positive, batch.negatives, batch.weight))
            ) / (2 * h)
        worst_grad = max(worst_grad, so.rel_err(gw, fd_w), so.rel_err(ga, fd_a))
    ok = ok and worst_grad <= 1e-6
    # paired experiment over 20 seeds
    results = [so.paired_vs_shuffled_bounds(s) for s in range(20)]
    margin = float(np.mean([c for c, _ in results]) - np.mean([u for _, u in results]))
    ok = ok and margin > 0.0
    verdict(8, "NCE estimator", ok,
            f"10^4 losses <= 0; equal-score dev {worst_logk:.1e} <= 1e-12; grad err "
            f"{worst_grad:.1e} <= 1e-06; paired margin {margin:.2f} > 0", started, 30)


def test_criterion_9_baseline_separation():
    started = time.perf_counter()
    eps = 1e-6
    ok = True
    tightest = None
    for inst, x_star, x0 in planted_suite():
        newton = so.solve(inst, x0, so.SolverConfig(epsilon=eps, max_iters=50))
        step = 1.0 / float(np.linalg.eigvalsh(so.hessian_total(so.make_state(inst, x0), inst))[-1])
        baseline = so.gradient_descent_baseline(inst, x0, step, 5000, epsilon=eps)

        def first_reach(trace):
            for rec in trace.iterates:
                if rec.err_to_opt is not None and rec.err_to_opt <= eps:
                    return rec.t
            return math.inf

        n_it, g_it = first_reach(newton), first_reach(baseline)
        ok = ok and g_it > n_it
        gap = g_it - n_it
        if tightest is None or gap < tightest[0]:
            tightest = (gap, n_it, g_it)
    verdict(9, "baseline separation", ok,
            f"gradient descent strictly slower on all 20 (tightest gap {tightest[0]}, "
            f"newton {tightest[1]} vs gd {tightest[2]})", started, 30)


def test_criterion_10_reproducibility(tmp_path):
    started = time.perf_counter()
    blobs = {"verify": [], "trace": [], "summary": []}
    for tag in ("a", "b"):
        report = tmp_path / f"verify_{tag}.json"
        code = cli_main(["verify", "--seed", "17", "--out", str(report)])
        assert code == 0
        blobs["verify"].append(report.read_bytes())
        trace = tmp_path / f"trace_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.json"
        code = cli_main(
            ["solve", "--n", "20", "--d", "5", "--ridge-l", "1.0", "--seed", "17",
             "--out", str(trace), "--summary", str(summary)]
        )
        assert code == 0
        blobs["trace"].append(trace.read_bytes())
        blobs["summary"].append(summary.read_bytes())
    ok = all(pair[0] == pair[1] for pair in blobs.values())
    verdict(10, "reproducibility", ok,
            "verify report, trace CSV and summary JSON byte-identical on rerun",
            started, 60)
