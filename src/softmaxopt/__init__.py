"""Softmax-regression objectives, closed-form calculus, an approximate-Newton
solver, InfoNCE lower-bound estimators and independent verification oracles."""

from .calculus import (
    KernelParts,
    grad_cent,
    grad_exp,
    grad_f_dir,
    grad_f_inner,
    grad_log_f_dir,
    grad_reg,
    grad_total,
    hessian_cent,
    hessian_exp,
    hessian_log_f_entry,
    hessian_reg,
    hessian_total,
    loss_kernel_parts,
    total_kernel_parts,
)
from .landscape import (
    LandscapeGrid,
    average_grids,
    default_directions,
    landscape_grid,
)
from .model import (
    LossBreakdown,
    ModelState,
    ProblemInstance,
    evaluate_alpha,
    evaluate_f,
    evaluate_u,
    hadamard,
    log_softmax,
    loss_cent,
    loss_exp,
    loss_reg,
    loss_terms,
    loss_total,
    make_state,
    residual_exponential,
    residual_linear,
    residual_rescaled,
    residual_softmax,
    softmax,
)
from .nce import (
    NceBatch,
    ObjectiveWeights,
    bilinear_score,
    mi_lower_bound,
    nce_gradients,
    nce_loss,
    overall_objective,
    paired_vs_shuffled_bounds,
    sample_negatives,
)
from .newton import (
    SolveTrace,
    SolverConfig,
    approx_hessian,
    gradient_descent_baseline,
    newton_step,
    solve,
)
from .planted import GeneratorSpec, basin_start, generate_planted
from .verify import (
    LipschitzProbe,
    SpectralReport,
    convergence_audit,
    fd_gradient,
    fd_hessian,
    kernel_bound,
    kernel_norm,
    lipschitz_probe,
    psd_check,
    rel_err,
    ridge_weights,
    sandwich_check,
)

__version__ = "0.1.0"
