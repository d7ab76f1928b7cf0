"""Softmax-regression objectives, closed-form calculus, an approximate-Newton
solver, InfoNCE lower-bound estimators and independent verification oracles."""

from .calculus import (
    KernelParts,
    grad_cent,
    grad_exp,
    grad_reg,
    grad_total,
    hessian_cent,
    hessian_exp,
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
    loss_cent,
    loss_exp,
    loss_reg,
    loss_total,
    make_state,
)
from .nce import (
    NceBatch,
    nce_gradients,
    nce_loss,
    paired_vs_shuffled_bounds,
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
