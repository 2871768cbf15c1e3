"""Descent engines over closed meshes: Armijo-backtracking energy descent and
residual-norm descent, plus best-fit-sphere diagnostics used to classify flow
endpoints geometrically.

Energy descent moves along the H^2-Sobolev gradient, not the L^2 one: the
Helfrich energy is a fourth-order functional, so its plain gradient flow is
stiff: accepted displacements shrink to about 1e-5 on a sphere of radius 2,
and the flow creeps for thousands of steps.  With g the per-vertex normal
coefficient of the assembled gradient, K the cotangent stiffness and M the
mixed vertex area, the step is c nu with (M + sigma K M^-1 K) c = -g
(Neuberger 1997; Eckstein et al., SGP 2007; Dziuk, Numer. Math. 2008).
sigma carries units of length^4 and scales with the squared area, so the
metric means the same at every size; the engine converges in a few dozen
steps.

Residual descent is the workhorse for reproducing the sphere branch of the
critical-point classification: along the sphere family the penalized energy
has a strict maximum at the critical radius, so energy descent flees it while
the squared-residual objective has its global minimum 0 there.

The squared residual is a squared fourth-order operator, whose plain gradient
flow is hopelessly stiff (stable steps scale like the eighth power of the
mesh size).  The engine therefore takes damped Gauss-Newton directions built
from a finite-difference Jacobian of the residual field along vertex normals
(no exact adjoints of the discrete operators are assembled), and Armijo
backtracking on the true objective guards every step.  Inside the optimizer
the tracefree term uses the raw value H^2/2 - 2K without the reporting
clamp, which keeps the objective smooth; trace rows still report the
clamped-residual norms.

The residual at a vertex reads positions in its 2-ring only, so the Jacobian
is sparse and is built compressed (Curtis, Powell & Reid 1974; Coleman &
More 1983): vertices more than 4 edges apart never touch the same residual
entry, so a greedy distance-4 coloring, computed once per flow since
connectivity never changes, lets every vertex of one color move in the same
residual evaluation.  J takes forward differences from the rho the direction
evaluates anyway, (rho(x + h nu_color) - rho(x)) / h, so a build costs one
evaluation per color (34 colors on the level-2 icosphere, 39 from level 3
on) instead of V.  The step h is JACOBIAN_STEP_REL times the bounding-box
diagonal, near sqrt(eps), where the O(h) truncation and the O(eps / h)
rounding of a forward difference balance (Gill, Murray & Wright, Practical
Optimization, 1981, sec. 8.6).  At 1e-5, directional_derivative_fd's default
FD_STEP_REL, forward differences failed: the level-4 flow ended at a fit_rms
of 1.2e-4 instead of 3.8e-7.  Central differences at that step cost two
evaluations per color.  The perturbed meshes share the connectivity, so they
go through the curvature pass in blocks of about JACOBIAN_BLOCK_FACES faces
(12 meshes at level 2, 3 at level 3): each block is one mesh of disjoint
copies of the flow's connectivity, built once per flow (_block_mesh), whose
vertex bins are those of the copies in turn, so each copy's bundle is
bitwise the one its mesh gives on its own.  On meshes that small the cost of
one pass is mostly per-call overhead, and one block is far cheaper than its
meshes one by one.  Under central differences, one block of all 68 level-2
meshes was no faster and raised the flow's peak memory by about 7 MB.

Not every step builds a Jacobian: the engine keeps the last J, with the
band of J^T J, while it keeps working, as in chord (Shamanskii)
Gauss-Newton (Kelley, Solving Nonlinear Equations with Newton's Method,
SIAM 2003, ch. 2).  J is kept after an accepted step that took no backtrack
and lowered the objective to at most REUSE_CONTRACTION times its value, and
rebuilt otherwise; a direction on a kept J evaluates only rho and mu D.  A
stale J, one built at an earlier iterate, never decides how a run ends: a
gradient that meets grad_tol is taken again with a fresh J before the run
ends converged; a line search on a kept J stops at a rejected first trial,
and J is rebuilt at the same iterate before the search runs again; and a
step on a kept J never meets the ftol test below.  A backtracking step on a
kept J would also cap the first trials after it: on the level-1 flow from
initial_step 0.05, one such step, accepted after 31 backtracks, left the run
ending ftol at an objective of 1.3e-8 instead of grad_tol at 4.4e-19.
Stopping at the first rejected trial also spares the halving such a search
spent before J was rebuilt: the level-1 flow from initial_step 0.1 takes 10
objective evaluations instead of 41.  With the factor at 0.25 the level-3 flow
built 8 Jacobians in 15 iterations, run to grad_tol, instead of 15 in 14;
keeping J after every step without a backtrack took it 39 iterations, and a
factor of 0.5 took 33.  Under the ftol test it builds 7 in 15 iterations,
and the level-4 flow 10 in 21.

Both engines solve one kind of system: energy descent the metric
M + sigma K M^-1 K, residual descent the damped normal equations
J^T J + mu D.  Both matrices are symmetric positive definite and supported on
the 2-ring and 4-ring of the vertex adjacency, so one band Cholesky solve
serves both (LAPACK pbsv): the vertices are put in reverse Cuthill-McKee
order once per flow (Cuthill & McKee 1969), which keeps the lower bandwidth
at 82 for the metric and 164 for J^T J + mu D on the level-3 icosphere.
Both are Gram products X^T diag(s) X on a fixed pattern, K on the 1-ring
with s = 1/M and J on the 2-ring, so each engine builds one band (_Band) on
its pattern, once per flow, whose index arrays sum each direction's product
straight into band storage with one np.bincount, over the pattern rows
ascending.  A matrix that is not numerically positive definite gives the
steepest-descent step instead.

Both engines share one Armijo line search, parametrized by the largest
vertex displacement and warm-started: its first trial moves no vertex
farther than initial_step, nor farther than WARM_START_FACTOR times the
previous accepted displacement, so a flow whose steps have shrunk does not
spend its evaluations halving down from initial_step on every iteration.
A search that halves below STEP_TOL ends the run stalled.
Each objective evaluation returns the curvature bundle it computed, and the
flow carries the accepted trial's bundle into the next direction and trace
row, so every iterate goes through the face pass once.  Energy descent takes
M from the bundle's vertex areas and K from its edge weights, summed onto
the 1-ring built once per flow (curvature._OneRing), the one assembly that
cotan_operator also runs, so K is bitwise that operator's.

grad_tol and STEP_TOL are absolute, and on fine meshes neither engine meets
them where its objective stops falling.  Energy descent's assembled gradient
is not the exact derivative of the discrete energy, so its norm stays above
1e-4; residual descent reaches a roundoff floor of its objective from level
4 on (about 1.3e-15, with the gradient norm near 6e-7).  So a run also ends
stalled once its objective stops falling relative to its scale, the ftol
test of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995):
after accepted step k, when f[k - 3] - f[k] <= FTOL max(|f[k]|, |f[0]|).
Without it the level-3 energy flow spent about 27 of its 79 evaluations
halving its last step down to STEP_TOL, and the level-4 residual flow took
19 steps to its iteration cap that moved the radius by less than 1e-13;
with it they end after 15 iterations (36 evaluations) and 21 (10 Jacobian
builds), with W equal to 3e-10 relative and the radius to 4e-14.  A
step tolerance relative to the mesh size would not serve both engines:
energy steps where the energy stops falling are 1e-6 to 5e-8 of the
bounding-box diagonal, while level-3 residual steps fall to 9e-9 of it while
still converging quadratically.

The summary's meta reports the seconds of each phase (PHASES): the
derivative (the Jacobian, or the energy's assembled gradient), the solve
(for energy descent the stiffness fill, the metric and its factorization),
the line search including the starting objective, and trace recording.
Together they cover the run's wall time but for loop bookkeeping.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .analytic import residual_values
from .curvature import _OneRing, curvature_bundle
# Not used here: bound so that the benchmark tracer, which wraps every module
# binding of the face pass (perfbench/tracing.py), keeps finding it in flow.
from .curvature import _face_data  # noqa: F401
from .energy import EnergyParams, _mesh_energies
from .errors import FitError, NumericalError, OperatorError, UnsupportedError
from .mesh import TriangleMesh, _is_integer, validate
from .output import write_csv, write_json
from .variation import _gradient_coefficient, _mesh_residual

MODES = ("energy_descent", "residual_descent")
# converged: gradient norm at or below grad_tol; stalled: no acceptable step
# above STEP_TOL, or the objective fell by at most FTOL of its scale over the
# last FTOL_WINDOW accepted steps.  meta's stop_reason names the test:
# grad_tol, ftol, step_tol, max_iters or degenerate_mesh.
BACKTRACK_FACTOR = 0.5       # line-search shrink per rejected trial
WARM_START_FACTOR = 4.0      # first trial <= this x last accepted displacement
SUFFICIENT_DECREASE = 1e-4   # Armijo constant
STEP_TOL = 1e-14             # smallest attempted vertex displacement
FTOL = 2.2e-9                # least relative fall of the objective ...
FTOL_WINDOW = 3              # ... over this many accepted steps
SOBOLEV_SIGMA0 = 0.006       # H^2 weight sigma / (area / 4 pi)^2
JACOBIAN_BLOCK_FACES = 4096  # meshes x faces of one Jacobian block pass
JACOBIAN_STEP_REL = 1e-8     # Jacobian difference step / bounding-box diagonal
REUSE_CONTRACTION = 0.25     # keep J after a step to <= this x the objective
PHASES = ("jacobian_s", "solve_s", "line_search_s", "record_s")


@dataclass
class FlowConfig:
    mode: str = "energy_descent"
    # Largest first-trial vertex displacement; after an accepted step the
    # next first trial is also at most WARM_START_FACTOR x its displacement.
    initial_step: float = 0.02
    max_iterations: int = 200
    grad_tol: float = 1e-10
    log_every: int = 1

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 < self.initial_step < np.inf:
            raise ValueError(f"initial_step must be finite and > 0, got {self.initial_step}")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be finite and >= 0, got {self.grad_tol}")
        for name in ("max_iterations", "log_every"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class FlowRow(NamedTuple):
    """One trace row; the fields are the columns of ``flow_trace.csv``."""

    iteration: int
    objective: float
    energy: float
    area: float
    volume: float
    residual_l2: float
    residual_linf: float
    step_size: float
    accepted: bool
    fit_cx: float
    fit_cy: float
    fit_cz: float
    fit_radius: float
    fit_rms: float
    # The gradient norm of the last direction taken and the trials its line
    # search rejected; for an accepted row, those of the step to its iterate.
    grad_norm: float
    backtracks: int


@dataclass
class FlowTrace:
    verdict: str
    iterations: int
    rows: list
    final_mesh: TriangleMesh
    wall_time: float
    message: str = ""
    meta: dict = dataclasses.field(default_factory=dict)   # run counters

    def write_csv(self, path):
        write_csv(path, FlowRow._fields, zip(*self.rows))

    def summary_dict(self):
        last = self.rows[-1]
        # A NaN fit marks a plane candidate (best_fit_sphere raised FitError):
        # a quantity the endpoint does not define, so the summary writes null.
        fitted = not np.isnan(last.fit_radius)
        return {
            "verdict": self.verdict,
            "iterations": self.iterations,
            "message": self.message,
            "final_objective": last.objective,
            "final_energy": last.energy,
            "final_area": last.area,
            "final_volume": last.volume,
            "final_residual_l2": last.residual_l2,
            "fit_center": [last.fit_cx, last.fit_cy, last.fit_cz] if fitted else None,
            "fit_radius": last.fit_radius if fitted else None,
            "fit_rms": last.fit_rms if fitted else None,
        }

    def write_json(self, path):
        write_json(path, self.summary_dict(),
                   {"wall_time_s": self.wall_time, **self.meta})


def _weighted_residual(bundle, params, row=...):
    """sqrt(area) * unclamped residual, so that its squared norm is the
    objective; ``row`` picks one copy's vertices of a block mesh's bundle."""
    r = residual_values(bundle.laplace_mean_curvature[row],
                        bundle.mean_curvature[row], bundle.gauss_curvature[row],
                        bundle.tracefree_raw[row], params)
    return np.sqrt(bundle.vertex_area[row]) * r


def _residual_objective(mesh, params):
    """The squared-residual objective and the bundle it was computed from."""
    bundle = curvature_bundle(mesh)
    rho = _weighted_residual(bundle, params)
    return float(rho @ rho), bundle


def _block_mesh(mesh, copies):
    """One mesh of ``copies`` disjoint copies of ``mesh``'s connectivity:
    vertex v of copy b is vertex b V + v, and copy b's faces follow copy
    b - 1's."""
    offsets = mesh.n_vertices * np.arange(copies)[:, None, None]
    return TriangleMesh(np.tile(mesh.vertices, (copies, 1)),
                        (mesh.faces + offsets).reshape(-1, 3))


def _jacobian_coloring(ring):
    """2-ring sparsity of the residual Jacobian and a distance-4 coloring.

    Row i of J, the residual at vertex i, reads only i's 2-ring, the pattern
    of ring^2 with ring the 1-ring A + I; that pattern is symmetric on a
    closed mesh, so column j is supported on j's 2-ring too.  Vertices that
    share no entry of ring^4 have disjoint columns and take one color,
    assigned greedily in vertex order.  Returns (indptr, indices, colors).
    """
    V = ring.shape[0]
    ring2 = ring @ ring
    ring2.sort_indices()
    ring4 = ring2 @ ring2
    indptr, indices = ring4.indptr.tolist(), ring4.indices.tolist()
    colors = [-1] * V
    for v in range(V):
        taken = {colors[u] for u in indices[indptr[v]:indptr[v + 1]]}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return ring2.indptr, ring2.indices, np.array(colors)


class _Band:
    """X^T diag(s) X for X on one fixed symmetric CSR pattern (indptr,
    indices), summed straight into LAPACK lower band storage, and band
    Cholesky solves, both in the reverse Cuthill-McKee order of ``ring``.

    For each pattern row r, the pairs (a, b) of its entries with
    rank(col a) >= rank(col b), and each pair's slot in the flat
    Fortran-order (width + 1, V) band.  A band is then one np.bincount of
    the terms (x[a] s[r]) x[b], which adds each slot's terms in pair order,
    the rows ascending.
    """

    def __init__(self, ring, indptr, indices):
        V = len(indptr) - 1
        self.order = reverse_cuthill_mckee(ring, symmetric_mode=True)
        self.rank = np.empty(V, dtype=np.intp)
        self.rank[self.order] = np.arange(V)
        self.row = np.repeat(np.arange(V), np.diff(indptr))
        col = self.rank[indices]
        # Each row's entries by the rank of their column; position k of this
        # order pairs with positions k, k - 1, ... down to its row's start.
        by_rank = np.lexsort((col, self.row))
        count = np.arange(len(indices)) - indptr[self.row] + 1
        k = np.repeat(np.arange(len(indices)), count)
        lo = k - (np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count))
        self.a, self.b = by_rank[k], by_rank[lo]
        offset, col_b = col[self.a] - col[self.b], col[self.b]
        self.width = int(offset.max())
        self.shape = (self.width + 1, V)
        self.slot = offset + (self.width + 1) * col_b

    def gram(self, x, s=None):
        """The lower band of X^T diag(s) X, X given by its data on the
        pattern and s by default all ones; row 0 is the diagonal."""
        left = x if s is None else x * s[self.row]
        flat = np.bincount(self.slot, left[self.a] * x[self.b],
                           self.shape[0] * self.shape[1])
        # Fortran order, as LAPACK reads it: the factor overwrites the band
        # in place instead of a copy.
        return flat.reshape(self.shape, order="F")

    def solve(self, band, rhs):
        """x with matrix x = rhs, the matrix given by its ``gram`` band and
        overwritten by its factor; raises LinAlgError unless the matrix is
        numerically positive definite."""
        return solveh_banded(band, rhs[self.order], overwrite_ab=True,
                             overwrite_b=True, lower=True,
                             check_finite=False)[self.rank]


class _PhaseClock:
    """Seconds spent in each of PHASES."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)

    @contextmanager
    def __call__(self, phase):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] += time.perf_counter() - t0


class _Engine:
    """What both descent engines share: the 1-ring (``one_ring``, and
    ``ring``, its CSR pattern of ones) and the step through a band solve.
    Each engine builds the one band of its own system, ``band``."""

    # The kept derivatives come from an earlier iterate than the current
    # one; only residual descent keeps any.
    stale = False

    def __init__(self, params, mesh):
        self.params = params
        self.evaluations = 0
        self.clock = _PhaseClock()
        self.one_ring = _OneRing(mesh)
        self.ring = self.one_ring.matrix(np.ones(len(self.one_ring.indices)))

    def step(self, matrix, rhs, g, normals):
        """Normal step c nu with matrix c = rhs, the matrix given by its
        ``_Band.gram`` band, and its slope -g.c; plain steepest descent,
        c = -g, when the matrix is not numerically positive definite or the
        slope is not positive."""
        try:
            coeff = self.band.solve(matrix, rhs)
        except LinAlgError:
            coeff = -g
        slope = -float(g @ coeff)
        if slope <= 0.0:
            coeff, slope = -g, float(g @ g)
        return coeff[:, None] * normals, slope

    def feedback(self, backtracks, obj, trial_obj):
        pass

    def counters(self):
        return {"residual_evaluations": self.evaluations,
                "solve_bandwidth": self.band.width}


class _ResidualEngine(_Engine):
    """Damped Gauss-Newton steps on the squared-residual objective."""

    def __init__(self, params, mesh):
        super().__init__(params, mesh)
        self.mu = 1e-3
        self.indptr, self.indices, self.colors = _jacobian_coloring(self.ring)
        self.n_colors = int(self.colors.max()) + 1
        self.band = _Band(self.ring, self.indptr, self.indices)
        # The color of each stored entry's column of J (``band.row``: its row).
        self.entry_color = self.colors[self.indices]
        # (J, band of J^T J) of the kept Jacobian; row 0 of the band is D in
        # RCM order.
        self.normal_equations = None
        self.jacobian_builds = 0
        # The perturbed meshes, one per color, in even blocks of at most
        # JACOBIAN_BLOCK_FACES faces; a last block that is not full is
        # filled up with unperturbed copies, so one block mesh serves all.
        n_blocks = -(-self.n_colors // max(1, JACOBIAN_BLOCK_FACES // mesh.n_faces))
        self.block = _block_mesh(mesh, -(-self.n_colors // n_blocks))

    def _rho(self, bundle, row=...):
        self.evaluations += 1
        return _weighted_residual(bundle, self.params, row)

    def objective(self, mesh):
        self.evaluations += 1
        return _residual_objective(mesh, self.params)

    def jacobian(self, mesh, normals, rho0):
        """Forward differences of the weighted residual along the vertex
        normals, every vertex of one color perturbed in the same evaluation,
        from rho0, the weighted residual at ``mesh``; J's data on its 2-ring
        CSR pattern (indptr, indices).

        The perturbed positions are the rows, one per color, of one stack,
        which goes through the face pass one block mesh at a time.
        """
        h = JACOBIAN_STEP_REL * mesh.bbox_diagonal()
        V = mesh.n_vertices
        n_rows = self.n_colors
        rows = self.block.n_vertices // V
        base = mesh.vertices
        stack = np.empty((-(-n_rows // rows) * rows, V, 3))
        stack[:] = base
        stack[self.colors, np.arange(V)] = base + h * normals
        rho = np.empty((n_rows, V))
        for start in range(0, n_rows, rows):
            bundle = curvature_bundle(self.block.with_positions(
                stack[start:start + rows].reshape(-1, 3)))
            for k in range(min(rows, n_rows - start)):
                rho[start + k] = self._rho(bundle, slice(k * V, (k + 1) * V))
            del bundle      # free its edge weights before the next block's pass
        diff = (rho - rho0) / h
        return diff[self.entry_color, self.band.row]

    def direction(self, mesh, bundle):
        """Damped Gauss-Newton: (J^T J + mu D) c = -J^T rho, D the diagonal
        of J^T J, for the gradient g = 2 J^T rho of the objective.  J is
        built here unless ``feedback`` kept the last one; only rho and mu D
        are new in a direction on a kept J."""
        fresh = self.normal_equations is None
        with self.clock("jacobian_s"):
            rho0 = self._rho(bundle)
            if fresh:
                J = self.jacobian(mesh, bundle.normal, rho0)
        with self.clock("solve_s"):
            if fresh:
                self.normal_equations = (J, self.band.gram(J))
                self.jacobian_builds += 1
            J, JtJ = self.normal_equations
            Jt_rho = np.bincount(self.indices, J * rho0[self.band.row],
                                 len(rho0))
            g = 2.0 * Jt_rho
            matrix = JtJ.copy(order="F")
            matrix[0] += self.mu * np.maximum(matrix[0], 1e-30)
            direction, slope = self.step(matrix, -Jt_rho, g, bundle.normal)
            return direction, slope, float(np.linalg.norm(g))

    def feedback(self, backtracks, obj, trial_obj):
        """After an accepted step: mu falls if it took no backtrack and rises
        otherwise, and J is kept for the next iterate only if the step took
        no backtrack and contracted the objective by REUSE_CONTRACTION."""
        self.mu = min(self.mu * 3.0, 1e8) if backtracks else max(self.mu * 0.3, 1e-12)
        if backtracks or trial_obj > REUSE_CONTRACTION * obj:
            self.renew()
        else:
            self.stale = True

    def renew(self):
        """Build J again at the next direction's iterate."""
        self.normal_equations, self.stale = None, False

    def counters(self):
        return {**super().counters(), "jacobian_colors": self.n_colors,
                "jacobian_builds": self.jacobian_builds}


class _EnergyEngine(_Engine):
    """Descent along the H^2-Sobolev gradient of the energy."""

    def __init__(self, params, mesh):
        super().__init__(params, mesh)
        # K's pattern is the 1-ring: its data is X, 1/M is s.
        self.band = _Band(self.ring, self.ring.indptr, self.ring.indices)

    def objective(self, mesh):
        bundle = curvature_bundle(mesh)
        return _mesh_energies(mesh, self.params, bundle).helfrich, bundle

    def direction(self, mesh, bundle):
        """Solve (M + sigma K M^-1 K) c = -g for the normal coefficient c of
        the step, with g nu the assembled L^2 gradient; the returned norm is
        that gradient's, so grad_tol keeps its meaning."""
        self.evaluations += 1     # the assembled gradient is one residual
        with self.clock("jacobian_s"):
            g = _gradient_coefficient(mesh, bundle, self.params)
        with self.clock("solve_s"):
            M = bundle.vertex_area
            sigma = SOBOLEV_SIGMA0 * (M.sum() / (4.0 * np.pi)) ** 2
            metric = self.band.gram(self.one_ring.stiffness(bundle.edge_weight), 1.0 / M)
            metric *= sigma
            metric[0] += M[self.band.order]
            direction, slope = self.step(metric, -g, g, bundle.normal)
            return (direction, slope,
                    float(np.linalg.norm(g[:, None] * bundle.normal)))


def flow_run(mesh: TriangleMesh, params: EnergyParams,
             config: FlowConfig) -> FlowTrace:
    """Armijo-backtracking descent on the configured objective.

    Every accepted step strictly decreases the objective.  Manifoldness and
    orientation are checked once on entry, since moving vertices cannot
    change connectivity; a trial step that collapses a face ends the run
    with the degenerate_mesh verdict and the last accepted mesh, rather than
    an exception.

    Besides grad_tol and the line search, a run ends stalled once the
    objective stops falling: after accepted step k, when
    f[k - FTOL_WINDOW] - f[k] <= FTOL max(|f[k]|, |f[0]|) (the ftol test of
    L-BFGS-B; Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995).
    """
    config.validate()
    if not mesh.closed:
        raise UnsupportedError("flow_run needs a closed mesh")
    if not validate(mesh).ok:
        raise UnsupportedError("flow_run needs a validated mesh")

    t_setup = time.perf_counter()
    engine = (_ResidualEngine if config.mode == "residual_descent"
              else _EnergyEngine)(params, mesh)

    clock = engine.clock
    t0 = time.perf_counter()
    rows = []
    verdict = stop_reason = "max_iters"
    message = "iteration cap reached"

    @clock("record_s")
    def record(m, bundle, it, obj, step_size, accepted):
        field = _mesh_residual(m, bundle, params)
        energies = _mesh_energies(m, params, bundle)
        try:
            center, radius, rms = best_fit_sphere(m)
        except FitError:
            center, radius, rms = (np.nan, np.nan, np.nan), np.nan, np.nan
        rows.append(FlowRow(
            iteration=it, objective=obj, energy=energies.helfrich,
            area=float(field.areas.sum()), volume=energies.volume,
            residual_l2=field.l2, residual_linf=field.linf, step_size=step_size,
            accepted=accepted, fit_cx=center[0], fit_cy=center[1],
            fit_cz=center[2], fit_radius=radius, fit_rms=rms,
            grad_norm=grad_norm, backtracks=backtracks))

    with clock("line_search_s"):
        obj, bundle = engine.objective(mesh)
    evaluations = 1
    if not np.isfinite(obj):
        raise NumericalError("non-finite objective at iteration 0")
    history = [obj]         # the objective at each accepted iterate
    it = 0
    cap = config.initial_step
    while it < config.max_iterations:
        direction, slope, grad_norm = engine.direction(mesh, bundle)
        if grad_norm <= config.grad_tol and engine.stale:
            # Only derivatives taken at this iterate may end the run.
            engine.renew()
            direction, slope, grad_norm = engine.direction(mesh, bundle)
        backtracks = 0
        if grad_norm <= config.grad_tol:
            verdict, stop_reason = "converged", "grad_tol"
            message = f"gradient norm {grad_norm:.3e} at or below tolerance"
            record(mesh, bundle, it, obj, 0.0, False)
            break
        stale_step = engine.stale

        # Line search parametrized by the largest vertex displacement; the
        # first trial is the full model step when that is within the cap.
        with clock("line_search_s"):
            d_max = float(np.abs(direction).max())
            s = 1.0 if d_max <= cap else cap / d_max
            accepted = False
            while s * d_max > STEP_TOL:
                trial = mesh.with_positions(mesh.vertices + s * direction)
                evaluations += 1
                try:
                    trial_obj, trial_bundle = engine.objective(trial)
                except OperatorError as e:
                    verdict = stop_reason = "degenerate_mesh"
                    message = f"trial step: {e}"
                    break
                # Armijo, held strict: once s * slope falls below the objective's
                # roundoff, the Armijo bound alone admits an unchanged objective.
                if np.isfinite(trial_obj) and trial_obj < obj and \
                        trial_obj <= obj - SUFFICIENT_DECREASE * s * slope:
                    accepted = True
                    break
                if stale_step:      # a kept J's step passes its first trial or is dropped
                    break
                s *= BACKTRACK_FACTOR
                backtracks += 1
        if verdict == "degenerate_mesh":
            break
        if not accepted and stale_step:
            engine.renew()      # retry from this iterate with derivatives taken here
            continue
        if not accepted:
            verdict, stop_reason = "stalled", "step_tol"
            message = "no acceptable step above the step tolerance"
            record(mesh, bundle, it, obj, 0.0, False)
            break
        engine.feedback(backtracks, obj, trial_obj)
        cap = min(config.initial_step, WARM_START_FACTOR * s * d_max)

        mesh, obj, bundle = trial, trial_obj, trial_bundle
        it += 1
        history.append(obj)
        if it % config.log_every == 0 or it == config.max_iterations:
            record(mesh, bundle, it, obj, s * d_max, True)
        # As above, a step on a kept J does not end the run: the run goes on
        # until a step on a J built at its own iterate meets the test too.
        if it >= FTOL_WINDOW and not stale_step:
            fall = history[-1 - FTOL_WINDOW] - obj
            scale = max(abs(obj), abs(history[0]))
            if fall <= FTOL * scale:
                verdict, stop_reason = "stalled", "ftol"
                message = (f"objective fell by {fall / scale:.3e} of its scale "
                           f"over the last {FTOL_WINDOW} steps, at or below "
                           f"{FTOL:.1e}")
                break

    if not rows or rows[-1].iteration != it:
        record(mesh, bundle, it, obj, 0.0, False)
    meta = engine.counters()
    meta["residual_evaluations"] += len(rows)      # one residual per row
    meta["objective_evaluations"] = evaluations
    meta["stop_reason"] = stop_reason
    meta.update(clock.seconds)
    meta["setup_s"] = t0 - t_setup      # engine set-up, outside wall_time
    return FlowTrace(verdict=verdict, iterations=it, rows=rows,
                     final_mesh=mesh, wall_time=time.perf_counter() - t0,
                     message=message, meta=meta)


def best_fit_sphere(source):
    """Least-squares sphere through mesh vertices (or an (N, 3) point array):
    algebraic fit refined by at most 10 Gauss-Newton steps.

    Returns (center, radius, rms radial deviation).  Coplanar input raises
    FitError, the plane-candidate signal.
    """
    pts = source.vertices if isinstance(source, TriangleMesh) else \
        np.asarray(source, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise FitError("need at least 4 points in 3D")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise FitError("points are coplanar (plane candidate)")

    # Algebraic fit: |p|^2 = 2 <p, c> + (R^2 - |c|^2), linear in (c, d).
    A = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = (pts * pts).sum(axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    radius = float(np.sqrt(max(sol[3] + center @ center, 0.0)))

    for _ in range(10):
        diff = pts - center
        dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-300)
        res = dist - radius
        J = np.column_stack([-diff / dist[:, None], -np.ones(len(pts))])
        try:
            delta, *_ = np.linalg.lstsq(J, -res, rcond=None)
        except np.linalg.LinAlgError:
            break
        center = center + delta[:3]
        radius = float(radius + delta[3])
        if np.linalg.norm(delta) < 1e-14 * max(radius, 1.0):
            break

    dist = np.linalg.norm(pts - center, axis=1)
    rms = float(np.sqrt(((dist - radius) ** 2).mean()))
    return center, radius, rms
