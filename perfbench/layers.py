"""Per-layer timing and counters, taken from outside kryrank by rebinding names.

kryrank's modules import each other's functions by value, so a layer is
wrapped once per module binding that calls it (``krylov.mgs_qr`` and
``lowrank.mgs_qr`` are separate names for one function).  Every wrapper
records a span [name, start, end, parent] in memory; the self time of a span
is its duration minus the durations of its child spans.  ``Patches`` restores
every binding it replaced, so the package is untouched after a run.
"""

import functools
import time
import weakref
from collections import defaultdict

from kryrank import (
    cli, dirk, experiments, heat, krylov, lbfp, linalg, lowrank, reference,
)
from kryrank.errors import BasisSaturated

# (name, unit, better) of every per-layer metric, in report order.
# tri_solve.calls/cols count every solve; the first solve on each operator
# object, which factorizes it, is timed as tri_factor and not as tri_solve.
# rank_in/rank_out are means over calls; *.self_s are per run of the command.
PER_LAYER = [
    ("linalg.tri_solve.calls", "count", "lower"),
    ("linalg.tri_solve.cols", "count", "lower"),
    ("linalg.tri_solve.self_s", "s", "lower"),
    ("linalg.tri_factor.count", "count", "lower"),
    ("linalg.tri_factor.self_s", "s", "lower"),
    ("linalg.tri_apply.calls", "count", "lower"),
    ("linalg.tri_apply.self_s", "s", "lower"),
    ("linalg.mgs_qr.calls", "count", "lower"),
    ("linalg.mgs_qr.self_s", "s", "lower"),
    ("linalg.reduced_svd.calls", "count", "lower"),
    ("linalg.reduced_svd.self_s", "s", "lower"),
    ("krylov.sylvester.calls", "count", "lower"),
    ("krylov.sylvester.self_s", "s", "lower"),
    ("krylov.sylvester.dim_max", "count", "lower"),
    ("krylov.grow_basis.calls", "count", "lower"),
    ("krylov.grow_basis.self_s", "s", "lower"),
    ("krylov.grow_basis.cols_added", "count", "lower"),
    ("krylov.grow_basis.cols_deflated", "count", "lower"),
    ("krylov.grow_basis.accept_ratio", "ratio", "higher"),
    ("krylov.residual_norm.calls", "count", "lower"),
    ("krylov.residual_norm.self_s", "s", "lower"),
    ("krylov.stage_solve.self_s", "s", "lower"),
    ("krylov.rounds", "count", "lower"),
    ("krylov.stage_rejects", "count", "lower"),
    ("krylov.stage_accept_ratio", "ratio", "higher"),
    ("krylov.basis_rank_max", "count", "lower"),
    ("reference.sylvester.calls", "count", "lower"),
    ("reference.sylvester.self_s", "s", "lower"),
    ("reference.dense_dirk_step.calls", "count", "lower"),
    ("reference.dense_dirk_step.self_s", "s", "lower"),
    ("reference.heat_reference.self_s", "s", "lower"),
    ("reference.l1_distance.self_s", "s", "lower"),
    ("dirk.dirk_step.calls", "count", "lower"),
    ("dirk.dirk_step.self_s", "s", "lower"),
    ("dirk.stage_ops_built", "count", "lower"),
    ("lowrank.truncate.calls", "count", "lower"),
    ("lowrank.truncate.self_s", "s", "lower"),
    ("lowrank.joint_basis.calls", "count", "lower"),
    ("lowrank.joint_basis.self_s", "s", "lower"),
    ("lowrank.core_truncate.calls", "count", "lower"),
    ("lowrank.core_truncate.self_s", "s", "lower"),
    ("heat.lomac_null_correction.calls", "count", "lower"),
    ("heat.lomac_null_correction.self_s", "s", "lower"),
    ("heat.lomac_null_correction.rank_in", "mean", "lower"),
    ("heat.lomac_null_correction.rank_out", "mean", "lower"),
    ("lbfp.moment_step.calls", "count", "lower"),
    ("lbfp.moment_step.self_s", "s", "lower"),
    ("lbfp.build_operators.calls", "count", "lower"),
    ("lbfp.build_operators.self_s", "s", "lower"),
    ("lbfp.lomac_project.calls", "count", "lower"),
    ("lbfp.lomac_project.self_s", "s", "lower"),
    ("lbfp.lomac_project.rank_in", "mean", "lower"),
    ("lbfp.lomac_project.rank_out", "mean", "lower"),
    ("lbfp.lbfp_step.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


class Patches:
    """Replaced bindings (module or class attributes, dict items), restorable."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, key, make):
        """Rebind owner.key (or owner[key]) to make(current value)."""
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = make(old)
        else:
            old = getattr(owner, key)
            setattr(owner, key, make(old))
        self._saved.append((owner, key, old))

    def restore(self):
        while self._saved:
            owner, key, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


class StepClock:
    """Untraced observer: a clock around each step call and its diagnostics.

    ``first_start`` is when the first step of any kind began; ``accepted``
    holds (krylov rounds, state rank) per accepted low-rank step, one entry
    per species for lbfp; ``error`` names the first exception a step raised.
    """

    def __init__(self):
        self.samples = {"dirk_step": [], "lbfp_step": [], "dense_dirk_step": []}
        self.accepted = []
        self.first_start = None
        self.error = None

    def install(self, patches):
        for key in self.samples:
            patches.wrap(experiments, key, lambda fn, key=key: self._clocked(fn, key))

    def _clocked(self, fn, key):
        clock = time.perf_counter
        samples = self.samples[key]

        @functools.wraps(fn)
        def step(*args, **kwargs):
            t0 = clock()
            if self.first_start is None:
                self.first_start = t0
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if self.error is None:
                    self.error = type(exc).__name__
                raise
            samples.append(clock() - t0)
            if key == "dirk_step":
                self.accepted.append((out[1].krylov_iterations, out[1].rank))
            elif key == "lbfp_step":
                self.accepted.extend((d.krylov_iterations, d.rank) for d in out[1])
            return out

        return step


class Tracer:
    """Spans and counters of one traced run; ``install`` wraps every layer."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._factored = weakref.WeakSet()

    def _wrap(self, fn, name, before=None, after=None, on_error=None):
        """Span wrapper; ``name`` may be a callable of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            counts[label + ".calls"] += 1
            state = before(args) if before is not None else None
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, state)
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, out, state)
            return out

        return traced

    def _span(self, patches, owners, key, name, **hooks):
        for owner in owners:
            patches.wrap(owner, key, lambda fn: self._wrap(fn, name, **hooks))

    def install(self, patches):
        c, m = self.counts, self.maxima
        op = linalg.TridiagonalOperator

        def solve_name(args):
            # the first solve on an operator object includes its factorization
            if args[0] in self._factored:
                return "linalg.tri_solve"
            self._factored.add(args[0])
            return "linalg.tri_factor"

        def solve_cols(args, out, state):
            c["linalg.tri_solve.cols"] += 1 if out.ndim == 1 else out.shape[1]

        self._span(patches, [op], "solve", solve_name, after=solve_cols)
        self._span(patches, [op], "apply", "linalg.tri_apply")
        self._span(patches, [linalg, lowrank, krylov], "mgs_qr", "linalg.mgs_qr")
        self._span(patches, [linalg, lowrank], "reduced_svd", "linalg.reduced_svd")

        def sylvester_dim(args, out, state):
            dim = max(out.shape)
            m["krylov.sylvester.dim_max"] = max(m["krylov.sylvester.dim_max"], dim)

        self._span(
            patches, [krylov], "solve_sylvester_dense", "krylov.sylvester",
            after=sylvester_dim,
        )
        self._span(patches, [reference], "solve_sylvester_dense", "reference.sylvester")

        def offered(args):
            basis = args[0]
            return basis.rank, basis.fwd_block.shape[1] + basis.inv_block.shape[1]

        def grown(args, out, state):
            rank, cand = state
            added = out.rank - rank
            c["krylov.grow_basis.cols_added"] += added
            c["krylov.grow_basis.cols_deflated"] += cand - added

        def saturated(exc, state):
            if isinstance(exc, BasisSaturated):
                c["krylov.grow_basis.cols_deflated"] += state[1]

        self._span(
            patches, [krylov], "grow_basis", "krylov.grow_basis",
            before=offered, after=grown, on_error=saturated,
        )
        self._span(patches, [krylov], "residual_norm", "krylov.residual_norm")

        def stage_done(args, out, state):
            diag = out[3]
            c["krylov.rounds"] += diag.iterations
            c["krylov.stage_rejects"] += len(diag.reject_stages)
            rank = max(diag.rank_u, diag.rank_v)
            m["krylov.basis_rank_max"] = max(m["krylov.basis_rank_max"], rank)

        self._span(
            patches, [dirk], "adaptive_stage_solve", "krylov.stage_solve",
            after=stage_done,
        )
        self._span(patches, [experiments], "dense_dirk_step", "reference.dense_dirk_step")
        self._span(patches, [experiments], "heat_reference", "reference.heat_reference")
        self._span(patches, [experiments], "l1_distance", "reference.l1_distance")
        self._span(patches, [experiments, lbfp], "dirk_step", "dirk.dirk_step")

        def count_stage_op(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                c["dirk.stage_ops_built"] += 1
                return fn(*args, **kwargs)

            return counted

        patches.wrap(dirk, "assemble_stage_operator", count_stage_op)
        self._span(patches, [experiments, heat, lbfp], "truncate", "lowrank.truncate")
        self._span(patches, [heat, lbfp], "joint_basis", "lowrank.joint_basis")
        self._span(patches, [heat, lbfp], "core_truncate", "lowrank.core_truncate")

        def ranks(label):
            def after(args, out, state):
                c[label + ".rank_in"] += args[0].rank
                c[label + ".rank_out"] += out.rank

            return after

        self._span(
            patches, [experiments], "lomac_null_correction",
            "heat.lomac_null_correction", after=ranks("heat.lomac_null_correction"),
        )
        self._span(
            patches, [lbfp], "lomac_project", "lbfp.lomac_project",
            after=ranks("lbfp.lomac_project"),
        )
        self._span(patches, [lbfp], "moment_step", "lbfp.moment_step")
        self._span(patches, [lbfp], "build_lbfp_operators", "lbfp.build_operators")
        self._span(patches, [experiments], "lbfp_step", "lbfp.lbfp_step")
        for kind in list(cli._RUNNERS):
            self._span(patches, [cli._RUNNERS], kind, "experiments")
        self._span(patches, [cli], "run_compare", "experiments")
        self._span(patches, [cli], "load_config", "config.load_config")

    def metrics(self, window_s):
        """Per-layer values of this run; ``window_s`` is the traced command's wall time.

        The tracing overhead needs an untraced run and is filled in by the caller.
        """
        own = self_times(self.spans)
        c, m = self.counts, self.maxima
        solves = c["linalg.tri_solve.calls"] + c["linalg.tri_factor.calls"]
        added = c["krylov.grow_basis.cols_added"]
        offered = added + c["krylov.grow_basis.cols_deflated"]
        attempts = c["krylov.residual_norm.calls"]

        def mean(label, key):
            calls = c[label + ".calls"]
            return c[label + "." + key] / calls if calls else 0.0

        covered = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        values = {
            "linalg.tri_solve.calls": solves,
            "linalg.tri_factor.count": c["linalg.tri_factor.calls"],
            "krylov.grow_basis.accept_ratio": added / offered if offered else 0.0,
            "krylov.stage_accept_ratio": (
                (attempts - c["krylov.stage_rejects"]) / attempts if attempts else 0.0
            ),
            "heat.lomac_null_correction.rank_in": mean("heat.lomac_null_correction", "rank_in"),
            "heat.lomac_null_correction.rank_out": mean("heat.lomac_null_correction", "rank_out"),
            "lbfp.lomac_project.rank_in": mean("lbfp.lomac_project", "rank_in"),
            "lbfp.lomac_project.rank_out": mean("lbfp.lomac_project", "rank_out"),
            "trace.unattributed_share": (window_s - covered) / window_s,
            "trace.overhead_s": 0.0,
        }
        for name, _unit, _better in PER_LAYER:
            if name in values:
                continue
            if name.endswith(".self_s"):
                values[name] = own.get(name[: -len(".self_s")], 0.0)
            elif name in m:
                values[name] = m[name]
            else:
                values[name] = c[name]
        return values


def self_times(spans):
    """Total self time per span name: duration minus the child spans' durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = defaultdict(float)
    for (name, _, _, _), t in zip(spans, own):
        totals[name] += t
    return dict(totals)
