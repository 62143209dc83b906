"""Experiment configuration: one YAML document per run, validated up front.

Grammar (all keys lowercase; an unknown key at any level is rejected):

    kind: heat-convergence | lbfp-relax | complexity-sweep   (required)
    integrator: be | dirk2 | dirk3                           (required)
    grid:
      n: int or [int, ...]     # >= 3, lbfp kinds >= 8, distinct (required)
    time:
      t_final: float                                         (required)
      lambda: [float, ...]     # dt = lambda * dx^2; heat-convergence only
      dt: float                # explicit step; other kinds
    truncation:
      eps_rel: float           # default 1e-10 (heat) / 1e-8 (lbfp kinds)
    tolerances: float          # residual constant C; tolerance C * dt^(order+1)
    lomac: bool                # heat-convergence: conservative correction, default true
    pipeline: adaptive | dense # complexity-sweep, default adaptive
    diffusion: [d1, d2]        # heat-convergence, each > 0, default [0.5, 0.5]
    species: [{name, mass, charge, density, temperature, drift}, ...]  # lbfp kinds
    grid_halfwidth: float      # lbfp kinds: velocity span in thermal speeds, default 10
    timing_reps: int           # complexity-sweep repetitions, default 5
    seed: int                  # >= 0, default 0
    output: str                # default "out"
"""

import math
from dataclasses import dataclass

import yaml

from .dirk import builtin_tables
from .errors import ConfigError
from .lbfp import MIN_VELOCITY_CELLS, SpeciesConfig, benchmark_species

KINDS = ("heat-convergence", "lbfp-relax", "complexity-sweep")
INTEGRATORS = tuple(builtin_tables())
PIPELINES = ("adaptive", "dense")

_DEFAULT_TOL = {"be": 1.0, "dirk2": 1e-3, "dirk3": 1e-3}

# every top-level key and the kinds that read it; the other kinds reject it
_TOP_KEYS = dict.fromkeys(
    ("kind", "integrator", "grid", "time", "truncation", "tolerances", "seed", "output"), KINDS
)
_TOP_KEYS.update(
    lomac=("heat-convergence",), diffusion=("heat-convergence",),
    species=("lbfp-relax", "complexity-sweep"), grid_halfwidth=("lbfp-relax", "complexity-sweep"),
    pipeline=("complexity-sweep",), timing_reps=("complexity-sweep",),
)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    integrator: str
    n: tuple
    lambdas: tuple
    dt: float
    t_final: float
    eps_rel: float
    tolerance_constant: float
    lomac: bool
    pipeline: str
    diffusion: tuple
    species: tuple
    halfwidth: float
    timing_reps: int
    seed: int
    output: str


def _as_float(value, fieldname, positive=False, nonnegative=False):
    try:
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError("expected a number, got %r" % (value,), fieldname) from None
    if not math.isfinite(x):
        raise ConfigError("must be finite, got %r" % (value,), fieldname)
    if positive and not x > 0:
        raise ConfigError("must be > 0, got %g" % x, fieldname)
    if nonnegative and not x >= 0:
        raise ConfigError("must be >= 0, got %g" % x, fieldname)
    return x


def _as_int(value, fieldname, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            if isinstance(value, bool) or float(value) != int(value):
                raise ValueError
            value = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                "expected an integer, got %r" % (value,), fieldname
            ) from None
    if minimum is not None and value < minimum:
        raise ConfigError("must be >= %d, got %d" % (minimum, value), fieldname)
    return value


def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _check_keys(mapping, allowed, path=""):
    """Reject the first key of ``mapping`` outside ``allowed``, naming its full path."""
    for key in sorted(mapping, key=str):
        if key not in allowed:
            raise ConfigError("unknown key", path + str(key))


def _section(doc, key, allowed):
    sec = doc.get(key, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError("expected a mapping", key)
    _check_keys(sec, allowed, key + ".")
    return sec


def _parse_species(blocks):
    out = []
    for i, blk in enumerate(blocks):
        path = "species[%d]" % i
        if not isinstance(blk, dict):
            raise ConfigError("expected a mapping", path)
        _check_keys(blk, ("name", "mass", "charge", "density", "temperature", "drift"), path + ".")
        for req in ("name", "mass", "charge"):
            if req not in blk:
                raise ConfigError("missing required key", "%s.%s" % (path, req))
        raw, name = blk["name"], str(blk["name"])
        # names head CSV cells, so a separator, quote or line break corrupts rows,
        # and CSV readers skip a row whose first cell starts with '#'
        if isinstance(raw, bool) or not isinstance(raw, (str, int, float)) or (
            name.splitlines() != [name] or name.startswith("#") or any(c in name for c in ",\"'")
        ):
            raise ConfigError(
                "expected a string or number with nonempty text, no leading '#' and "
                "no comma, quote or line break, got %r" % (raw,), path + ".name"
            )
        if name in (sp.name for sp in out):
            raise ConfigError("duplicate species name %r" % name, path + ".name")
        drift = blk.get("drift", (0.0, 0.0))
        drift = _as_list(drift)
        if len(drift) != 2:
            raise ConfigError("drift needs 2 components", path + ".drift")
        out.append(SpeciesConfig(
            name=name,
            mass=_as_float(blk["mass"], path + ".mass", positive=True),
            charge=_as_float(blk["charge"], path + ".charge"),
            density=_as_float(
                blk.get("density", 1.0), path + ".density", positive=True
            ),
            temperature=_as_float(
                blk.get("temperature", 1.0), path + ".temperature", positive=True
            ),
            drift=(
                _as_float(drift[0], path + ".drift[0]"),
                _as_float(drift[1], path + ".drift[1]"),
            ),
        ))
    return tuple(out)


def validate_config(doc):
    """Turn a parsed YAML mapping into an ExperimentConfig or raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    _check_keys(doc, _TOP_KEYS)

    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError("must be one of %s, got %r" % ("/".join(KINDS), kind), "kind")
    integrator = doc.get("integrator")
    if integrator not in INTEGRATORS:
        raise ConfigError(
            "must be one of %s, got %r" % ("/".join(INTEGRATORS), integrator),
            "integrator",
        )
    for key in doc:
        if kind not in _TOP_KEYS[key]:
            raise ConfigError("applies to %s only, not %s" % ("/".join(_TOP_KEYS[key]), kind), key)

    grid = _section(doc, "grid", ("n",))
    if "n" not in grid:
        raise ConfigError("missing required key", "grid.n")
    n_min = 3 if kind == "heat-convergence" else MIN_VELOCITY_CELLS
    ns = tuple(_as_int(v, "grid.n", minimum=n_min) for v in _as_list(grid["n"]))
    if not ns:
        raise ConfigError("needs at least one grid size", "grid.n")
    if len(set(ns)) != len(ns):
        raise ConfigError("grid sizes must be distinct, got %s" % list(ns), "grid.n")
    if kind != "complexity-sweep" and len(ns) != 1:
        raise ConfigError("exactly one grid size for kind %s" % kind, "grid.n")

    time_sec = _section(doc, "time", ("t_final", "lambda", "dt"))
    if "t_final" not in time_sec:
        raise ConfigError("missing required key", "time.t_final")
    t_final = _as_float(time_sec["t_final"], "time.t_final", positive=True)

    has_lam = "lambda" in time_sec and time_sec["lambda"] is not None
    has_dt = "dt" in time_sec and time_sec["dt"] is not None
    if kind == "heat-convergence":
        if not has_lam:
            raise ConfigError(
                "heat-convergence requires a nonempty lambda list", "time.lambda"
            )
        if has_dt:
            raise ConfigError("give lambda or dt, not both", "time.dt")
        lambdas = tuple(
            _as_float(v, "time.lambda", positive=True)
            for v in _as_list(time_sec["lambda"])
        )
        if not lambdas:
            raise ConfigError("lambda list is empty", "time.lambda")
        dt = None
    else:
        if has_lam:
            raise ConfigError(
                "kind %s takes an explicit dt, not lambda" % kind, "time.lambda"
            )
        if not has_dt:
            raise ConfigError("missing required key", "time.dt")
        lambdas = ()
        dt = _as_float(time_sec["dt"], "time.dt", positive=True)

    trunc = _section(doc, "truncation", ("eps_rel",))
    default_eps = 1e-10 if kind == "heat-convergence" else 1e-8
    eps_rel = _as_float(
        trunc.get("eps_rel", default_eps), "truncation.eps_rel", nonnegative=True
    )

    tol = _as_float(
        doc.get("tolerances", _DEFAULT_TOL[integrator]), "tolerances", positive=True
    )

    lomac = doc.get("lomac", True)
    if not isinstance(lomac, bool):
        raise ConfigError("expected true/false, got %r" % (lomac,), "lomac")

    pipeline = doc.get("pipeline", "adaptive")
    if pipeline not in PIPELINES:
        raise ConfigError(
            "must be one of %s, got %r" % ("/".join(PIPELINES), pipeline), "pipeline"
        )

    diff = _as_list(doc.get("diffusion", [0.5, 0.5]))
    if len(diff) != 2:
        raise ConfigError("diffusion needs 2 entries", "diffusion")
    diffusion = tuple(
        _as_float(v, "diffusion[%d]" % i, positive=True)
        for i, v in enumerate(diff)
    )

    if "species" in doc and doc["species"] is not None:
        blocks = doc["species"]
        if not isinstance(blocks, list) or not blocks:
            raise ConfigError("expected a nonempty list", "species")
        species = _parse_species(blocks)
    else:
        species = tuple(benchmark_species())

    halfwidth = _as_float(
        doc.get("grid_halfwidth", 10.0), "grid_halfwidth", positive=True
    )
    timing_reps = _as_int(doc.get("timing_reps", 5), "timing_reps", minimum=1)
    seed = _as_int(doc.get("seed", 0), "seed", minimum=0)
    output = doc.get("output", "out")
    if not isinstance(output, str) or not output:
        raise ConfigError("expected a nonempty string", "output")

    return ExperimentConfig(
        kind=kind,
        integrator=integrator,
        n=ns,
        lambdas=lambdas,
        dt=dt,
        t_final=t_final,
        eps_rel=eps_rel,
        tolerance_constant=tol,
        lomac=lomac,
        pipeline=pipeline,
        diffusion=diffusion,
        species=species,
        halfwidth=halfwidth,
        timing_reps=timing_reps,
        seed=seed,
        output=output,
    )


def load_config(path, overrides=None):
    """Parse the YAML file at ``path`` and validate it.

    Each non-None value of ``overrides`` replaces the file's top-level key of
    the same name first, so it meets the same checks.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from None
    except yaml.YAMLError as exc:
        raise ConfigError("invalid YAML in %s: %s" % (path, exc)) from None
    if isinstance(doc, dict):
        doc.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return validate_config(doc)
