"""Benchmark workloads: YAML configs generated from a seed, and output checks.

Seed 0 reproduces the north-star configs exactly.  Any other seed scales the
heat diffusivities, and the lbfp species drifts and temperatures, each by its
own factor drawn uniformly from [1 - JITTER, 1 + JITTER].  kryrank sees only
the generated YAML.
"""

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from kryrank.lbfp import benchmark_species

JITTER = 0.01

# Output checks.  The heat L1 bounds sit about 25% above the seed-0 errors
# (1.60e-7 at n=512, 2.74e-6 at n=256); the others are the release gates of
# acceptance criteria 02 (ratio band), 05 (drift) and 09 (work per step).
HEAT_L1_BOUND = {"heat-dirk2-n512": 2.0e-7, "heat-compare-n256": 3.5e-6}
RATIO_BAND = (0.9, 1.1)
DRIFT_BOUND = 1e-11
ROUNDS_BOUND = 15
RANK_BOUND = 40


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "compare"
    step: str  # the step function whose calls are the workload's steps


# Why each workload is here is recorded in BENCHMARK.json.  The compare
# workload's steps are its dense steps, which take almost all of its time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("heat-dirk2-n512", "run", "dirk_step"),
        Workload("lbfp-be-n8000", "run", "lbfp_step"),
        Workload("heat-compare-n256", "compare", "dense_dirk_step"),
    )
}


def _factors(seed, count):
    if seed == 0:
        return [1.0] * count
    rng = np.random.default_rng(seed)
    return [float(x) for x in 1.0 + JITTER * rng.uniform(-1.0, 1.0, count)]


def make_config(name, seed):
    """The YAML document (as a dict) of workload ``name`` at ``seed``."""
    if name in ("heat-dirk2-n512", "heat-compare-n256"):
        f1, f2 = _factors(seed, 2)
        doc = {
            "kind": "heat-convergence",
            "integrator": "dirk2",
            "grid": {"n": 512 if name == "heat-dirk2-n512" else 256},
            "time": {"t_final": 0.1, "lambda": [400.0]},
            "lomac": True,
            "diffusion": [0.5 * f1, 0.5 * f2],
        }
    elif name == "lbfp-be-n8000":
        species = benchmark_species()
        factors = _factors(seed, 3 * len(species))
        blocks = []
        for i, sp in enumerate(species):
            fd1, fd2, ft = factors[3 * i : 3 * i + 3]
            blocks.append(
                {
                    "name": sp.name,
                    "mass": sp.mass,
                    "charge": sp.charge,
                    "density": sp.density,
                    "temperature": sp.temperature * ft,
                    "drift": [sp.drift[0] * fd1, sp.drift[1] * fd2],
                }
            )
        doc = {
            "kind": "lbfp-relax",
            "integrator": "be",
            "grid": {"n": 8000},
            "time": {"t_final": 5.0, "dt": 0.1},
            "species": blocks,
        }
    else:
        raise KeyError("unknown workload %r" % name)
    doc["seed"] = int(seed)
    return doc


def write_config(doc, path):
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def planned_ops(doc, command):
    """Steps one run attempts (lambda points for compare), as kryrank.experiments counts them."""
    if command == "compare":
        return len(doc["time"]["lambda"])
    if doc["kind"] == "heat-convergence":
        dx = 1.0 / doc["grid"]["n"]
        return sum(
            max(1, int(round(doc["time"]["t_final"] / (lam * dx * dx))))
            for lam in doc["time"]["lambda"]
        )
    return max(1, int(round(doc["time"]["t_final"] / doc["time"]["dt"])))


def read_csv(path):
    """Data rows of a kryrank CSV, without the header and the metadata comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def csv_hashes(out_dir):
    """sha256 of each CSV with its trailing build-metadata line removed."""
    hashes = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        hashes[path.name] = hashlib.sha256(body).hexdigest()
    return hashes


def check_outputs(name, out_dir):
    """Whole-run output checks; returns {check: (value, passed)}."""
    out = Path(out_dir)
    checks = {}
    if name == "heat-dirk2-n512":
        err = max(float(r[2]) for r in read_csv(out / "convergence.csv"))
        checks["l1_error"] = (err, err <= HEAT_L1_BOUND[name])
    elif name == "heat-compare-n256":
        rows = read_csv(out / "paired_errors.csv")
        err = max(float(r[2]) for r in rows)
        checks["l1_error"] = (err, err <= HEAT_L1_BOUND[name])
        ratios = [float(r[4]) for r in rows]
        checks["err_ratio"] = (
            max(ratios, key=lambda x: abs(x - 1.0)),
            all(RATIO_BAND[0] <= x <= RATIO_BAND[1] for x in ratios),
        )
    else:
        rows = read_csv(out / "conservation.csv")
        drift = max(max(float(x) for x in r[1:]) for r in rows)
        checks["conservation_err"] = (drift, drift <= DRIFT_BOUND)
    return checks


def step_within_bounds(rounds, rank):
    """Criterion-09 work bounds for one accepted step."""
    return rounds <= ROUNDS_BOUND and rank <= RANK_BOUND
