"""Experiment configuration parsing and validation.

Oracles: hand-written YAML documents with directly asserted field values;
every rejection claim checks both the exception type and the reported field
path.
"""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from kryrank.config import KINDS, ExperimentConfig, load_config, validate_config
from kryrank.errors import ConfigError


def heat_doc(**extra):
    doc = {
        "kind": "heat-convergence",
        "integrator": "dirk2",
        "grid": {"n": 64},
        "time": {"t_final": 0.05, "lambda": [100, 400]},
    }
    doc.update(extra)
    return doc


def lbfp_doc(**extra):
    doc = {
        "kind": "lbfp-relax",
        "integrator": "be",
        "grid": {"n": 128},
        "time": {"t_final": 1.0, "dt": 0.1},
    }
    doc.update(extra)
    return doc


def sweep_doc(**extra):
    doc = {
        "kind": "complexity-sweep",
        "integrator": "be",
        "grid": {"n": [64, 128, 256]},
        "time": {"t_final": 0.1, "dt": 0.1},
    }
    doc.update(extra)
    return doc


def rejected(doc, field):
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert info.value.field == field
    return info.value


class TestDefaults:
    def test_heat_defaults(self):
        cfg = validate_config(heat_doc())
        assert cfg.kind == "heat-convergence"
        assert cfg.n == (64,)
        assert cfg.lambdas == (100.0, 400.0)
        assert cfg.dt is None
        assert cfg.eps_rel == 1e-10
        assert cfg.tolerance_constant == 1e-3
        assert cfg.lomac is True
        assert cfg.pipeline == "adaptive"
        assert cfg.diffusion == (0.5, 0.5)
        assert cfg.halfwidth == 10.0
        assert cfg.timing_reps == 5
        assert cfg.seed == 0
        assert cfg.output == "out"

    def test_lbfp_defaults(self):
        cfg = validate_config(lbfp_doc())
        assert cfg.eps_rel == 1e-8
        assert cfg.dt == 0.1
        assert cfg.lambdas == ()
        assert cfg.tolerance_constant == 1.0
        names = [sp.name for sp in cfg.species]
        assert names == ["ion", "electron"]

    def test_sweep_accepts_grid_list(self):
        cfg = validate_config(sweep_doc())
        assert cfg.n == (64, 128, 256)

    def test_tolerance_broadcast(self):
        cfg = validate_config(heat_doc(integrator="dirk3", tolerances=5e-4))
        assert cfg.tolerance_constant == 5e-4

    def test_explicit_tolerance_list(self):
        rejected(heat_doc(tolerances=[1e-2, 1e-4]), "tolerances")

    def test_species_block_parsed(self):
        doc = lbfp_doc(
            species=[
                {"name": "p", "mass": 2.0, "charge": 1.0, "drift": [1.0, 0.0]},
                {"name": "q", "mass": 0.5, "charge": -1.0, "temperature": 2.5},
            ]
        )
        cfg = validate_config(doc)
        assert cfg.species[0].name == "p"
        assert cfg.species[0].drift == (1.0, 0.0)
        assert cfg.species[1].temperature == 2.5
        assert cfg.species[1].density == 1.0


class TestRejections:
    def test_non_mapping_document(self):
        with pytest.raises(ConfigError):
            validate_config([1, 2])

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as info:
            validate_config(heat_doc(stepsize=0.1))
        assert "stepsize" in str(info.value)

    def test_bad_kind_and_integrator(self):
        rejected(heat_doc(kind="diffusion"), "kind")
        rejected(heat_doc(integrator="rk4"), "integrator")

    def test_grid_rules(self):
        rejected({**heat_doc(), "grid": {}}, "grid.n")
        rejected({**heat_doc(), "grid": {"n": 2}}, "grid.n")
        rejected({**heat_doc(), "grid": {"n": "wide"}}, "grid.n")
        rejected({**heat_doc(), "grid": {"n": [32, 64]}}, "grid.n")
        # a repeated size would give the sweep's slope fit a singular design
        err = rejected(sweep_doc(grid={"n": [16, 16]}), "grid.n")
        assert "distinct" in str(err)
        rejected(sweep_doc(grid={"n": [16, 24, 16.0]}), "grid.n")

    def test_lbfp_kinds_need_eight_velocity_cells(self):
        # the velocity grid rejects n < 8 at run time; heat runs at n >= 3
        assert validate_config({**heat_doc(), "grid": {"n": 3}}).n == (3,)
        assert validate_config({**lbfp_doc(), "grid": {"n": 8}}).n == (8,)
        for n in (3, 7):
            err = rejected({**lbfp_doc(), "grid": {"n": n}}, "grid.n")
            assert ">= 8" in str(err)
            rejected({**sweep_doc(), "grid": {"n": [16, n]}}, "grid.n")

    def test_time_rules(self):
        rejected({**heat_doc(), "time": {"lambda": [100]}}, "time.t_final")
        rejected({**heat_doc(), "time": {"t_final": 0.05}}, "time.lambda")
        rejected(
            {**heat_doc(), "time": {"t_final": 0.05, "lambda": [100], "dt": 0.1}},
            "time.dt",
        )
        rejected({**lbfp_doc(), "time": {"t_final": 1.0}}, "time.dt")
        rejected(
            {**lbfp_doc(), "time": {"t_final": 1.0, "lambda": [100]}}, "time.lambda"
        )
        rejected({**lbfp_doc(), "time": {"t_final": -1.0, "dt": 0.1}}, "time.t_final")

    def test_tolerance_count_mismatch(self):
        # one constant for every stage: no list is read, whatever its length
        rejected(heat_doc(tolerances=[1e-3]), "tolerances")
        rejected(heat_doc(integrator="dirk3", tolerances=[1e-3] * 3), "tolerances")
        rejected(heat_doc(tolerances=-1.0), "tolerances")

    def test_truncation_and_flags(self):
        rejected(heat_doc(truncation={"eps_rel": -1e-9}), "truncation.eps_rel")
        rejected(heat_doc(lomac="yes"), "lomac")
        rejected(heat_doc(pipeline="sparse"), "pipeline")
        rejected(heat_doc(diffusion=[0.5]), "diffusion")
        rejected(heat_doc(diffusion=[0.5, -0.1]), "diffusion[1]")
        # a zero diffusivity would build the zero, singular, generator
        rejected(heat_doc(diffusion=[0.5, 0.0]), "diffusion[1]")
        rejected(heat_doc(diffusion=[-0.0, 0.5]), "diffusion[0]")

    def test_species_rules(self):
        rejected(lbfp_doc(species=[]), "species")
        rejected(lbfp_doc(species=[{"name": "p", "mass": 1.0}]), "species[0].charge")
        rejected(
            lbfp_doc(species=[{"name": "p", "mass": -1.0, "charge": 1.0}]),
            "species[0].mass",
        )
        rejected(
            lbfp_doc(
                species=[
                    {"name": "p", "mass": 1.0, "charge": 1.0, "drift": [1.0]}
                ]
            ),
            "species[0].drift",
        )

    def test_species_names_are_distinct(self):
        # the drivers key each species' CSV series by its name
        sp = {"mass": 1.0, "charge": 1.0}
        doc = lbfp_doc(
            species=[{"name": "a", **sp}, {"name": "b", **sp}, {"name": "a", **sp}]
        )
        err = rejected(doc, "species[2].name")
        assert "duplicate" in str(err) and "'a'" in str(err)
        # names compare as the strings they become
        rejected(lbfp_doc(species=[{"name": 1, **sp}, {"name": "1", **sp}]), "species[1].name")

    @pytest.mark.parametrize(
        "name", ["a,b", 'a"b', "a'b", "a\nb", "a\rb", "", "#1", None, True, [1]]
    )
    def test_species_name_must_be_a_csv_cell(self, name):
        # the name heads rank_history/moments CSV cells, so it may carry no
        # separator, quote or line break, no leading '#' (CSV readers skip such
        # rows as comments), and must be a string or a number
        sp = {"mass": 1.0, "charge": 1.0}
        err = rejected(lbfp_doc(species=[{"name": "ok", **sp}, {"name": name, **sp}]),
                       "species[1].name")
        assert repr(name) in str(err) or repr(str(name)) in str(err)

    def test_species_names_from_numbers(self):
        sp = {"mass": 1.0, "charge": 1.0}
        cfg = validate_config(lbfp_doc(species=[{"name": 1, **sp}, {"name": 2.5, **sp}]))
        assert [s.name for s in cfg.species] == ["1", "2.5"]

    @pytest.mark.parametrize(
        "doc, key",
        [
            (heat_doc(pipeline="dense"), "pipeline"),
            (heat_doc(timing_reps=3), "timing_reps"),
            (heat_doc(grid_halfwidth=8.0), "grid_halfwidth"),
            (heat_doc(species=[{"name": "p", "mass": 1.0, "charge": 1.0}]), "species"),
            (lbfp_doc(lomac=False), "lomac"),
            (lbfp_doc(diffusion=[0.5, 0.5]), "diffusion"),
            (lbfp_doc(pipeline="dense"), "pipeline"),
            (lbfp_doc(timing_reps=3), "timing_reps"),
            (sweep_doc(lomac=True), "lomac"),
            (sweep_doc(diffusion=[0.5, 0.5]), "diffusion"),
        ],
        ids=lambda v: v if isinstance(v, str) else v["kind"],
    )
    def test_key_outside_its_kinds_rejected(self, doc, key):
        err = rejected(doc, key)
        assert doc["kind"] in str(err)

    def test_keys_inside_their_kinds_accepted(self):
        sp = [{"name": "p", "mass": 1.0, "charge": 1.0}]
        validate_config(heat_doc(lomac=False, diffusion=[0.2, 0.3]))
        validate_config(lbfp_doc(species=sp, grid_halfwidth=8.0))
        cfg = validate_config(
            sweep_doc(species=sp, grid_halfwidth=8.0, pipeline="dense", timing_reps=2)
        )
        assert (cfg.pipeline, cfg.timing_reps, cfg.halfwidth) == ("dense", 2, 8.0)
        rejected(sweep_doc(pipeline="sparse"), "pipeline")

    def test_misc_scalars(self):
        # value checks, in kinds that read the key
        for doc in (lbfp_doc, sweep_doc):
            assert "> 0" in str(rejected(doc(grid_halfwidth=0.0), "grid_halfwidth"))
        assert ">= 1" in str(rejected(sweep_doc(timing_reps=0), "timing_reps"))
        # and the kind rule where the key is not read
        rejected(heat_doc(grid_halfwidth=0.0), "grid_halfwidth")
        rejected(heat_doc(timing_reps=0), "timing_reps")
        rejected(heat_doc(seed="abc"), "seed")
        with pytest.raises(ConfigError):
            validate_config(heat_doc(output=""))

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan", "true"])
    @pytest.mark.parametrize(
        "doc, field",
        [
            (lambda v: {**heat_doc(), "time": {"t_final": v, "lambda": [100]}},
             "time.t_final"),
            (lambda v: {**lbfp_doc(), "time": {"t_final": 1.0, "dt": v}}, "time.dt"),
            (lambda v: {**heat_doc(), "time": {"t_final": 0.05, "lambda": [100, v]}},
             "time.lambda"),
            (lambda v: heat_doc(truncation={"eps_rel": v}), "truncation.eps_rel"),
            (lambda v: heat_doc(diffusion=[v, 0.5]), "diffusion[0]"),
            (lambda v: lbfp_doc(grid_halfwidth=v), "grid_halfwidth"),
            (lambda v: heat_doc(seed=v), "seed"),
            (lambda v: sweep_doc(timing_reps=v), "timing_reps"),
        ],
        ids=["t_final", "dt", "lambda", "eps_rel", "diffusion", "grid_halfwidth",
             "seed", "timing_reps"],
    )
    def test_non_finite_and_boolean_numbers(self, doc, field, value):
        # the YAML spellings a user would write; each must fail validation,
        # not pass as 1 or overflow later in int(round(t_final / dt))
        rejected(doc(yaml.safe_load(value)), field)


class TestOverridesAndLoading:
    def test_with_overrides(self):
        cfg = validate_config(heat_doc())
        out = cfg.with_overrides(output="elsewhere", seed=7)
        assert out.output == "elsewhere" and out.seed == 7
        assert cfg.output == "out" and cfg.seed == 0
        same = cfg.with_overrides()
        assert same == cfg

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "kind: heat-convergence\n"
            "integrator: dirk3\n"
            "grid:\n  n: 200\n"
            "time:\n  t_final: 0.05\n  lambda: [100, 400, 900]\n"
            "tolerances: 1e-3\n"
            "seed: 3\n"
        )
        cfg = load_config(str(path))
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.integrator == "dirk3"
        assert cfg.n == (200,)
        assert cfg.lambdas == (100.0, 400.0, 900.0)
        assert cfg.seed == 3

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.yaml"))

    def test_load_config_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("kind: [unterminated\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_readme_examples_validate(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
        kinds = {validate_config(yaml.safe_load(block)).kind for block in blocks}
        # one documented example per experiment kind
        assert kinds == set(KINDS)
