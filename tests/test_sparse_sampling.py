"""The sparse-sampling script's config reading and paired-run premise, and the records' commands."""

import dataclasses
import importlib
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import nlevel
import nlevel.cli as cli
import nlevel.propagator as propagator
from test_cli import write_config

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from nlevel.propagator import _in_frame, _step_count, _table_phases  # noqa: E402
from sparse_sampling import cases, committed, config_objects, load  # noqa: E402

CONFIGS = ["driven_three_level.json", "rabi_two_level.json"]


def without(raw, key):
    return {k: v for k, v in raw.items() if k != key}


class TestConfigObjects:
    # what `nlevel evolve` reads from a config and what the script's
    # reference and the path tests read must be the same objects
    @pytest.mark.parametrize("name, changes", [
        ("driven_three_level.json", lambda raw: raw),
        ("rabi_two_level.json", lambda raw: raw),
        ("driven_three_level.json", lambda raw: dict(raw, include_delta0=True)),
        ("rabi_two_level.json", lambda raw: without(raw, "sample_every")),
        ("rabi_two_level.json",
         lambda raw: dict(raw, initial_state=[[0.6, 0.0], [0.0, -0.8]])),
    ], ids=["driven", "rabi", "include_delta0", "no_sample_every", "amplitude_pairs"])
    def test_match_what_evolve_builds(self, tmp_path, monkeypatch, name, changes):
        raw = changes(committed(name))
        built = []

        def spy(spec, config):
            built.append((spec, config))
            return nlevel.evolve(spec, config)

        monkeypatch.setattr(cli, "evolve", spy)
        assert cli.main(["evolve", "--config", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out.csv")]) == 0
        assert built == [config_objects(raw)]


def test_cases_take_every_fresh_lab_step():
    # the lab path diagonalizes a step on its own for a last step shortened
    # to land on t_end, and for every full step when the step table does not
    # fit or the run has fewer full steps than its Q (with one sample per
    # step, no jump table takes them); the check must run each of these
    short_last = no_fit = under_q = False
    for raw in cases().values():
        spec, config = config_objects(raw)
        if _in_frame(spec):
            continue
        steps = _step_count(config.t_end - config.t_start, config.dt)
        whole = steps if config.t_start + steps * config.dt == config.t_end else steps - 1
        q = _table_phases(spec, config.dt)
        short_last |= whole < steps
        no_fit |= q is None
        under_q |= config.sample_every == 1 and q is not None and whole < q
    assert short_last and no_fit and under_q


def test_cases_take_taylor_and_eigh_steps(monkeypatch):
    # without a jump table the lab path applies fresh full-length steps and a
    # shortened last step as their Taylor series where that costs less than
    # eigh, and diagonalizes a shortened last step where it does not (n = 3,
    # about 1.5 n = 4.5 products per eigh); the check must run each
    taken = set()
    for name, position in (("_taylor_states", 1), ("_step_unitaries", 3)):
        def spy(*args, plain=getattr(propagator, name), name=name, position=position):
            taken.add((name, args[position] == dt))
            return plain(*args)

        monkeypatch.setattr(propagator, name, spy)
    for raw in cases().values():
        spec, config = config_objects(raw)
        if not _in_frame(spec):
            dt = config.dt
            nlevel.evolve(spec, config)
    assert {("_taylor_states", True), ("_taylor_states", False),
            ("_step_unitaries", False)} <= taken


@pytest.fixture(scope="module")
def second_tree():
    """The nlevel package the tests import, loaded again under another name."""
    name = "nlevel_second"
    tree = load(Path(nlevel.__file__).resolve().parent.parent, name)
    yield tree
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]


class TestSecondTree:
    def test_modules_are_distinct(self, second_tree):
        assert second_tree is not nlevel
        for part in ("algebra", "hamiltonian", "propagator", "cli"):
            first = importlib.import_module(f"nlevel.{part}")
            second = importlib.import_module(f"nlevel_second.{part}")
            assert second is not first
            assert second.__name__ == f"nlevel_second.{part}"
        assert second_tree.evolve is not nlevel.evolve
        assert second_tree.SystemSpec is not nlevel.SystemSpec

    @pytest.mark.parametrize("name", CONFIGS)
    def test_evolve_is_bit_identical(self, second_tree, name):
        raw = committed(name)
        expected = nlevel.evolve(*config_objects(raw))
        spec, config = config_objects(raw, "nlevel_second")
        assert type(spec) is second_tree.SystemSpec
        traj = second_tree.evolve(spec, config)
        for field in dataclasses.fields(expected):
            assert np.array_equal(getattr(traj, field.name), getattr(expected, field.name))


def test_every_record_names_the_script_that_makes_it():
    # a committed BENCH_*.json is a figure only if a script in benchmarks/
    # can make it again
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for record in records:
        command = json.loads(record.read_text()).get("command")
        assert isinstance(command, str), record.name
        script = Path(shlex.split(command)[1])
        assert script.parent == Path("benchmarks"), record.name
        assert (ROOT / script).is_file(), record.name
