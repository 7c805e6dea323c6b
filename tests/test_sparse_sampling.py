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
from test_cli import write_config
from test_propagator import spy_on

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from nlevel.propagator import _in_frame  # noqa: E402
import sparse_sampling  # noqa: E402
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


@pytest.fixture(scope="module")
def lab_routes():
    """Every route _steps takes over the non-frame cases(), with whether the step is full-length.

    _steps takes the lab path's full-length steps and its shortened last
    step as Taylor steps or from eigh, and full-length steps summed from a
    phase or jump table; one run of the cases serves every test below.
    """
    taken = set()
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_on(monkeypatch, "_steps", lambda args, steps: args)
        for raw in cases().values():
            spec, config = config_objects(raw)
            if not _in_frame(spec):
                del calls[:]
                nlevel.evolve(spec, config)
                taken |= {("taylor" if c["order"] is not None else
                           "eigh" if c["table"] is None else "table", c["h"] == config.dt)
                          for c in calls}
    return taken


def test_cases_take_every_fresh_lab_step(lab_routes):
    # the lab path diagonalizes a step on its own for a last step shortened
    # to land on t_end and for full steps no table takes, and sums the other
    # full steps from a table; the check must run each of these
    assert {("eigh", True), ("eigh", False), ("table", True)} <= lab_routes


def test_cases_take_taylor_and_eigh_steps(lab_routes):
    # without a jump table the lab path applies fresh full-length steps and a
    # shortened last step as their Taylor series where that costs less than
    # eigh, and diagonalizes a shortened last step where it does not (n = 3,
    # about 1.5 n = 4.5 products per eigh); the check must run each
    assert {("taylor", True), ("taylor", False), ("eigh", False)} <= lab_routes


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


@pytest.mark.parametrize("outside, command", [
    (0, "PARENT_SRC src --calls 21 --out OUT"),
    (1, "src CHANGE_SRC --calls 21 --out OUT"),
], ids=["parent_outside", "change_outside"])
def test_paired_record_names_no_local_path(tmp_path, monkeypatch, outside, command):
    # a tree outside the repository is named by its role, one inside it by
    # its path from the root; one two-step case, both sides the tree under
    # test, and the process left unpinned
    monkeypatch.setattr(sparse_sampling, "cases",
                        lambda: {"short_n3_2_every1": cases()["short_n3_2_every1"]})
    monkeypatch.setattr(sparse_sampling, "load", lambda src, name="nlevel": nlevel)
    monkeypatch.setattr(sparse_sampling.os, "sched_setaffinity", lambda pid, cpus: None)
    trees = [str(ROOT / "src")] * 2
    trees[outside] = str(tmp_path / "checkout" / "src")
    out = tmp_path / "pairs.json"
    assert sparse_sampling.main([*trees, "--calls", "21", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["command"] == "python benchmarks/sparse_sampling.py " + command
    assert str(tmp_path) not in out.read_text()


def test_check_fails_a_run_that_samples_an_instant_twice(monkeypatch):
    # a zero-length last step samples t_end twice; the check must fail that
    # run whatever its populations read
    raw = cases()["late_start_n3_10_every10"]
    traj = nlevel.evolve(*config_objects(raw))
    twice = dataclasses.replace(
        traj, times=np.append(traj.times, traj.times[-1]),
        populations=np.vstack([traj.populations, traj.populations[-1:]]),
        norm_errors=np.append(traj.norm_errors, traj.norm_errors[-1]))
    monkeypatch.setattr(sparse_sampling, "cases", lambda: {"late_start": raw})
    monkeypatch.setattr(sparse_sampling, "load", lambda src, name="nlevel": nlevel)
    assert sparse_sampling.main([str(ROOT / "src")]) == 0
    monkeypatch.setattr(nlevel, "evolve", lambda spec, config: twice)
    result = sparse_sampling.check(nlevel, {"late_start": raw},
                                   {"late_start": traj.populations}, nlevel.propagator._grid)
    assert not result["late_start"]["times_increase"]
    assert sparse_sampling.main([str(ROOT / "src")]) == 1
