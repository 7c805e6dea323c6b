import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlevel.algebra as algebra
import nlevel.cli as cli
from nlevel import (
    EvolutionConfig,
    SystemSpec,
    build_clock,
    build_fourier,
    build_shift,
    energies_to_deltas,
    evolve,
)
from nlevel.algebra import root_power

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_EVOLVE = {
    "n": 2,
    "energies": [0.5, -0.5],
    "g": 0.3,
    "omega": 1.0,
    "drive_model": "generalized",
    "t_start": 0.0,
    "t_end": 2.0,
    "dt": 0.05,
    "initial_state": 0,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nlevel", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_matrix(rows):
    return np.array(
        [[complex(cell["re"], cell["im"]) for cell in row] for row in rows]
    )


class TestAlgebraCommand:
    def test_reports_all_identities(self):
        proc = run_cli("algebra", "--n", "4")
        assert proc.returncode == 0
        assert "all identities hold" in proc.stdout
        assert proc.stdout.count("PASS") == 9
        assert "FAIL" not in proc.stdout

    def test_custom_tolerance(self):
        proc = run_cli("algebra", "--n", "6", "--tol", "1e-10")
        assert proc.returncode == 0

    def test_impossible_tolerance_fails(self):
        proc = run_cli("algebra", "--n", "6", "--tol", "1e-30")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_rejects_tolerance_not_finite_or_negative(self, tol):
        # a usage error, before any audit: NaN and -1 failed all nine checks,
        # and inf passed every one
        proc = run_cli("algebra", "--n", "4", "--tol", tol)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: nlevel algebra")
        assert "tolerance must be a finite number >= 0" in proc.stderr

    def test_zero_tolerance_runs_the_audit(self):
        proc = run_cli("algebra", "--n", "4", "--tol", "0")
        assert proc.stdout.startswith("identity audit: n = 4, tolerance = 0")

    def test_rejects_small_dimension(self):
        proc = run_cli("algebra", "--n", "1")
        assert proc.returncode == 1
        assert "error" in proc.stderr
        # identity_residuals refuses the dimension before the audit's header
        assert proc.stdout == ""

    def test_rejects_unparseable_dimension(self):
        proc = run_cli("algebra", "--n", "two")
        assert proc.returncode == 1


class TestMatricesCommand:
    def test_payload_round_trips_exactly(self, tmp_path):
        out = tmp_path / "mats.json"
        proc = run_cli("matrices", "--n", "5", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 5
        # json floats reproduce doubles exactly, so equality is bitwise
        assert np.array_equal(parse_matrix(payload["shift"]), build_shift(5))
        assert np.array_equal(parse_matrix(payload["clock"]), build_clock(5))
        assert np.array_equal(parse_matrix(payload["fourier"]), build_fourier(5))

    def test_writes_to_stdout_by_default(self):
        proc = run_cli("matrices", "--n", "2")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert parse_matrix(payload["shift"]).shape == (2, 2)

    def test_text_is_json_dumps_with_indent_2(self, tmp_path):
        # written a matrix row at a time, byte for byte what json.dumps
        # writes for the whole payload
        def entries(m):
            return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]

        out = tmp_path / "mats.json"
        for n in range(2, 65):
            assert cli.main(["matrices", "--n", str(n), "--out", str(out)]) == 0
            payload = {"n": n, "shift": entries(build_shift(n)),
                       "clock": entries(build_clock(n)),
                       "fourier": entries(build_fourier(n))}
            assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_memory_stays_within_a_few_matrices(self, tmp_path):
        # at n = 128 one matrix takes 256 KiB; holding the JSON objects of
        # all three took about 150 matrices' worth
        out = tmp_path / "mats.json"
        tracemalloc.start()
        try:
            assert cli.main(["matrices", "--n", "128", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * 128 * 128

    def test_non_finite_matrix_exits_1_without_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_clock", lambda n: np.full((n, n), np.nan + 0j))
        target = tmp_path / "mats.json"
        assert cli.main(["matrices", "--n", "2", "--out", str(target)]) == 1
        assert "not JSON compliant" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        assert cli.main(["matrices", "--n", "2"]) == 1
        assert capsys.readouterr().out == ""


class TestDecomposeCommand:
    def test_two_level_splitting(self, tmp_path):
        config = write_config(tmp_path, {"n": 2, "energies": [1.0, -1.0]})
        proc = run_cli("decompose", "--config", config)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        deltas = payload["deltas"]
        assert deltas[0]["re"] == 0.0 and deltas[0]["im"] == 0.0
        assert abs(deltas[1]["re"] - 1.0) <= 1e-15
        assert abs(deltas[1]["im"]) <= 1e-15
        assert payload["hermitian_residual"] <= 1e-12
        assert payload["reconstruction_residual"] <= 1e-12

    def test_constant_energies(self, tmp_path):
        config = write_config(tmp_path, {"n": 3, "energies": [2.0, 2.0, 2.0]})
        proc = run_cli("decompose", "--config", config)
        payload = json.loads(proc.stdout)
        assert abs(payload["deltas"][0]["re"] - 2.0) <= 1e-13
        for cell in payload["deltas"][1:]:
            assert abs(complex(cell["re"], cell["im"])) <= 1e-13

    def test_extreme_energies_decompose_to_finite_json(self, tmp_path):
        # the alternating sum 4e308 overflows unless the energies are scaled first
        energies = [1e308, -1e308, 1e308, -1e308]
        config = write_config(tmp_path, {"n": 4, "energies": energies})
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nlevel", "decompose", "--config", config],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        deltas = parse_matrix([payload["deltas"]])[0]
        assert np.array_equal(deltas, energies_to_deltas(energies))
        assert deltas[2].real == 1e308
        # the roots of unity are rounded to about eps, so are the sums of 1e308
        assert payload["hermitian_residual"] <= 1e-15 * 1e308
        assert payload["reconstruction_residual"] <= 1e-15 * 1e308

    def test_non_finite_report_exits_1_without_output(self, tmp_path, monkeypatch, capsys):
        # no finite energies give non-finite deltas; a NaN, which JSON cannot
        # hold, must still write nothing
        monkeypatch.setattr(cli, "energies_to_deltas",
                            lambda energies: np.full(len(energies), np.nan + 0j))
        config = write_config(tmp_path, {"n": 2, "energies": [1.0, -1.0]})
        target = tmp_path / "report.json"
        assert cli.main(["decompose", "--config", config, "--out", str(target)]) == 1
        assert "not JSON compliant" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]
        assert cli.main(["decompose", "--config", config]) == 1
        assert capsys.readouterr().out == ""

    def test_unknown_key_is_named(self, tmp_path):
        config = write_config(tmp_path, {"n": 2, "energies": [0, 1], "bogus": 3})
        proc = run_cli("decompose", "--config", config)
        assert proc.returncode == 1
        assert "unknown config key" in proc.stderr
        assert "bogus" in proc.stderr

    def test_missing_key_is_named(self, tmp_path):
        config = write_config(tmp_path, {"n": 2})
        proc = run_cli("decompose", "--config", config)
        assert proc.returncode == 1
        assert "energies" in proc.stderr

    def test_output_path_fallback(self, tmp_path):
        target = tmp_path / "report.json"
        payload = {"n": 2, "energies": [1.0, -1.0], "output_path": str(target)}
        proc = run_cli("decompose", "--config", write_config(tmp_path, payload))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(target.read_text())["energies"] == [1.0, -1.0]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("decompose", "--config", str(path))
        assert proc.returncode == 1
        assert "invalid JSON" in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_cli("decompose", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("name", ["driven_three_level.json", "rabi_two_level.json"])
    def test_committed_config_report(self, name, capsys):
        # the report, rebuilt from the library calls it is made of
        raw = json.loads((CONFIGS / name).read_text())
        n, energies = raw["n"], raw["energies"]
        deltas = energies_to_deltas(energies)
        pairing = max(abs(deltas[(n - j) % n] - deltas[j].conjugate()) for j in range(n))
        # sum_j Delta_j clock^j, on the diagonal
        k = np.arange(n)
        residual = np.max(np.abs(root_power(n, k[:, None] * k) @ deltas - np.array(energies)))
        expected = {
            "n": n,
            "energies": [float(e) for e in energies],
            "deltas": [{"re": float(d.real), "im": float(d.imag)} for d in deltas],
            "hermitian_residual": float(pairing),
            "reconstruction_residual": float(residual),
        }
        assert cli.main(["decompose", "--config", str(CONFIGS / name)]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestEvolveCommand:
    def test_csv_contract(self, tmp_path):
        config = write_config(tmp_path, BASE_EVOLVE)
        out = tmp_path / "traj.csv"
        proc = run_cli("evolve", "--config", config, "--out", str(out))
        assert proc.returncode == 0, proc.stderr

        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("ascii").split("\n")
        assert lines[0] == "t,p0,p1,norm_error"
        assert lines[-1] == ""
        body = lines[1:-1]
        assert len(body) == 41
        for line in body:
            assert not line.endswith(",")
            assert len(line.split(",")) == 4

        data = np.array([[float(x) for x in line.split(",")] for line in body])
        times = data[:, 0]
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0
        assert times[-1] == 2.0
        assert np.allclose(data[:, 1:3].sum(axis=1), 1.0, atol=1e-9)
        assert float(np.max(data[:, 3])) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, BASE_EVOLVE)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli("evolve", "--config", config, "--out", str(out_a)).returncode == 0
        assert run_cli("evolve", "--config", config, "--out", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_output_path_fallback(self, tmp_path):
        target = tmp_path / "from_config.csv"
        payload = dict(BASE_EVOLVE, output_path=str(target))
        config = write_config(tmp_path, payload)
        proc = run_cli("evolve", "--config", config)
        assert proc.returncode == 0
        assert target.exists()

    def test_out_flag_wins_over_config(self, tmp_path):
        ignored = tmp_path / "ignored.csv"
        chosen = tmp_path / "chosen.csv"
        payload = dict(BASE_EVOLVE, output_path=str(ignored))
        config = write_config(tmp_path, payload)
        proc = run_cli("evolve", "--config", config, "--out", str(chosen))
        assert proc.returncode == 0
        assert chosen.exists()
        assert not ignored.exists()

    def test_unknown_key_is_named(self, tmp_path):
        payload = dict(BASE_EVOLVE, sampel_every=2)
        out = tmp_path / "x.csv"
        config = write_config(tmp_path, payload)
        proc = run_cli("evolve", "--config", config, "--out", str(out))
        assert proc.returncode == 1
        assert "unknown config key: 'sampel_every'" in proc.stderr
        assert not out.exists()

    def test_missing_output_path(self, tmp_path):
        config = write_config(tmp_path, BASE_EVOLVE)
        proc = run_cli("evolve", "--config", config)
        assert proc.returncode == 1
        assert "no output path" in proc.stderr

    def test_explicit_amplitude_initial_state(self, tmp_path):
        by_index = dict(BASE_EVOLVE, initial_state=1)
        by_pairs = dict(BASE_EVOLVE, initial_state=[[0.0, 0.0], [1.0, 0.0]])
        out_a = tmp_path / "idx.csv"
        out_b = tmp_path / "amp.csv"
        run_cli("evolve", "--config", write_config(tmp_path, by_index, "i.json"),
                "--out", str(out_a))
        run_cli("evolve", "--config", write_config(tmp_path, by_pairs, "p.json"),
                "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_initial_state(self, tmp_path):
        payload = dict(BASE_EVOLVE, initial_state=7)
        config = write_config(tmp_path, payload)
        proc = run_cli("evolve", "--config", config, "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1

    # in-process: one fresh interpreter per value would add seconds to the suite
    @pytest.mark.parametrize("value, message", [
        (True, "must be an index or [re, im] pairs"),
        ("0", "must be an index or [re, im] pairs"),
        ({"re": 1}, "must be an index or [re, im] pairs"),
        (1.5, "must be an index or [re, im] pairs"),
        (None, "must be an index or [re, im] pairs"),
        ([1, 0], "entries must be [re, im] number pairs"),
        ([[1]], "entries must be [re, im] number pairs"),
        ([[1, 0, 0], [0, 0, 0]], "entries must be [re, im] number pairs"),
        ([[True, 0], [0, 0]], "amplitude must be a real number, got True"),
        ([[1, "x"], [0, 0]], "amplitude must be a real number, got 'x'"),
        ([[1, None], [0, 0]], "amplitude must be a real number, got None"),
        ([[10**400, 0], [0, 0]], "amplitude is too large for float64"),
        ([], "must have 2 amplitudes, got shape (0,)"),
        ([[1, 0]], "must have 2 amplitudes, got shape (1,)"),
        ([[1, 0], [0, 0], [0, 0]], "must have 2 amplitudes, got shape (3,)"),
        ([[0, 0], [0, 0]], "must not be the zero vector"),
        (-1, "index -1 outside [0, 2)"),
    ], ids=["bool", "string", "object", "float", "null", "flat_pair", "short_pair",
            "long_pairs", "bool_entry", "string_entry", "null_entry", "huge_entry",
            "no_pairs", "too_few_pairs", "too_many_pairs", "zero_vector", "negative_index"])
    def test_malformed_initial_state_exits_1(self, tmp_path, capsys, value, message):
        out = tmp_path / "x.csv"
        payload = dict(BASE_EVOLVE, initial_state=value)
        assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nlevel: error: ")
        assert message in err
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_sample_every_thins_rows(self, tmp_path):
        payload = dict(BASE_EVOLVE, sample_every=8)
        config = write_config(tmp_path, payload)
        out = tmp_path / "thin.csv"
        run_cli("evolve", "--config", config, "--out", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) - 1 == 6

    def test_drive_keys_default_to_static(self, tmp_path):
        payload = {k: v for k, v in BASE_EVOLVE.items()
                   if k not in ("g", "omega", "drive_model")}
        payload["initial_state"] = [[0.6, 0.0], [0.0, 0.8]]
        out = tmp_path / "static.csv"
        assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (41, 4)
        assert np.max(np.abs(data[:, 1:3] - [0.36, 0.64])) <= 1e-12

    @pytest.mark.parametrize("key, value", [("n", 2.5), ("sample_every", 2.0)])
    def test_non_integer_count_exits_1(self, tmp_path, capsys, key, value):
        payload = dict(BASE_EVOLVE, **{key: value})
        out = tmp_path / "x.csv"
        assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 1
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["t_end", "dt", "energies"])
    def test_missing_required_key(self, tmp_path, key):
        payload = {k: v for k, v in BASE_EVOLVE.items() if k != key}
        config = write_config(tmp_path, payload)
        proc = run_cli("evolve", "--config", config, "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        assert key in proc.stderr


class TestConfigSchema:
    # the keys come from the SystemSpec and EvolutionConfig fields, so a
    # renamed field would otherwise rename a config key without notice
    DOCUMENTED_KEYS = {
        "n", "energies", "g", "omega", "drive_model", "include_delta0",
        "t_start", "t_end", "dt", "sample_every", "initial_state", "output_path",
    }

    def test_accepted_keys_are_the_documented_ones(self):
        assert cli._CONFIG_KEYS == self.DOCUMENTED_KEYS

    def test_optional_fields_reach_the_run(self, tmp_path):
        # a nonzero mean energy, so include_delta0 changes the rounding
        payload = dict(BASE_EVOLVE, energies=[100.5, 99.5], include_delta0=True,
                       sample_every=3)
        out = tmp_path / "cli.csv"
        assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0

        def library_csv(include_delta0, sample_every):
            spec = SystemSpec(n=2, energies=(100.5, 99.5), g=0.3, omega=1.0,
                              drive_model="generalized", include_delta0=include_delta0)
            config = EvolutionConfig(t_start=0.0, t_end=2.0, dt=0.05, initial_state=0,
                                     sample_every=sample_every)
            traj = evolve(spec, config)
            data = np.column_stack((traj.times, traj.populations, traj.norm_errors))
            return "t,p0,p1,norm_error\n" + "".join(cli._csv_blocks(data))

        assert out.read_text() == library_csv(True, 3)
        assert out.read_text() != library_csv(False, 3)
        assert out.read_text() != library_csv(True, 1)

    def test_non_bool_include_delta0_exits_1(self, tmp_path, capsys):
        payload = dict(BASE_EVOLVE, include_delta0=1)
        out = tmp_path / "x.csv"
        assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 1
        assert "include_delta0 must be a bool" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "decompose"])
    def test_non_string_output_path_exits_1(self, tmp_path, command):
        config = write_config(tmp_path, dict(BASE_EVOLVE, output_path=5))
        proc = run_cli(command, "--config", config)
        assert proc.returncode == 1
        assert "nlevel: error: config key 'output_path' must be a string" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == ["config.json"]

    def test_null_output_path_means_absent(self, tmp_path):
        config = write_config(tmp_path, dict(BASE_EVOLVE, output_path=None))
        proc = run_cli("evolve", "--config", config)
        assert proc.returncode == 1
        assert "no output path" in proc.stderr
        out = tmp_path / "x.csv"
        assert run_cli("evolve", "--config", config, "--out", str(out)).returncode == 0
        assert out.exists()


class TestEvolveFailureExitCodes:
    # in-process, so the numerical layers can be replaced by failing fakes

    @staticmethod
    def _evolve(tmp_path, payload):
        out = tmp_path / "x.csv"
        code = cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)])
        return code, out

    def test_solver_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        def fail(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out = self._evolve(tmp_path, BASE_EVOLVE)
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()
        assert os.listdir(tmp_path) == ["config.json"]

    def test_solver_failure_in_the_phase_table_exits_2(self, tmp_path, monkeypatch,
                                                       capsys):
        # 40 full-length steps of dt g / 2 = 7.5e-3 take their unitaries from a
        # table of 7 phases, whose eigh comes first
        def fail(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out = self._evolve(tmp_path, BASE_EVOLVE)
        assert code == 2
        assert "drive-phase table" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_in_the_rotating_frame_exits_2(self, tmp_path, monkeypatch,
                                                          capsys):
        # a static three-level spec takes every full-length step from one
        # eigh, of H(0); at n = 2 the frame makes none
        def fail(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        payload = dict(BASE_EVOLVE, n=3, energies=[-1.0, 0.3, 1.1], drive_model="none")
        code, out = self._evolve(tmp_path, payload)
        assert code == 2
        assert "rotating frame" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("energies, g, dt, t_end, what", [
        ([1.7e308, -1.7e308, 0.0], 1e308, 0.1, 1.0, "step phase bound"),
        ([1.7e308, 1.7e308, 1.0], 0.25, 0.1, 1.0, "drift"),
        ([1e300, -1e300, 0.0], 0.25, 1e9, 1e10, "step phase bound"),  # eigh
        ([1e300, -1e300, 0.0], 1e-10, 1e9, 1e11, "step phase bound"),  # phase table
    ], ids=["drift_plus_g", "mean_energy", "eigh", "table"])
    def test_too_large_for_float64_exits_1(self, tmp_path, energies, g, dt, t_end, what):
        # a fresh interpreter with warnings as errors: an overflow warning
        # anywhere in the run would end it with a traceback instead
        payload = dict(BASE_EVOLVE, n=3, energies=energies, g=g, dt=dt, t_end=t_end)
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nlevel", "evolve",
             "--config", write_config(tmp_path, payload), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"nlevel: error: {what} ")
        assert proc.stderr.endswith(" is too large for float64\n")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_overflowing_drive_phase_exits_1(self, tmp_path, capsys):
        # w t overflows between t_start and t_end: no step may write NaN
        payload = dict(BASE_EVOLVE, n=3, energies=[-1.0, 0.3, 1.1], g=1e-10,
                       omega=1e300, t_start=1.7975e8, t_end=1.798e8, dt=1.0,
                       sample_every=10000)
        code, out = self._evolve(tmp_path, payload)
        assert code == 1
        assert "drive phase w t is not finite at t = 179800000.0" in capsys.readouterr().err
        assert not out.exists()

    def test_static_spec_with_overflowing_drive_phase_exits_0(self, tmp_path):
        # without a drive the phase w t plays no part, however large
        payload = dict(BASE_EVOLVE, n=3, energies=[-1.0, 0.3, 1.1], g=0.0,
                       omega=1e300, drive_model="none", t_end=1e9, dt=1e8)
        code, out = self._evolve(tmp_path, payload)
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (11, 5)
        assert np.allclose(data[:, 1:4], [1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("out", ["nodir/x.csv", ""])
    def test_bad_output_path_exits_1_before_the_run(self, tmp_path, monkeypatch, capsys, out):
        work = tmp_path / "work"
        work.mkdir()
        config = write_config(work, BASE_EVOLVE)
        monkeypatch.chdir(work)

        def never(spec, config):
            pytest.fail("evolve ran before the output path was opened")

        monkeypatch.setattr(cli, "evolve", never)
        assert cli.main(["evolve", "--config", config, "--out", out]) == 1
        assert "nlevel: error:" in capsys.readouterr().err
        assert os.listdir(work) == ["config.json"]
        assert os.listdir(tmp_path) == ["work"]

    def test_empty_decompose_output_path_exits_1(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        config = write_config(work, BASE_EVOLVE)
        monkeypatch.chdir(work)
        assert cli.main(["decompose", "--config", config, "--out", ""]) == 1
        assert "must not be empty" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["work"]

    @pytest.mark.filterwarnings("error")
    def test_energy_offset_runs(self, tmp_path):
        # a mean energy of 1e6 next to a spacing of 1 is a valid system, in a
        # short run and in the committed three-level config
        short = dict(BASE_EVOLVE, n=3, energies=[-1.0, 0.3, 1.1])
        driven = json.loads((CONFIGS / "driven_three_level.json").read_text())
        for case, payload in (("short", short), ("driven", driven)):
            lifted = dict(payload, energies=[e + 1e6 for e in payload["energies"]])
            rows = []
            for name, config in (("a", payload), ("b", lifted)):
                out = tmp_path / f"{case}_{name}.csv"
                path = write_config(tmp_path, config, name=f"{case}_{name}.json")
                assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 0
                rows.append(np.loadtxt(out, delimiter=",", skiprows=1))
            assert len(rows[0]) > 1
            assert np.array_equal(rows[0][:, 0], rows[1][:, 0])
            assert np.max(np.abs(rows[0][:, 1:4] - rows[1][:, 1:4])) <= 1e-9

    # JSON integers have no size limit; one past float64 must be refused like
    # any bad value, in a fresh interpreter so that a traceback would show
    @pytest.mark.parametrize("key", ["t_end", "t_start", "dt", "g", "omega", "energies",
                                     "initial_state"])
    def test_huge_integer_exits_1(self, tmp_path, key):
        huge = 10**400
        value = {"energies": [huge, -0.5], "initial_state": [[huge, 0], [0, 0]]}.get(key, huge)
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nlevel", "evolve",
             "--config", write_config(tmp_path, dict(BASE_EVOLVE, **{key: value})),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("nlevel: error: ")
        assert proc.stderr.endswith(" is too large for float64\n")
        assert proc.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_huge_sample_every_samples_the_ends(self, tmp_path):
        # 40 steps: any sample_every past them writes the rows of 41
        rows = []
        for every in (2**70, 41):
            out = tmp_path / f"every{every}.csv"
            config = write_config(tmp_path, dict(BASE_EVOLVE, sample_every=every))
            proc = run_cli("evolve", "--config", config, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            rows.append(out.read_text())
        assert rows[0] == rows[1]
        assert len(rows[0].splitlines()) == 3

    def test_oversized_sample_grid_exits_1(self, tmp_path, capsys):
        payload = dict(BASE_EVOLVE, n=64, energies=list(range(64)), t_end=1.0, dt=2e-8)
        code, out = self._evolve(tmp_path, payload)
        assert code == 1
        assert "byte budget" in capsys.readouterr().err
        assert not out.exists()


class TestDimensionBudget:
    # one n x n complex matrix may take algebra._MAX_MATRIX_BYTES; patched to
    # just under a 3 x 3 matrix, n = 3 is over it and n = 2 is not, so each
    # command is refused at n = 3 before it allocates anything n x n

    @staticmethod
    def _args(command, tmp_path, n):
        out = tmp_path / f"{command}_{n}.out"
        config = write_config(tmp_path, dict(BASE_EVOLVE, n=n, energies=[0.5, -0.5, 0.1][:n]))
        return out, {
            "algebra": ["algebra", "--n", str(n)],
            "matrices": ["matrices", "--n", str(n), "--out", str(out)],
            "decompose": ["decompose", "--config", config, "--out", str(out)],
            "evolve": ["evolve", "--config", config, "--out", str(out)],
        }[command]

    @pytest.mark.parametrize("command", ["algebra", "matrices", "decompose", "evolve"])
    def test_dimension_over_the_budget_exits_1(self, tmp_path, monkeypatch, capsys,
                                               command):
        monkeypatch.setattr(algebra, "_MAX_MATRIX_BYTES", 16 * 3 * 3 - 1)
        out, args = self._args(command, tmp_path, 2)
        assert cli.main(args) == 0
        capsys.readouterr()
        out, args = self._args(command, tmp_path, 3)
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "nlevel: error: dimension 3 needs 144 bytes per n x n matrix, "
            "over the 143-byte budget\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_budget_allows_n_up_to_512(self, capsys):
        assert algebra._check_dim(512) == 512
        with pytest.raises(ValueError, match="over the 4194304-byte budget"):
            algebra._check_dim(513)
        # 160 GB per matrix: refused before anything is built
        assert cli.main(["algebra", "--n", "100000"]) == 1
        assert "byte budget" in capsys.readouterr().err


class TestOutputFiles:
    EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
                   float("nan"), float("inf"), float("-inf"), 0.1, 1.0 / 3.0, 123456789.0]

    def test_csv_text_matches_per_field_format(self, monkeypatch):
        data = np.array(self.EDGE_VALUES).reshape(4, 3)
        expected = "".join(
            ",".join(format(x, ".17g") for x in row) + "\n" for row in data
        )
        assert "".join(cli._csv_blocks(data)) == expected
        # rows split across blocks, and columns passed apart, give the same text
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        assert "".join(cli._csv_blocks(data)) == expected
        assert "".join(cli._csv_blocks(data[:, 0], data[:, 1:])) == expected

    def test_evolve_holds_the_trajectory_once(self, tmp_path, monkeypatch):
        # 100,001 samples of two levels: times, populations and norm errors
        # take 3.2 MB, which stacking them whole for the CSV held a second
        # time (2.09 times the counted bytes at the peak).  Short blocks keep
        # the text of one block small beside them
        samples = 100_001
        payload = dict(BASE_EVOLVE, drive_model="rwa2", t_end=(samples - 1) * 0.01,
                       dt=0.01)
        config = write_config(tmp_path, payload)
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 256)
        tracemalloc.start()
        try:
            assert cli.main(["evolve", "--config", config, "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * samples * (2 + 2) * 8

    def test_failed_csv_write_keeps_existing_output(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"t,p0,p1,norm_error\nearlier run\n")
        config = write_config(tmp_path, BASE_EVOLVE)

        def fail_midway(*columns):
            yield "0,1,0,0\n"
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "_csv_blocks", fail_midway)
        code = cli.main(["evolve", "--config", config, "--out", str(out)])
        assert code == 1
        assert "No space left" in capsys.readouterr().err
        assert out.read_bytes() == b"t,p0,p1,norm_error\nearlier run\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "x.csv"]

    def test_failed_json_write_keeps_existing_output(self, tmp_path, monkeypatch):
        out = tmp_path / "m.json"
        out.write_bytes(b"{}\n")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        assert cli.main(["matrices", "--n", "3", "--out", str(out)]) == 1
        assert out.read_bytes() == b"{}\n"
        assert os.listdir(tmp_path) == ["m.json"]

    def test_write_replaces_existing_output(self, tmp_path):
        out = tmp_path / "m.json"
        out.write_bytes(b"stale and longer than the new content" * 100)
        assert cli.main(["matrices", "--n", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 2
        assert os.listdir(tmp_path) == ["m.json"]


    def test_symlink_target_is_replaced(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"{}\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert cli.main(["matrices", "--n", "2", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["n"] == 2
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    def test_pipe_is_written_in_place(self, tmp_path):
        # a pipe or device (say /dev/stdout) cannot be renamed over
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_bytes()), daemon=True
        )
        reader.start()
        code = cli.main(["matrices", "--n", "2", "--out", str(pipe)])
        reader.join(timeout=10)
        assert code == 0
        assert not reader.is_alive()
        assert json.loads(received[0])["n"] == 2
        assert os.listdir(tmp_path) == ["pipe"]


class TestCommandLineSurface:
    def test_no_arguments_shows_usage(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_unknown_subcommand(self):
        proc = run_cli("transmogrify")
        assert proc.returncode == 1
