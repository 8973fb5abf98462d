import csv
import json

import numpy as np
import pytest

from nested_alloc import read_instance, read_solution, solve
from nested_alloc.model import objective_value
from nested_alloc.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def quad_instance_file(tmp_path):
    doc = {
        "n": 2, "m": 2, "s": [1, 2], "a": [1.0], "B": 4.0,
        "lower": [0.0, 0.0], "upper": [3.0, 3.0], "mode": "continuous",
        "objective": {"family": "quadratic", "params": {"w": [1.0, 1.0], "t": [0.0, 0.0]}},
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    return path


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["gen", "--family", "crashing", "--n", 100, "--m", 100, "--seed", 7, "--out", a]) == 0
        assert run(["gen", "--family", "crashing", "--n", 100, "--m", 100, "--seed", 7, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_m_larger_than_n_fails(self, tmp_path):
        rc = run(["gen", "--family", "f", "--n", 10, "--m", 20, "--seed", 1,
                  "--out", tmp_path / "x.json"])
        assert rc == 1

    def test_breakpoints_validated_by_reader(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--family", "fuelopt", "--n", 1000, "--m", 10, "--seed", 3,
                    "--out", out]) == 0
        inst = read_instance(out.read_bytes())
        assert inst.m == 10 and inst.s[-1] == 1000 and np.all(np.diff(inst.s) > 0)

    def test_integer_mode_scaling(self, tmp_path):
        out = tmp_path / "int.json"
        assert run(["gen", "--family", "fuelopt", "--n", 20, "--m", 20, "--seed", 5,
                    "--mode", "int", "--scale", 1000, "--out", out]) == 0
        inst = read_instance(out.read_bytes())
        assert inst.mode.value == "integer"
        assert np.all(inst.lower == np.floor(inst.lower))

    @pytest.mark.parametrize("scale", [0, -1.0, "nan", "inf"])
    def test_scale_must_be_finite_and_positive(self, tmp_path, capsys, scale):
        """A zero scale would write an all-zero instance and exit 0."""
        out = tmp_path / "int.json"
        assert run(["gen", "--family", "fuelopt", "--n", 20, "--m", 20, "--seed", 5,
                    "--mode", "int", "--scale", scale, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: scale: ")
        assert not out.exists()


class TestSolve:
    def test_quadratic_example(self, quad_instance_file, tmp_path):
        out = tmp_path / "sol.json"
        rc = run(["solve", quad_instance_file, "--epsilon", 1e-8, "--out", out, "--stats"])
        assert rc == 0
        sol = read_solution(out.read_bytes())
        assert np.allclose(sol.x, [1.0, 3.0], atol=1e-7)
        stats = json.loads(out.read_bytes())["stats"]
        assert stats["active_constraints"] == 1
        assert stats["rap_calls"] == 3

    @pytest.mark.parametrize("mode", ["cont", "int"])
    def test_stats_carry_kernel_counters(self, tmp_path, capsys, mode):
        inst_path, out = tmp_path / "inst.json", tmp_path / "sol.json"
        assert run(["gen", "--family", "fuelopt", "--n", 200, "--m", 200, "--seed", 2,
                    "--mode", mode, "--scale", 1000, "--out", inst_path]) == 0
        assert run(["solve", inst_path, "--epsilon", 1e-8, "--out", out, "--stats"]) == 0
        stats = json.loads(out.read_bytes())["stats"]
        _, expected = solve(read_instance(inst_path.read_bytes()),
                            eps=1e-8 if mode == "cont" else None)
        assert stats["kernel_steps"] == expected.kernel_steps > 0
        assert stats["kernel_evals"] == expected.kernel_evals > 0
        line = json.loads(capsys.readouterr().err)
        assert line == {"status": "optimal", **stats}

    def test_malformed_array_is_a_clean_error(self, tmp_path, capsys):
        doc = {
            "n": 2, "m": 2, "s": [1, 2], "a": [1.0], "B": 4.0,
            "lower": [0.0, "0"], "upper": [3.0, 3.0], "mode": "continuous",
            "objective": {"family": "quadratic", "params": {"w": [1.0, 1.0], "t": [0.0, 0.0]}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lower: ") and "Traceback" not in err

    def test_boolean_is_a_clean_error(self, tmp_path, capsys):
        doc = {
            "n": 2, "m": 2, "s": [True, 2], "a": [1.0], "B": 4.0,
            "lower": [0.0, 0.0], "upper": [3.0, 3.0], "mode": "continuous",
            "objective": {"family": "quadratic", "params": {"w": [1.0, 1.0], "t": [0.0, 0.0]}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: s: ") and "Traceback" not in err

    def test_infeasible_exit_code(self, tmp_path):
        doc = {
            "n": 2, "m": 1, "s": [2], "a": [], "B": 3.0,
            "lower": [0.0, 0.0], "upper": [1.0, 1.0], "mode": "integer",
            "objective": {"family": "quadratic", "params": {"w": [1, 1], "t": [0, 0]}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", path]) == 2

    def test_hull_rejects_ineligible_family(self, tmp_path):
        out = tmp_path / "f.json"
        run(["gen", "--family", "f", "--n", 10, "--m", 10, "--seed", 1, "--out", out])
        assert run(["solve", out, "--solver", "hull"]) == 1

    def test_hull_solver_on_eligible(self, quad_instance_file, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve", quad_instance_file, "--solver", "hull", "--out", out]) == 0
        sol = read_solution(out.read_bytes())
        assert np.allclose(sol.x, [1.0, 3.0])

    def test_hull_rejects_integer_instance(self, tmp_path, capsys):
        """The envelope's optimum of this instance is [1.5, 1.5], which is no
        integer allocation."""
        doc = {
            "n": 2, "m": 1, "s": [2], "a": [], "B": 3.0,
            "lower": [0.0, 0.0], "upper": [10.0, 10.0], "mode": "integer",
            "objective": {"family": "quadratic", "params": {"w": [1, 1], "t": [0, 0]}},
        }
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", path, "--solver", "hull"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_greedy_solver_requires_integer(self, quad_instance_file):
        assert run(["solve", quad_instance_file, "--solver", "greedy"]) == 1

    def test_validation_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2}')
        assert run(["solve", path]) == 1

    @pytest.mark.parametrize("limit", [0, -1.0, "nan"])
    def test_time_limit_must_be_positive(self, quad_instance_file, capsys, limit):
        assert run(["solve", quad_instance_file, "--time-limit-s", limit]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "time_limit_s > 0" in captured.err


class TestVerify:
    def test_solve_then_verify_passes(self, quad_instance_file, tmp_path):
        out = tmp_path / "sol.json"
        run(["solve", quad_instance_file, "--epsilon", 1e-8, "--out", out])
        assert run(["verify", quad_instance_file, out]) == 0

    def test_corrupted_solution_fails(self, quad_instance_file, tmp_path):
        out = tmp_path / "sol.json"
        run(["solve", quad_instance_file, "--epsilon", 1e-8, "--out", out])
        doc = json.loads(out.read_bytes())
        doc["x"] = [doc["x"][1], doc["x"][0]]  # swap two unequal coordinates
        out.write_text(json.dumps(doc))
        assert run(["verify", quad_instance_file, out]) == 3

    def test_integer_feasibility_verify(self, tmp_path):
        doc = {
            "n": 2, "m": 2, "s": [1, 2], "a": [1.0], "B": 4.0,
            "lower": [0.0, 0.0], "upper": [3.0, 3.0], "mode": "integer",
            "objective": {"family": "quadratic", "params": {"w": [1, 1], "t": [0, 0]}},
        }
        inst = tmp_path / "int.json"
        inst.write_text(json.dumps(doc))
        sol = tmp_path / "sol.json"
        assert run(["solve", inst, "--out", sol]) == 0
        assert run(["verify", inst, sol, "--tau", 0.0]) == 0

    def test_fractional_integer_solution_fails(self, tmp_path, capsys):
        """A feasible but fractional allocation of an integer instance is
        refused at --tau 0, and accepted once --tau covers its distance to
        the integers."""
        doc = {
            "n": 2, "m": 1, "s": [2], "a": [], "B": 3.0,
            "lower": [0.0, 0.0], "upper": [10.0, 10.0], "mode": "integer",
            "objective": {"family": "quadratic", "params": {"w": [1, 1], "t": [0, 0]}},
        }
        inst = tmp_path / "int.json"
        inst.write_text(json.dumps(doc))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"status": "optimal", "x": [1.5, 1.5], "objective": 4.5}))
        assert run(["verify", inst, sol, "--tau", 0.0]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False and report["verdict"] is False
        assert report["sum_gap"] == 0.0
        assert run(["verify", inst, sol, "--tau", 0.5]) == 0

    def test_bound_conditions_chain(self, tmp_path, capsys):
        """(1, 0, 3) passes every adjacent-pair condition, but moving mass
        from the third variable to the first lowers the cost from 19 to 17."""
        doc = {
            "n": 3, "m": 1, "s": [3], "a": [], "B": 4.0,
            "lower": [0.0, 0.0, 0.0], "upper": [10.0, 10.0, 10.0], "mode": "continuous",
            "objective": {"family": "quadratic", "params": {"w": [1, 1, 1], "t": [0, -3, 0]}},
        }
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"status": "optimal", "x": [1.0, 0.0, 3.0], "objective": 19.0}))
        assert run(["verify", inst, sol, "--tau", 0.0]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] and report["bad_group_start"] == 0
        assert run(["solve", inst, "--out", sol]) == 0
        assert run(["verify", inst, sol, "--tau", 0.0]) == 0

    def test_integer_unit_move_fails(self, tmp_path):
        """A feasible one-unit move away from an integer solve's answer that
        raises the cost is refused; the answer itself passes."""
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        assert run(["gen", "--family", "fuelopt", "--n", 12, "--m", 12, "--seed", 0,
                    "--mode", "int", "--scale", 100, "--out", inst]) == 0
        assert run(["solve", inst, "--out", sol]) == 0
        assert run(["verify", inst, sol, "--tau", 0.0]) == 0
        problem = read_instance(inst.read_bytes())
        x = read_solution(sol.read_bytes()).x
        # the last unit of the first element that can give one moves to the
        # next element that can take one: no partial sum grows
        j = int(np.flatnonzero(x > problem.lower)[0])
        i = j + 1 + int(np.flatnonzero(x[j + 1:] < problem.upper[j + 1:])[0])
        y = x.copy()
        y[j] -= 1.0
        y[i] += 1.0
        assert objective_value(problem, y) > objective_value(problem, x)
        sol.write_text(json.dumps({"status": "optimal", "x": y.tolist(),
                                   "objective": objective_value(problem, y)}))
        assert run(["verify", inst, sol, "--tau", 0.0]) == 3

    def test_dimension_mismatch(self, quad_instance_file, tmp_path):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"status": "optimal", "x": [1.0], "objective": 1.0}))
        assert run(["verify", quad_instance_file, sol]) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            "status",
            {"status": "optimal", "x": {"a": 1}, "objective": 1.0},
            {"status": "optimal", "x": [1.0, 3.0], "objective": [1]},
            {"status": "optimal", "x": [[1, 2]], "objective": 1.0},
        ],
        ids=["not-an-object", "x-not-a-list", "objective-not-a-number", "x-nested"],
    )
    def test_malformed_solution_rejected(self, quad_instance_file, tmp_path, capsys, doc):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc))
        assert run(["verify", quad_instance_file, sol]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestBench:
    def make_config(self, tmp_path, **kw):
        cfg = {
            "families": ["fuelopt"], "n_list": [16], "trials": 3, "seed": 11,
            "epsilon": 1e-8, "mode": "cont", "solver": "decomp",
            "output": str(tmp_path / "bench.csv"),
        }
        cfg.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, tmp_path / "bench.csv"

    def test_rows_and_aggregate(self, tmp_path):
        cfg, out = self.make_config(tmp_path, trials=1)
        assert run(["bench", cfg]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2  # one data row + one aggregate
        assert rows[0]["status"] == "optimal"
        assert rows[1]["status"] == "aggregate"

    @pytest.mark.parametrize("mode", ["cont", "int"])
    def test_optimal_rows_verified(self, tmp_path, mode):
        cfg, out = self.make_config(tmp_path, families=["crashing", "f", "fuelopt"], mode=mode)
        assert run(["bench", cfg]) == 0
        rows = list(csv.DictReader(out.open()))
        optimal = [r for r in rows if r["status"] == "optimal"]
        assert optimal and all(r["verified"] == "True" for r in optimal)
        assert all(r["verified"] == "" for r in rows if r["status"] != "optimal")

    def test_collapsed_integer_box_is_an_error_row(self, tmp_path):
        """crashing n = 20000 seed 14 has a box the 1e6 grid collapses: its
        cell gets an error row and the sweep goes on to the next cell."""
        cfg, out = self.make_config(
            tmp_path, families=["crashing"], n_list=[20000, 16], trials=1, seed=14, mode="int"
        )
        assert run(["bench", cfg]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["n"], r["status"]) for r in rows[:2]] == [("20000", "error"), ("20000", "aggregate")]
        assert rows[2]["n"] == "16" and rows[2]["status"] in ("optimal", "infeasible")
        assert rows[3]["status"] == "aggregate" and len(rows) == 4

    def test_determinism_modulo_wall_ms(self, tmp_path):
        cfg, out = self.make_config(tmp_path)
        run(["bench", cfg])
        first = list(csv.DictReader(out.open()))
        run(["bench", cfg])
        second = list(csv.DictReader(out.open()))
        for a, b in zip(first, second):
            a.pop("wall_ms"), b.pop("wall_ms")
            assert a == b

    def test_rows_reproducible_via_gen_and_solve(self, tmp_path):
        cfg, out = self.make_config(tmp_path, trials=2)
        run(["bench", cfg])
        rows = [r for r in csv.DictReader(out.open()) if r["status"] == "optimal"]
        row = rows[1]
        inst_file = tmp_path / "re.json"
        sol_file = tmp_path / "resol.json"
        run(["gen", "--family", row["family"], "--n", row["n"], "--m", row["m"],
             "--seed", row["seed"], "--out", inst_file])
        run(["solve", inst_file, "--epsilon", row["epsilon"], "--out", sol_file])
        sol = json.loads(sol_file.read_bytes())
        assert float(row["objective"]) == sol["objective"]
        assert int(row["rap_calls"]) == sol["stats"]["rap_calls"]

    def test_m_sweep(self, tmp_path):
        cfg, out = self.make_config(tmp_path, families=["f"], n_list=[32], m_list=[1, 4, 32], trials=1)
        run(["bench", cfg])
        rows = [r for r in csv.DictReader(out.open()) if r["status"] == "optimal"]
        assert [int(r["m"]) for r in rows] == [1, 4, 32]

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"families": ["f"], "n_list": [4], "trials": 1,
                                    "seed": 0, "bogus": True}))
        assert run(["bench", path]) == 1

    @pytest.mark.parametrize("key,value", [("mode", "integer"), ("solver", "greedy2"),
                                           ("families", ["f", "bogus"])],
                             ids=["mode", "solver", "families"])
    def test_unknown_choice_rejected(self, tmp_path, capsys, key, value):
        """Such values used to run continuous solves labelled `integer`,
        write only `error` rows, or die with a traceback."""
        cfg, out = self.make_config(tmp_path, trials=1, **{key: value})
        assert run(["bench", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()

    def test_nonpositive_time_limit_in_config_rejected(self, tmp_path, capsys):
        """Such a limit used to make every row `timeout` and exit 0."""
        cfg, out = self.make_config(tmp_path, trials=1, time_limit_s=0)
        assert run(["bench", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: time_limit_s: ")
        assert not out.exists()

    def test_timeout_rows(self, tmp_path):
        cfg, out = self.make_config(tmp_path, families=["f"], n_list=[3000],
                                    trials=1, time_limit_s=1e-5)
        assert run(["bench", cfg]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["status"] == "timeout"
        assert rows[0]["verified"] == ""

    def test_flag_overrides(self, tmp_path):
        cfg, out = self.make_config(tmp_path, trials=1)
        out2 = tmp_path / "override.csv"
        assert run(["bench", cfg, "--trials", 2, "--seed", 99, "--out", out2]) == 0
        rows = [r for r in csv.DictReader(out2.open()) if r["seed"]]
        assert [int(r["seed"]) for r in rows] == [99, 100]

    @pytest.mark.parametrize("flag", [["--trials", 0], ["--epsilon", -1.0],
                                      ["--time-limit-s", 0], ["--time-limit-s", -1.0],
                                      ["--time-limit-s", "nan"]])
    def test_invalid_flag_override_rejected(self, tmp_path, capsys, flag):
        """Flag values are validated like the config file's own values."""
        cfg, out = self.make_config(tmp_path, trials=1)
        assert run(["bench", cfg, *flag]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
