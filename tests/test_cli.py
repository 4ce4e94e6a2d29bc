"""End-to-end tests of the krfactor command line, run in-process."""

import json
import multiprocessing
import os
from itertools import combinations

import pytest

import krfactor.cli
import krfactor.pipeline
from krfactor import (
    BudgetExceededError,
    GraphFamily,
    PartiteGraph,
    RandomSeed,
    find_factor,
    gen_min_degree_instance,
    gen_super_regular_instance,
    read_family,
    read_graph_file,
    read_instance,
    sample_bundle,
    sparsify,
    build_b_pi,
    enumerate_kr,
    lift_factor,
    verify_transversal,
    write_factor_certificate,
    write_family,
    write_graph_file,
    write_instance,
    write_transversal_certificate,
)
from krfactor.cli import SWEEP_HEADER, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- threshold-sweep ---------------------------------------------------------


class TestThresholdSweep:
    ARGS = [
        "threshold-sweep",
        "--n", "6",
        "--trials", "5",
        "--c-grid", "0.5,3",
        "--seed", "1",
    ]

    def test_csv_shape(self, capsys):
        code, out, err = run_cli(self.ARGS, capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("# config {")
        assert lines[1] == SWEEP_HEADER
        assert len(lines) == 4
        for line in lines[2:]:
            fields = line.split(",")
            assert len(fields) == 12
            assert fields[0] == "threshold"
            assert fields[1] == "3" and fields[2] == "6"
            assert int(fields[7]) <= int(fields[6]) == 5
            assert fields[10] == "0"  # wall_ms stays 0 without --timing
            assert fields[11] == "0"  # no trial skipped on budget
        config = json.loads(lines[0][len("# config "):])
        assert config["grid_kind"] == "C"
        assert config["grid"] == [0.5, 3.0]
        assert "workers" not in config

    def test_rerun_and_workers_byte_identical(self, capsys):
        _, first, _ = run_cli(self.ARGS, capsys)
        _, again, _ = run_cli(self.ARGS, capsys)
        assert again == first
        _, parallel, _ = run_cli(self.ARGS + ["--workers", "2"], capsys)
        assert parallel == first

    def test_p_grid_endpoints(self, capsys):
        # gamma=0.2 at n=6 forces the full complete graph, so p=1 always
        # succeeds and p=0 never does.
        code, out, _ = run_cli(
            ["threshold-sweep", "--n", "6", "--trials", "4",
             "--p-grid", "0,1", "--seed", "0"],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()[2:]
        first = rows[0].split(",")
        last = rows[1].split(",")
        assert first[4] == "" and last[4] == ""  # C column empty on a p grid
        assert float(first[5]) == 0.0 and float(first[8]) == 0.0
        assert float(last[5]) == 1.0 and float(last[8]) == 1.0

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        _, stdout, _ = run_cli(self.ARGS, capsys)
        assert out_path.read_text() == stdout

    def test_json_format(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows"}
        assert len(payload["rows"]) == 2
        row = payload["rows"][0]
        assert row["trials"] == 5
        assert 0.0 <= row["success_rate"] <= 1.0

    def test_svg_format(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "svg"], capsys)
        assert code == 0
        assert out.startswith("<svg ")
        assert "polyline" in out and out.rstrip().endswith("</svg>")

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold-sweep", "--n", "6", "--trials", "0"],
            ["threshold-sweep", "--n", "6", "--trials", "2", "--c-grid", "a,b"],
            ["threshold-sweep", "--n", "6", "--trials", "2", "--c-grid", ","],
            ["threshold-sweep", "--n", "6", "--trials", "2", "--p-grid", "1.5"],
            ["threshold-sweep", "--n", "x", "--trials", "2"],
            ["threshold-sweep", "--n", "6", "--trials", "2", "--c-grid", "inf"],
            ["threshold-sweep", "--n", "6", "--trials", "2", "--gamma", "inf"],
            ["threshold-sweep", "--n", "30", "--trials", "300", "--c-grid", "3,inf"],
        ],
    )
    def test_bad_inputs_exit_2(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_bad_grid_point_stops_before_any_trial(self, capsys, monkeypatch):
        def no_trial(task):
            raise AssertionError("a trial ran")

        monkeypatch.setitem(krfactor.cli._TRIALS, "threshold", no_trial)
        code, out, err = run_cli(
            ["threshold-sweep", "--n", "30", "--trials", "300", "--c-grid", "3,inf"], capsys
        )
        assert (code, out, err) == (2, "", "error: C must be finite\n")

    def test_workers_above_cpu_count_exit_2_before_any_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, out, err = run_cli(
            self.ARGS + ["--workers", str((os.cpu_count() or 1) + 1)], capsys
        )
        assert code == 2
        assert out == "" and err.startswith("error: --workers")

    def test_budget_skips_are_reported(self, capsys, monkeypatch):
        def over_budget(g, **kwargs):
            raise BudgetExceededError("clique row budget exceeded")

        monkeypatch.setattr(krfactor.cli, "find_factor", over_budget)
        code, out, err = run_cli(self.ARGS + ["--workers", "1", "--format", "json"], capsys)
        assert code == 0
        assert "5 trials skipped" in err
        for row in json.loads(out)["rows"]:
            assert row["skipped"] == 5
            assert row["trials"] == 0 and row["successes"] == 0
            assert row["success_rate"] == 0.0

    def test_search_node_budget_skips_trials(self, capsys, monkeypatch):
        # near the threshold the matching misses, so the exact search runs
        monkeypatch.setattr("krfactor.solver.DEFAULT_NODE_BUDGET", 0)
        argv = ["threshold-sweep", "--n", "30", "--trials", "4", "--c-grid", "2",
                "--seed", "5", "--workers", "1", "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["skipped"] > 0 and row["trials"] == 4 - row["skipped"]
        assert f"{row['skipped']} trials skipped" in err

    def test_conflicting_grids_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["threshold-sweep", "--c-grid", "1", "--p-grid", "0.5"])
        assert exc.value.code == 2


class TestTransversalSweep:
    def test_p_grid_endpoints(self, capsys):
        code, out, _ = run_cli(
            ["transversal-sweep", "--r", "3", "--n", "2", "--gamma", "0.2",
             "--trials", "4", "--p-grid", "0,1", "--seed", "2"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert rows[0][0] == "transversal"
        assert float(rows[0][8]) == 0.0
        assert float(rows[1][8]) == 1.0

    def test_rerun_byte_identical(self, capsys):
        argv = ["transversal-sweep", "--n", "2", "--trials", "3",
                "--p-grid", "0.7", "--seed", "5"]
        _, first, _ = run_cli(argv, capsys)
        _, again, _ = run_cli(argv, capsys)
        assert again == first

    def test_non_factor_from_the_solver_is_internal(self, capsys, monkeypatch):
        # a solver answer the lift rejects is a fault of the program, not of the input
        monkeypatch.setattr(krfactor.cli, "find_factor", lambda g: [(0, 1, 2)])
        code, out, err = run_cli(
            ["transversal-sweep", "--n", "2", "--trials", "1", "--p-grid", "1", "--seed", "5"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: internal: not a factor of the aggregate graph: ")


# --- janson-report -----------------------------------------------------------


class TestJansonReport:
    @pytest.fixture()
    def k222_path(self, tmp_path):
        path = tmp_path / "k222.json"
        write_graph_file(PartiteGraph.complete(3, 2), path)
        return str(path)

    def test_exact_moments_at_half(self, capsys, k222_path):
        code, out, _ = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "0.5",
             "--mc-trials", "0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == "janson-report"
        assert payload["clique_count"] == 8
        assert payload["lambda"] == 1.0
        assert payload["delta_bar"] == 2.125
        assert payload["monte_carlo"] is None
        by_a = {entry["a"]: entry for entry in payload["bounds"]}
        assert set(by_a) == {0.25, 0.5, 0.75}
        for entry in by_a.values():
            assert entry["janson_lower"] is not None
            assert entry["chernoff_upper"] is not None
            assert entry["chernoff_lower"] is not None

    def test_bound_gating_outside_unit_range(self, capsys, k222_path):
        code, out, _ = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "0.5",
             "--deviations", "0.25,2", "--mc-trials", "0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        big = [e for e in payload["bounds"] if e["a"] == 2][0]
        assert big["janson_lower"] is None
        assert big["chernoff_upper"] is None
        assert big["chernoff_lower"] is None

    def test_monte_carlo_at_p_one_is_exact(self, capsys, k222_path):
        code, out, _ = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "1",
             "--mc-trials", "50"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["monte_carlo"] == {"trials": 50, "mean": 8.0}

    def test_degree_floor_n20_reports_the_surviving_clique_mean(self, capsys, tmp_path):
        # about 4.8 M ordered vertex-sharing clique pairs, too many to visit one by one
        g = gen_min_degree_instance(3, 20, 0.2, 0.9, RandomSeed(1))
        path = tmp_path / "g20.txt"
        write_graph_file(g, path)
        code, out, err = run_cli(
            ["janson-report", "--graph", str(path), "--p", "0.3", "--mc-trials", "20",
             "--seed", "4"],
            capsys,
        )
        assert (code, err) == (0, "")
        family = enumerate_kr(g)
        total = 0
        for t in range(20):
            gp = sparsify(g, 0.3, RandomSeed(4).substream(t))
            total += sum(
                1 for K in family if all(gp.has_edge(a, b) for a, b in combinations(K, 2))
            )
        assert json.loads(out)["monte_carlo"] == {"trials": 20, "mean": total / 20}

    def test_bad_p_exits_2(self, capsys, k222_path):
        code, _, err = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "1.2"], capsys
        )
        assert code == 2
        assert "outside" in err

    def test_negative_mc_trials_exits_2(self, capsys, k222_path):
        code, out, err = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "0.5",
             "--mc-trials", "-3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--mc-trials" in err

    def test_budget_stop_exits_1(self, capsys, k222_path):
        # valid input that stops at a search budget is not bad input
        code, out, err = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "0.5",
             "--max-cliques", "3"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: more than 3 transversal cliques\n"

    def test_negative_max_cliques_exits_2(self, capsys, k222_path):
        code, out, err = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "0.5",
             "--max-cliques", "-1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: max_cliques must be nonnegative\n"

    @pytest.mark.parametrize("deviations", ["nan", "inf", "0.25,-inf"])
    def test_non_finite_deviations_exit_2(self, capsys, k222_path, deviations):
        code, out, err = run_cli(
            ["janson-report", "--graph", k222_path, "--p", "0.5",
             "--deviations", deviations, "--mc-trials", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--deviations" in err
        assert "Traceback" not in err

    def test_missing_graph_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["janson-report", "--graph", str(tmp_path / "nope.json"), "--p", "0.5"],
            capsys,
        )
        assert code == 2


# --- pipeline-run -------------------------------------------------------------


class TestPipelineRun:
    def test_gen_then_run_succeeds(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        code, out, _ = run_cli(
            ["gen", "--kind", "pipeline", "--r", "3", "--k", "1",
             "--cluster-size", "20", "--d", "0.8", "--b-size", "0",
             "--seed", "0", "--out", str(inst_path)],
            capsys,
        )
        assert code == 0
        assert out.strip() == str(inst_path)
        inst = read_instance(inst_path)
        assert inst.host.r == 3

        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["pipeline-run", "--instance", str(inst_path), "--p", "1",
             "--seed", "0", "--out", str(report_path)],
            capsys,
        )
        assert code == 0
        assert err == ""
        payload = json.loads(report_path.read_text())
        assert payload["success"] is True
        assert payload["failure_stage"] is None

    def test_search_node_budget_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("krfactor.solver.DEFAULT_NODE_BUDGET", 0)
        code, out, err = run_cli(
            ["pipeline-run", "--r", "3", "--k", "2", "--cluster-size", "45", "--d", "0.6",
             "--b-size", "3", "--p", "0.9", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert err == "pipeline failed at stage round3: more than 0 search nodes\n"
        assert json.loads(out)["stages"]["round3"] == {"error": "more than 0 search nodes"}

    def test_failure_exits_1_but_writes_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            ["pipeline-run", "--r", "3", "--k", "1", "--cluster-size", "20",
             "--d", "0.8", "--b-size", "0", "--p", "0", "--seed", "4",
             "--out", str(report_path)],
            capsys,
        )
        assert code == 1
        assert "pipeline failed at stage" in err
        payload = json.loads(report_path.read_text())
        assert payload["success"] is False
        assert payload["failure_stage"] is not None

    def test_sparse_rerun_is_identical(self, capsys):
        argv = ["pipeline-run", "--r", "3", "--k", "1", "--cluster-size", "20",
                "--d", "0.8", "--b-size", "3", "--p", "0.9", "--seed", "1"]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(first)
        assert payload["verified"] is True
        assert payload["stages"]["cover"]["cliques"] == 3
        code, second, _ = run_cli(argv, capsys)
        assert code == 0
        assert second == first

    def test_internal_error_exits_1_without_traceback(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal: x")

        monkeypatch.setattr(krfactor.pipeline, "cover_exceptional", broken)
        code, out, err = run_cli(
            ["pipeline-run", "--r", "3", "--k", "1", "--cluster-size", "20",
             "--d", "0.8", "--b-size", "3", "--p", "0.9", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: internal: x\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mu", "0", "mu must be positive"),
            ("--alpha", "-1", "alpha must be nonnegative"),
            ("--mu", "inf", "mu must be finite"),
            ("--mu", "nan", "mu must be finite"),
            ("--mu", "1e308", "mu must keep the candidate cap mu * N^(r-1) finite"),
            ("--alpha", "nan", "alpha must be finite"),
            ("--alpha", "inf", "alpha must be finite"),
        ],
        ids=["mu", "alpha", "mu-inf", "mu-nan", "mu-huge", "alpha-nan", "alpha-inf"],
    )
    def test_out_of_range_mu_alpha_exit_2(self, flag, value, message, capsys):
        code, out, err = run_cli(
            ["pipeline-run", "--r", "3", "--k", "1", "--cluster-size", "20",
             "--d", "0.8", "--b-size", "3", "--p", "0.9", flag, value],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_needs_instance_or_full_shape(self, capsys):
        code, _, err = run_cli(["pipeline-run", "--p", "1", "--r", "3"], capsys)
        assert code == 2
        assert "pipeline-run needs" in err

    def test_malformed_instance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            ["pipeline-run", "--instance", str(path), "--p", "1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("field", ["params.k", "exceptional"])
    def test_instance_missing_field_exits_2_naming_it(self, field, capsys, tmp_path):
        path = tmp_path / "inst.json"
        write_instance(gen_super_regular_instance(3, 1, 6, 0.8, 3, 0), path)
        payload = json.loads(path.read_text())
        if field == "params.k":
            del payload["params"]["k"]
        else:
            del payload[field]
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            ["pipeline-run", "--instance", str(path), "--p", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert f"missing field {field}" in err


# --- verify -------------------------------------------------------------------


class TestVerify:
    def test_factor_ok(self, capsys, tmp_path):
        g = PartiteGraph.complete(3, 2)
        gpath, cpath = tmp_path / "g.json", tmp_path / "cert.txt"
        write_graph_file(g, gpath)
        write_factor_certificate(find_factor(g).cliques, cpath)
        code, out, _ = run_cli(
            ["verify", "--graph", str(gpath), "--certificate", str(cpath)], capsys
        )
        assert code == 0
        assert out.strip() == "ok"

    def test_factor_reject(self, capsys, tmp_path):
        g = PartiteGraph(3, 2, [])  # edgeless: no clique is valid
        gpath, cpath = tmp_path / "g.json", tmp_path / "cert.txt"
        write_graph_file(g, gpath)
        write_factor_certificate(((0, 2, 4), (1, 3, 5)), cpath)
        code, out, _ = run_cli(
            ["verify", "--graph", str(gpath), "--certificate", str(cpath)], capsys
        )
        assert code == 1
        assert out.startswith("reject: ")

    def test_family_ok_and_reject(self, capsys, tmp_path):
        base = RandomSeed(9)
        members = tuple(
            gen_min_degree_instance(3, 2, 0.2, 1.0, base.substream(t))
            for t in range(6)
        )
        fam = GraphFamily(3, 2, members)
        manifest = write_family(fam, tmp_path / "fam")
        aux = build_b_pi(fam, sample_bundle(fam, base.substream(99)))
        tf = lift_factor(aux, find_factor(aux.graph))
        assert verify_transversal(fam, tf) == (True, "")
        cpath = tmp_path / "tf.txt"
        write_transversal_certificate(tf, cpath)
        code, out, _ = run_cli(
            ["verify", "--family", str(manifest), "--certificate", str(cpath)],
            capsys,
        )
        assert code == 0
        assert out.strip() == "ok"

        bad = tmp_path / "bad.txt"
        text = cpath.read_text().splitlines()
        # swap the member assignment on the first edge record to break it
        for i, line in enumerate(text):
            if line.startswith("edge "):
                u, v, idx = line.split()[1:]
                text[i] = f"edge {u} {v} {(int(idx) + 1) % 6}"
                break
        bad.write_text("\n".join(text) + "\n")
        code, out, _ = run_cli(
            ["verify", "--family", str(manifest), "--certificate", str(bad)],
            capsys,
        )
        assert code == 1
        assert out.startswith("reject: ")

    @pytest.mark.parametrize(
        "certificate, reason",
        [
            ("0 2 4\n", "vertex 1 not covered"),
            ("0 2 4\n0 3 5\n1 3 5\n", "vertex 0 covered twice"),
            ("2 0 4\n1 3 5\n", "clique (2, 0, 4): not one vertex per part, in part order"),
            ("0 2 9\n1 3 5\n", "clique (0, 2, 9): vertex 9 out of range"),
            ("0 2 4\n1 3 5\n", "clique (1, 3, 5): missing edge (1, 5)"),
            ("0 2\n1 3 5\n", "clique (0, 2): expected 3 vertices"),
        ],
    )
    def test_factor_reject_reasons(self, capsys, tmp_path, certificate, reason):
        g = PartiteGraph(3, 2, [e for e in PartiteGraph.complete(3, 2).edges() if e != (1, 5)])
        gpath, cpath = tmp_path / "g.txt", tmp_path / "cert.txt"
        write_graph_file(g, gpath)
        cpath.write_text(certificate)
        code, out, err = run_cli(
            ["verify", "--graph", str(gpath), "--certificate", str(cpath)], capsys
        )
        assert (code, out, err) == (1, f"reject: {reason}\n", "")

    def test_bad_certificate_token_names_the_line(self, capsys, tmp_path):
        gpath, cpath = tmp_path / "g.txt", tmp_path / "cert.txt"
        write_graph_file(PartiteGraph.complete(3, 2), gpath)
        cpath.write_text("0 2 x\n1 3 5\n")
        code, out, err = run_cli(
            ["verify", "--graph", str(gpath), "--certificate", str(cpath)], capsys
        )
        assert (code, out) == (2, "")
        assert f"{cpath}, line 1: " in err

    def test_unparseable_certificate_exits_2(self, capsys, tmp_path):
        g = PartiteGraph.complete(3, 2)
        gpath, cpath = tmp_path / "g.json", tmp_path / "cert.txt"
        write_graph_file(g, gpath)
        cpath.write_text("clique zero two four\n")
        code, _, err = run_cli(
            ["verify", "--graph", str(gpath), "--certificate", str(cpath)], capsys
        )
        assert code == 2

    def test_graph_xor_family_required(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--certificate", str(tmp_path / "c.txt")])
        assert exc.value.code == 2


# --- gen -----------------------------------------------------------------------


class TestGen:
    def test_min_degree_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, out, _ = run_cli(
                ["gen", "--kind", "min-degree", "--r", "3", "--n", "6",
                 "--seed", "3", "--out", str(path)],
                capsys,
            )
            assert code == 0
            assert out.strip() == str(path)
        assert a.read_bytes() == b.read_bytes()
        g = read_graph_file(a)
        assert (g.r, g.n) == (3, 6)

    def test_witness_header_and_no_factor(self, capsys, tmp_path):
        path = tmp_path / "wit.json"
        code, _, _ = run_cli(
            ["gen", "--kind", "witness", "--r", "3", "--n", "4",
             "--seed", "1", "--out", str(path)],
            capsys,
        )
        assert code == 0
        first = path.read_text().splitlines()[0]
        assert first.startswith("# witness vertex ")
        g = read_graph_file(path)
        assert find_factor(g) is None

    def test_family_prints_manifest(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["gen", "--kind", "family", "--r", "3", "--n", "2",
             "--seed", "7", "--out", str(tmp_path / "fam")],
            capsys,
        )
        assert code == 0
        manifest = out.strip()
        fam = read_family(manifest)
        assert (fam.r, fam.n) == (3, 2)
        assert len(fam.graphs) == 6

    def test_pipeline_kind_writes_the_instance_pipeline_run_plants(self, capsys, tmp_path):
        shape = ["--r", "3", "--k", "2", "--cluster-size", "20", "--d", "0.6",
                 "--b-size", "3"]
        path = tmp_path / "inst.json"
        for seed in ("0", "1", "2"):
            code, _, _ = run_cli(
                ["gen", "--kind", "pipeline", *shape, "--seed", seed, "--out", str(path)],
                capsys,
            )
            assert code == 0
            run = ["pipeline-run", "--p", "0.9", "--seed", seed]
            from_file = run_cli([*run, "--instance", str(path)], capsys)
            assert from_file == run_cli([*run, *shape], capsys), seed
            assert read_instance(path) == gen_super_regular_instance(
                3, 2, 20, 0.6, 3, RandomSeed(int(seed)).substream(999)
            )

    def test_pipeline_kind_needs_shape(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["gen", "--kind", "pipeline", "--out", str(tmp_path / "i.json")],
            capsys,
        )
        assert code == 2
        assert "gen --kind pipeline needs" in err
