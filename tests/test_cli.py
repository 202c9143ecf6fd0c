"""Command-line behavior: envelopes, exit codes, file emission."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import HUGE_COUNT, peak_allocation, python_child
from median_consensus import GridUniform, cli, dynamics, equilibria, fixtures
from median_consensus._io import opinion_from_json, opinion_to_json
from median_consensus.network import save_network


@pytest.fixture()
def complete4(tmp_path):
    path = tmp_path / "complete4.csv"
    save_network(fixtures.complete_uniform(4), path)
    return str(path)


@pytest.fixture()
def cliques(tmp_path):
    path = tmp_path / "cliques.json"
    save_network(fixtures.disjoint_cliques(clique_size=3, blocks=2), path, fmt="json")
    return str(path)


def _capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestSimulate:
    def test_envelope_and_exit(self, complete4, capsys):
        rc = cli.main(["simulate", "--network", complete4, "--initial", "0,1,1,0", "--seed", "3"])
        payload = _capture(capsys)
        assert rc == 0
        assert payload["tool"] == "median-consensus"
        assert payload["command"] == "simulate"
        assert payload["config"]["seed"] == 3
        assert payload["result"]["converged"] is True
        assert payload["result"]["terminal"] == [1, 1, 1, 1]

    def test_csv_emission(self, complete4, capsys):
        rc = cli.main(
            ["simulate", "--network", complete4, "--initial", "0,1,1,0", "--seed", "3",
             "--emit", "csv"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "time,node,old,new"

    def test_budget_exhaustion_exit_code(self, cliques, capsys):
        rc = cli.main(
            ["simulate", "--network", cliques, "--initial", "0,1,2,3,4,5", "--seed", "5",
             "--budget", "2"]
        )
        capsys.readouterr()
        assert rc == 3

    def test_missing_seed_is_input_error(self, complete4, capsys):
        rc = cli.main(["simulate", "--network", complete4, "--initial", "labels:2"])
        err = capsys.readouterr().err
        assert rc == 1 and "seed" in err

    def test_initial_fraction_values(self, complete4, capsys):
        rc = cli.main(
            ["simulate", "--network", complete4, "--initial", "0,1/2,1/2,1", "--seed", "1"]
        )
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["initial"] == [0, "1/2", "1/2", 1]

    def test_initial_file(self, complete4, tmp_path, capsys):
        init = tmp_path / "x0.json"
        init.write_text(json.dumps([0, 1, 1, 0]))
        rc = cli.main(
            ["simulate", "--network", complete4, "--initial", f"file:{init}", "--seed", "2"]
        )
        assert rc == 0
        assert _capture(capsys)["result"]["initial"] == [0, 1, 1, 0]

    def test_initial_file_shares_one_object_per_token(self, tmp_path, monkeypatch, capsys):
        # 10,000 draws of a 201-point grid: each distinct token is decoded
        # once, and the report equals one that decodes every token alone.
        net_path = tmp_path / "lattice.json"
        save_network(fixtures.lattice(100, 100), net_path, fmt="json")
        values = GridUniform(201).draw(dynamics._rng(28), 10_000)
        init = tmp_path / "x0.json"
        init.write_text(json.dumps([opinion_to_json(v) for v in values]))
        spec = f"file:{init}"
        decoded = cli.parse_initial_spec(spec)
        assert decoded == values
        assert len(set(map(id, decoded))) <= 201
        argv = ["simulate", "--network", str(net_path), "--initial", spec, "--seed", "4"]
        assert cli.main(argv) == 0
        shared = capsys.readouterr().out

        def one_by_one(raws):
            return tuple(map(opinion_from_json, raws))

        monkeypatch.setattr(cli, "_decode_opinions", one_by_one)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == shared

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, True], "booleans are not opinions"),
            ([1, 1.0], "cannot decode opinion 1.0"),
            ([1, [1]], r"cannot decode opinion \[1\]"),
            (["a", {"a": 1}], "cannot decode opinion"),
        ],
    )
    def test_initial_file_refusals_after_equal_tokens(self, tmp_path, payload, message):
        init = tmp_path / "x0.json"
        init.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            cli.parse_initial_spec(f"file:{init}")

    def test_wrong_length_initial(self, complete4, capsys):
        rc = cli.main(["simulate", "--network", complete4, "--initial", "0,1", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: initial state length 2 != n=4\n"

    def test_byte_stable_output(self, complete4, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["simulate", "--network", complete4, "--initial", "0,1,1,0", "--seed", "3",
                "--out", str(out)]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == first


class TestEnsemble:
    def test_report(self, complete4, capsys):
        rc = cli.main(
            ["ensemble", "--network", complete4, "--initial", "labels:3",
             "--replicas", "40", "--seed", "11"]
        )
        payload = _capture(capsys)
        assert rc == 0
        result = payload["result"]
        assert result["replicas"] == 40
        assert result["consensus_fraction"] == 1.0
        assert result["budget_exhausted"] == 0

    @pytest.mark.parametrize(
        "extra", [["--budget", "0"], ["--workers", "0"], ["--workers", "-3"]]
    )
    def test_counts_below_one_are_input_errors(self, complete4, capsys, extra):
        rc = cli.main(
            ["ensemble", "--network", complete4, "--initial", "labels:3",
             "--replicas", "4", "--seed", "11", *extra]
        )
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "must be at least 1" in captured.err

    def test_wrong_length_initial(self, complete4, capsys):
        rc = cli.main(
            ["ensemble", "--network", complete4, "--initial", "0,1,2",
             "--replicas", "4", "--seed", "11", "--workers", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: initial state length 3 != n=4\n"


class TestAnalyze:
    def test_json_fields(self, cliques, capsys):
        rc = cli.main(["analyze", "--network", cliques])
        payload = _capture(capsys)
        assert rc == 0
        result = payload["result"]
        assert result["globally_reachable"]["exists"] is False
        assert [1, 2, 3] in result["maximal_cohesive_sets"]
        assert result["nontrivial_maximal_cohesive"] is True

    def test_dot_emission(self, complete4, capsys):
        rc = cli.main(["analyze", "--network", complete4, "--emit", "dot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("digraph") and "decisive=" in out

    def test_large_prime_row_past_twenty_co_neighbors(self, tmp_path, capsys):
        # 24 weights over a prime above 2^22: meet-in-the-middle, no refusal.
        p = 8388617
        n = 24
        edges = [[1, j, f"1/{p}"] for j in range(1, n)] + [[1, n, f"{p - 23}/{p}"]]
        edges += [[i, i, "1"] for i in range(2, n + 1)]
        path = tmp_path / "prime.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        rc = cli.main(["analyze", "--network", str(path)])
        result = _capture(capsys)["result"]
        assert rc == 0
        # Only the heavy link of row 1 tips it; every self-loop row is decisive.
        assert result["decisive_edges"] == [[1, n]] + [[i, i] for i in range(2, n + 1)]
        assert result["indecisive_edges"] == [[1, j] for j in range(1, n)]

    def test_forty_one_weights_over_an_even_denominator(self, tmp_path, capsys):
        # Past the bitset limit, 40 co-neighbors per entry: decisive links
        # and half ties both get an exact answer.
        d = (1 << 22) + 26
        n = 41
        edges = [[1, j, f"1/{d}"] for j in range(1, n)] + [[1, n, f"{d - 40}/{d}"]]
        edges += [[i, i, "1"] for i in range(2, n + 1)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        rc = cli.main(["analyze", "--network", str(path)])
        result = _capture(capsys)["result"]
        assert rc == 0
        assert result["decisive_edges"] == [[1, n]] + [[i, i] for i in range(2, n + 1)]

    def test_raised_bound_on_a_deep_chain(self, tmp_path, capsys):
        # Node 1 listens to itself and node i to node i - 1: only the full
        # set is maximal cohesive, found without a call per node.
        n = 1500
        edges = [[1, 1, "1"]] + [[i, i - 1, "1"] for i in range(2, n + 1)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        rc = cli.main(["analyze", "--network", str(path), "--bound", str(n)])
        result = _capture(capsys)["result"]
        assert rc == 0
        assert result["maximal_cohesive_sets"] == [list(range(1, n + 1))]
        assert result["nontrivial_maximal_cohesive"] is False

    def test_bound_degrades_gracefully(self, cliques, capsys):
        rc = cli.main(["analyze", "--network", cliques, "--bound", "3"])
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["maximal_cohesive_sets"] is None
        assert "bound" in payload["result"]["note"]


class TestClassify:
    def test_verdicts(self, cliques, capsys):
        rc = cli.main(["classify", "--network", cliques])
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["consensus_certain"] is False
        assert payload["result"]["dissensus_certain"] is True
        assert payload["result"]["dissensus_witness"] == [1, 2, 3]

    def test_negative_mc_replicas_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "complete20.csv"
        save_network(fixtures.complete_uniform(20), path)
        rc = cli.main(["classify", "--network", str(path), "--mc-replicas", "-1"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: mc_replicas must be at least 0\n"


class TestEquilibria:
    def test_count(self, cliques, capsys):
        rc = cli.main(["equilibria", "--network", cliques, "--labels", "2"])
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["count"] == 4

    def test_state_budget_defaults_to_the_library(self, monkeypatch):
        # The CLI keeps no second copy of the library's budget.
        monkeypatch.setattr(cli, "DEFAULT_STATE_BUDGET", 3)
        args = cli.build_parser().parse_args(["equilibria", "--network", "x.csv"])
        assert args.max_states == 3
        assert equilibria.DEFAULT_STATE_BUDGET == 10**6


class TestSequenceAndReplay:
    def test_schedule_roundtrip(self, complete4, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        rc = cli.main(
            ["sequence", "--network", complete4, "--initial", "3,1,2,0",
             "--schedule-out", str(sched)]
        )
        seq_payload = _capture(capsys)
        assert rc == 0
        terminal = seq_payload["result"]["terminal"]
        rc = cli.main(
            ["simulate", "--network", complete4, "--initial", "3,1,2,0",
             "--schedule", str(sched)]
        )
        replay = _capture(capsys)
        assert rc == 0
        assert replay["result"]["terminal"] == terminal

    def test_wrong_length_initial(self, complete4, capsys):
        rc = cli.main(["sequence", "--network", complete4, "--initial", "0,1,2"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: initial state length 3 != n=4\n"


class TestDecideAndVerify:
    def test_certificate_flow(self, complete4, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        rc = cli.main(["decide", "--network", complete4, "--cert-out", str(cert)])
        payload = _capture(capsys)
        assert rc == 0 and payload["result"]["reachable"] is True
        rc = cli.main(["verify-cert", "--network", complete4, "--cert", str(cert)])
        assert rc == 0
        assert _capture(capsys)["result"]["valid"] is True

    def test_tampered_certificate_exits_5(self, complete4, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cli.main(["decide", "--network", complete4, "--cert-out", str(cert)])
        capsys.readouterr()
        payload = json.loads(cert.read_text())
        payload["initial"] = [1] * len(payload["initial"])
        cert.write_text(json.dumps(payload))
        rc = cli.main(["verify-cert", "--network", complete4, "--cert", str(cert)])
        capsys.readouterr()
        assert rc == 5

    def test_inconsistent_certificate_exits_5(self, complete4, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cli.main(["decide", "--network", complete4, "--cert-out", str(cert)])
        capsys.readouterr()
        payload = json.loads(cert.read_text())
        payload["target_time"] += 1
        cert.write_text(json.dumps(payload))
        rc = cli.main(["verify-cert", "--network", complete4, "--cert", str(cert)])
        out = _capture(capsys)
        assert rc == 5
        assert out["result"]["valid"] is False
        assert "sequence length" in out["result"]["reason"]

    @pytest.mark.parametrize(
        "field, value",
        [("sequence", [1.5, 2]), ("sequence", ["2"]), ("sequence", [True]),
         ("target_time", "2")],
    )
    def test_non_integer_certificate_numbers_are_invalid(
        self, complete4, tmp_path, capsys, field, value
    ):
        cert = tmp_path / "cert.json"
        payload = {"initial": [0, 1, 1, 1], "sequence": [2, 3], "target_time": 2}
        payload[field] = value
        cert.write_text(json.dumps(payload))
        rc = cli.main(["verify-cert", "--network", complete4, "--cert", str(cert)])
        out = _capture(capsys)
        assert rc == 5
        assert out["result"]["valid"] is False
        assert "integers" in out["result"]["reason"]

    def test_unreachable_network(self, cliques, capsys):
        rc = cli.main(["decide", "--network", cliques])
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["reachable"] is False
        assert payload["result"]["certificate"] is None


class TestReduce:
    def test_solve_satisfiable(self, tmp_path, capsys):
        inst = tmp_path / "inst.cnf"
        inst.write_text("p nae3sat 2 1\n1 1 2\n")
        cert = tmp_path / "cert.json"
        rc = cli.main(
            ["reduce", "--instance", str(inst), "--solve", "--cert-out", str(cert)]
        )
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["satisfiable"] is True
        assert payload["result"]["assignment"] == [-1, 1]
        assert json.loads(cert.read_text())["target_time"] == 5

    def test_solve_unsatisfiable_exits_4(self, tmp_path, capsys):
        inst = tmp_path / "inst.cnf"
        inst.write_text("p nae3sat 3 3\n1 1 2\n2 2 3\n1 1 3\n")
        rc = cli.main(["reduce", "--instance", str(inst), "--solve"])
        payload = _capture(capsys)
        assert rc == 4
        assert payload["result"]["satisfiable"] is False

    def test_without_solve_only_builds(self, tmp_path, capsys):
        inst = tmp_path / "inst.cnf"
        inst.write_text("p nae3sat 3 3\n1 1 2\n2 2 3\n1 1 3\n")
        rc = cli.main(["reduce", "--instance", str(inst)])
        payload = _capture(capsys)
        assert rc == 0
        assert payload["result"]["satisfiable"] is None
        assert payload["result"]["network"]["n"] == 10

    def test_no_bound_option(self, tmp_path, capsys):
        inst = tmp_path / "inst.cnf"
        inst.write_text("p nae3sat 2 1\n1 1 2\n")
        rc = cli.main(["reduce", "--instance", str(inst), "--solve"])
        assert rc == 0 and "bound" not in _capture(capsys)["config"]
        rc = cli.main(["reduce", "--instance", str(inst), "--bound", "13"])
        assert rc == 1 and "unrecognized arguments" in capsys.readouterr().err

    def test_dot_emission(self, tmp_path, capsys):
        inst = tmp_path / "inst.cnf"
        inst.write_text("p nae3sat 2 1\n1 1 2\n")
        rc = cli.main(["reduce", "--instance", str(inst), "--emit", "dot"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("digraph")


class TestWithoutNumpy:
    """Only seeded draws load numpy; every other command runs without it."""

    def test_import_leaves_numpy_out(self):
        code = (
            "import sys, median_consensus, median_consensus.cli\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = python_child(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_commands_without_draws_run_with_numpy_blocked(self, complete4, cliques, tmp_path,
                                                           capsys):
        inst = tmp_path / "inst.cnf"
        inst.write_text("p nae3sat 2 1\n1 1 2\n")
        cert = tmp_path / "cert.json"
        assert cli.main(["decide", "--network", complete4, "--cert-out", str(cert)]) == 0
        schedule = tmp_path / "schedule.json"
        schedule.write_text("[1, 3, 2, 4]")
        simulate = ["simulate", "--network", complete4, "--initial", "0,1/2,1,1/2",
                    "--schedule", str(schedule)]
        commands = [
            ["--version"],
            ["decide", "--network", complete4],
            ["reduce", "--instance", str(inst), "--solve"],
            ["verify-cert", "--network", complete4, "--cert", str(cert)],
            ["analyze", "--network", cliques],
            simulate,
            simulate + ["--emit", "csv"],
        ]
        capsys.readouterr()
        expected = []
        for argv in commands:
            rc = cli.main(argv)
            expected.append([rc, capsys.readouterr().out])
        assert [rc for rc, _ in expected] == [0] * 7
        assert expected[-1][1] == "time,node,old,new\n1,1,0,1/2\n2,3,1,1/2\n"
        # ``None`` in sys.modules makes every ``import numpy`` raise.
        code = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from median_consensus import cli\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        rc = cli.main(argv)\n"
            "    results.append([rc, out.getvalue()])\n"
            "print(json.dumps(results))\n"
        )
        proc = python_child(code, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


class TestErrorPaths:
    def test_missing_network_file(self, capsys):
        rc = cli.main(["analyze", "--network", "/nonexistent/net.csv"])
        capsys.readouterr()
        assert rc == 1

    def test_malformed_network(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2\n1/2, 1/3\n0, 1\n")
        rc = cli.main(["analyze", "--network", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and "error:" in err

    def test_bad_initial_spec(self, complete4, capsys):
        rc = cli.main(["simulate", "--network", complete4, "--initial", "nonsense",
                       "--seed", "1"])
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize("command", ["simulate", "sequence"])
    def test_negative_seed_is_named(self, complete4, capsys, command):
        rc = cli.main([command, "--network", complete4, "--initial", "labels:3", "--seed", "-3"])
        err = capsys.readouterr().err
        assert rc == 1 and "seed must be at least 0" in err

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    @pytest.mark.parametrize(
        "spec, message",
        [(f"labels:{2**63 + 1}", "need at most 2^63 labels"),
         (f"grid:{10**20}", "grid needs at most 2^63 points")],
        ids=["labels", "grid"],
    )
    def test_counts_past_int64_are_named(self, complete4, command, spec, message):
        # numpy alone would refuse them as "high is out of bounds for int64".
        extra = ["--replicas", "2"] if command == "ensemble" else []
        code = "import sys\nfrom median_consensus import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = python_child(
            code, command, "--network", complete4, "--initial", spec, "--seed", "1", *extra,
            timeout=20,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("labels:abc", "cannot parse initial spec 'labels:abc'"),
            ("grid:1.5", "cannot parse initial spec 'grid:1.5'"),
            ("labels:1_000", "cannot parse initial spec 'labels:1_000'"),
            ("labels:\u0663", "cannot parse initial spec 'labels:\u0663'"),
            ("labels:" + "9" * 5000, "need at most 2^63 labels"),
            ("grid:" + "9" * 5000, "grid needs at most 2^63 points"),
            ("labels:-" + "9" * 5000, "need at least one label"),
            ("labels:" + "0" * 100_000 + "x", "cannot parse initial spec 'labels:000"),
        ],
        ids=["letters", "decimal", "underscore", "arabic-indic", "labels-5000-digits",
             "grid-5000-digits", "negative-5000-digits", "zeros-then-letter"],
    )
    def test_malformed_counts_are_named(self, complete4, spec, message):
        # Only ASCII -?[0-9]+ is a count, matched in linear time; one past
        # 2^63 by its digits alone is refused without converting them, so
        # Python's digit limit never speaks.
        code = "import sys\nfrom median_consensus import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = python_child(
            code, "ensemble", "--network", complete4, "--initial", spec, "--seed", "1",
            "--replicas", "2", timeout=20,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("error:") == 1
        assert proc.stderr.startswith(f"error: {message}")

    def test_incomparable_opinions(self, complete4, capsys):
        rc = cli.main(["simulate", "--network", complete4, "--initial", "0,a,1,2",
                       "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and "error:" in err and "comparable" in err

    @pytest.mark.parametrize("case", ["inline", "file", "sequence", "ensemble", "verify-cert"])
    def test_zero_denominator_opinion(self, complete4, tmp_path, capsys, case):
        opinions = tmp_path / "opinions.json"
        opinions.write_text(json.dumps([1, "1/0", 2]))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"initial": ["1/0", 0, 1], "sequence": [], "target_time": 0}))
        argv = {
            "inline": ["simulate", "--initial", "1/0,1,2", "--seed", "1"],
            "file": ["simulate", "--initial", f"file:{opinions}", "--seed", "1"],
            "sequence": ["sequence", "--initial", "1/0,1,2"],
            "ensemble": ["ensemble", "--initial", "1/0,1,2", "--replicas", "2", "--seed", "1"],
            "verify-cert": ["verify-cert", "--cert", str(cert)],
        }[case]
        rc = cli.main([*argv, "--network", complete4])
        captured = capsys.readouterr()
        if case == "verify-cert":
            # A malformed certificate is answered like any other: not valid.
            result = json.loads(captured.out)["result"]
            assert rc == 5 and captured.err == ""
            assert result["valid"] is False and "zero denominator" in result["reason"]
        else:
            assert rc == 1 and captured.out == ""
            assert captured.err == "error: opinion '1/0' has a zero denominator\n"

    @pytest.mark.parametrize("sequence", [[1.5, 2], ["2"], [True], {"sequence": [2.0]}])
    def test_non_integer_schedule_nodes(self, complete4, tmp_path, capsys, sequence):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(sequence))
        rc = cli.main(["simulate", "--network", complete4, "--initial", "3,1,2,0",
                       "--schedule", str(sched)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "integer node numbers" in captured.err

    @pytest.mark.parametrize(
        "payload",
        [{"n": True, "edges": [[1, 1, "1"]]},
         {"n": 2, "edges": [[1, True, "1"], [2, 2, "1"]]},
         {"n": 2, "edges": [[1.0, 1, "1"], [2, 2, "1"]]}],
    )
    def test_non_integer_network_nodes(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = cli.main(["analyze", "--network", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("edges", [5, None])
    def test_network_edges_not_a_list(self, tmp_path, capsys, edges):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "edges": edges}))
        rc = cli.main(["analyze", "--network", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "error:" in captured.err and "'edges' must be a list" in captured.err

    def test_huge_node_count_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"n": HUGE_COUNT, "edges": [[1, 1, "1"]]}))
        rc = []
        peak = peak_allocation(lambda: rc.append(cli.main(["analyze", "--network", str(bad)])))
        captured = capsys.readouterr()
        assert rc == [1] and captured.out == "" and "error:" in captured.err
        assert peak < 1_000_000

    def test_huge_variable_count_is_input_error(self, tmp_path, capsys):
        inst = tmp_path / "huge.nae"
        inst.write_text(f"p nae3sat {HUGE_COUNT} 1\n1 2 3\n")
        rc = []
        peak = peak_allocation(lambda: rc.append(cli.main(["reduce", "--instance", str(inst)])))
        captured = capsys.readouterr()
        assert rc == [1] and captured.out == ""
        assert "error:" in captured.err and "appears in no clause" in captured.err
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--network", "deep.json"],
         ["verify-cert", "--network", "k4.csv", "--cert", "deep.json"],
         ["simulate", "--network", "k4.csv", "--initial", "3,1,2,0", "--schedule", "deep.json"],
         ["simulate", "--network", "k4.csv", "--initial", "file:deep.json"]],
        ids=["network", "cert", "schedule", "initial"],
    )
    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
        save_network(fixtures.complete_uniform(4), tmp_path / "k4.csv")
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: invalid JSON in deep.json: nested too deeply\n"

    def test_exponent_weight_refused_at_once(self, tmp_path):
        # Parsing "1e999999999" exactly would run until killed, so this
        # runs in a child with a timeout.
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps({"n": 1, "edges": [[1, 1, "1e999999999"]]}))
        code = "import sys\nfrom median_consensus import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = python_child(code, "analyze", "--network", str(path), timeout=20)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot parse rational from '1e999999999'\n"

    def test_label_count_past_the_budget_refused_before_reading_labels(self, tmp_path):
        # At 99999999999 labels a list of them cannot be allocated, so the
        # k^n refusal must come first.  Run in a child: a regression would
        # allocate.
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 1, "1"], [2, 2, "1"]]}))
        code = "import sys\nfrom median_consensus import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = python_child(
            code, "equilibria", "--network", str(path), "--labels", "99999999999", timeout=20
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: ") and "exceeds the budget" in proc.stderr

    def test_label_count_past_sys_maxsize_refused(self, tmp_path):
        # 2^63 labels cannot even be counted by len(range(...)).
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 1, "1"], [2, 2, "1"]]}))
        code = "import sys\nfrom median_consensus import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = python_child(
            code, "equilibria", "--network", str(path), "--labels", str(2**63), timeout=20
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"error: {2**63}^2 = {2**126} states exceeds the budget 1000000\n"
        )

    def test_unknown_subcommand(self, capsys):
        rc = cli.main(["frobnicate"])
        capsys.readouterr()
        assert rc == 1

    def test_version_flag(self, capsys):
        rc = cli.main(["--version"])
        out = capsys.readouterr().out
        assert rc == 0 and "median-consensus" in out


# -- fuzzed inputs --------------------------------------------------------------

_tokens = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 3)),
    st.sampled_from(["a", "b", "", " 1 ", "0.5", "-0.25", "1/", "/2", "true", "[1]", "1e3"]),
    st.text(max_size=4),
)
_scalars = st.one_of(
    st.integers(-3, 6), st.integers(), _tokens, st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["initial", "sequence", "target_time", "x"]), inner, max_size=3
    ),
    max_leaves=8,
)
_initial_specs = st.one_of(
    st.lists(_tokens, min_size=2, max_size=5).map(",".join),
    st.builds("labels:{}".format, st.integers(-2, 10**20)),
    st.builds("grid:{}".format, st.integers(-2, 10**20)),
    st.text(max_size=8),
)


class TestFuzzedInputs:
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["simulate", "schedule", "sequence", "ensemble", "verify-cert"]),
        spec=_initial_specs,
        from_file=st.booleans(),
        payload=_json_values,
        budget=st.none() | st.integers(-1, 3),
    )
    def test_cli_never_tracebacks(self, complete4, tmp_path, command, spec, from_file,
                                  payload, budget):
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        initial = f"file:{data}" if from_file else spec
        seed = ["--seed", "2"]
        extra = [] if budget is None else ["--budget", str(budget)]
        argv = {
            "simulate": ["simulate", "--initial", initial, *seed, *extra],
            "schedule": ["simulate", "--initial", spec, "--schedule", str(data)],
            "sequence": ["sequence", "--initial", initial, *seed],
            "ensemble": ["ensemble", "--initial", initial, "--replicas", "2", *seed,
                         "--workers", "1", *extra],
            "verify-cert": ["verify-cert", "--cert", str(data)],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([*argv, "--network", complete4])
        assert rc in {0, 1, 3, 4, 5}
