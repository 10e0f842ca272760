"""CLI surface tests: exit codes, JSON report schema, trace files.

The commands run in this process through ``cli.main``; ``python -m
aeqslab.cli`` itself is run once for each documented exit code, and as the
fresh process that repeated in-process commands are compared with.
"""

import contextlib
import csv
import io
import json
import subprocess
import sys

import pytest

from aeqslab import cli
from aeqslab.aeqs import as_dense
from aeqslab.compilers import from_moqfa
from aeqslab.linalg import SparseHermitian
from aeqslab.specdoc import (
    MachineSpecDocument,
    sparse_hermitian_from_json,
    sparse_hermitian_to_json,
)

CLI = [sys.executable, "-m", "aeqslab.cli"]

MOQFA_DOC = {
    "schema": 1,
    "kind": "moqfa",
    "name": "parity",
    "alphabet": ["0", "1"],
    "states": 2,
    "initial": 0,
    "accepting": [0],
    "rejecting": [1],
    "operators": {
        "cent": [[0, 0, 1], [1, 1, 1]],
        "dollar": [[0, 0, 1], [1, 1, 1]],
        "0": [[0, 0, 1], [1, 1, 1]],
        "1": [[0, 1, 1], [1, 0, 1]],
    },
}


GARBAGE_DOC = {
    "schema": 1,
    "kind": "garbage-1qfa",
    "name": "all",
    "alphabet": ["0", "1"],
    "states": 1,
    "garbage_symbols": 1,
    "initial": 0,
    "accepting": [0],
    "rejecting": [],
    "transitions": [[0, sym, 0, 1, 1] for sym in ("cent", "dollar", "0", "1")],
}


def run_cli(*args):
    """The command's exit code and output, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_fresh(*args):
    """The command run as ``python -m aeqslab.cli`` in a fresh process."""
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


@pytest.mark.parametrize("args, code", [
    (("run", "equal", "ab"), 0),
    (("run", "sym_coin", "ab"), 1),
    (("run", "usubsum", "0#1#1"), 2),
    (("run", "nonsense", "x"), 3),
    (("verify", "l_prefix_0", "--max-len", "100000"), 4),
], ids=["accept", "reject", "indeterminate", "usage", "capacity"])
def test_module_entry_point_exits_with_the_documented_code(args, code):
    result = run_fresh(*args)
    assert result.returncode == code, result.stderr
    assert result.returncode == run_cli(*args).returncode


class TestRun:
    def test_equal_accepts_ab(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("run", "equal", "ab", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["outcome"] == "accept"
        assert abs(data["ground_energy"]) < 1e-8

    def test_sym_coin_rejects_ab_with_energy(self):
        result = run_cli("run", "sym_coin", "ab")
        assert result.returncode == 1
        data = json.loads(result.stdout)
        assert data["outcome"] == "reject"
        assert abs(data["ground_energy"] - 2 / 3) < 1e-9

    def test_empty_string_on_equal_accepts(self):
        result = run_cli("run", "equal", "")
        assert result.returncode == 0

    def test_unknown_target_is_parse_error(self):
        result = run_cli("run", "nonsense", "x")
        assert result.returncode == 3

    def test_unknown_symbol_is_usage_error(self):
        result = run_cli("run", "equal", "xz")
        assert result.returncode == 3
        assert "alphabet" in result.stderr

    def test_unknown_symbol_on_pal_marked_is_usage_error(self):
        # The palindrome level checks the symbols before it reads them.
        result = run_cli("run", "pal_marked", "ab#bc")
        assert result.returncode == 3, result.stderr
        assert "'c'" in result.stderr and "alphabet" in result.stderr

    def test_unknown_symbol_on_sym_coin_is_usage_error(self):
        result = run_cli("run", "sym_coin", "aca")
        assert result.returncode == 3, result.stderr
        assert "'c'" in result.stderr and "alphabet" in result.stderr

    def test_unpromised_input_reports_indeterminate(self):
        result = run_cli("run", "usubsum", "0#1#1")
        assert result.returncode == 2
        data = json.loads(result.stdout)
        assert data["promised"] is False
        assert data["unique_ground"] is False

    def test_report_numbers_reparse(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("run", "sym_coin", "aa", "--out", str(out))
        data = json.loads(out.read_text())
        assert abs(data["ground_energy"] - 1 / 3) < 1e-10


class TestTrace:
    def test_csv_trace_row_count(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = run_cli("trace", "l_prefix_0", "0", "--T", "8", "--R", "256",
                         "--method", "trotter", "--out", str(out))
        assert result.returncode == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 257  # header + R records
        assert rows[0] == ["j", "s", "ground_energy", "overlap_sq", "norm"]
        final = rows[-1]
        assert abs(float(final[4]) - 1.0) < 1e-8
        # Regression value pinned from the first verified run.
        assert abs(float(final[3]) - 0.387599218114) < 1e-9

    def test_t0_single_trivial_row(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = run_cli("trace", "l_prefix_0", "0", "--T", "0", "--R", "1",
                         "--out", str(out))
        assert result.returncode == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 2

    def test_phase_matches_trotter_on_power_of_two(self, tmp_path):
        finals = {}
        for method in ("trotter", "phase"):
            out = tmp_path / f"{method}.csv"
            result = run_cli("trace", "l_prefix_0", "00", "--T", "4", "--R", "128",
                             "--method", method, "--out", str(out))
            assert result.returncode == 0
            finals[method] = list(csv.reader(out.read_text().splitlines()))[-1]
        for a, b in zip(finals["trotter"][1:], finals["phase"][1:]):
            assert abs(float(a) - float(b)) < 1e-6

    def test_pair_above_dense_limit(self):
        # equal on ababababab has dimension 1024 > EVOLVE_DIM_MAX and is a
        # pair of ProjectorComplements: trotter runs in span{g, f}, while the
        # phase method builds the dim x dim W and keeps the cap.
        args = ("trace", "equal", "ababababab", "--T", "8", "--R", "64")
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        result = run_cli(*args, "--method", "phase")
        assert result.returncode == 4, result.stderr
        assert "capacity error" in result.stderr


class TestVerify:
    def test_prefix_sweep_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        result = run_cli("verify", "l_prefix_0", "--max-len", "4", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["checked"] == 31

    def test_usubsum_params(self, tmp_path):
        out = tmp_path / "verify.json"
        result = run_cli("verify", "usubsum", "--max-params", "t<=3,k<=2,l<=2",
                         "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True

    def test_zero_inputs_vacuous_note(self, tmp_path):
        out = tmp_path / "verify.json"
        result = run_cli("verify", "equal", "--max-len", "-1", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["checked"] == 0
        assert "0 inputs" in data["note"]


class TestCompile:
    def test_parity_metadata_and_round_trip(self, tmp_path):
        specfile = tmp_path / "parity.json"
        specfile.write_text(json.dumps(MOQFA_DOC))
        out = tmp_path / "compiled.json"
        result = run_cli("compile", str(specfile), "11", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert abs(data["spectral_gap"] - 1.0) < 1e-9
        assert abs(data["ground_energy"]) < 1e-9
        assert data["outcome"] == "accept"
        # Round trip: reload the emitted triplets; equality is bit-exact.
        h = sparse_hermitian_from_json(data["dimension"], data["h_fin"])
        assert json.loads(json.dumps(sparse_hermitian_to_json(h))) == data["h_fin"]

    def test_non_diagonal_h_ini_lists_the_upper_triangle(self, tmp_path):
        specfile = tmp_path / "parity.json"
        specfile.write_text(json.dumps(MOQFA_DOC))
        out = tmp_path / "compiled.json"
        assert run_cli("compile", str(specfile), "11", "--out", str(out)).returncode == 0
        data = json.loads(out.read_text())
        triplets = data["h_ini"]
        assert any(r != c for r, c, _, _ in triplets)
        assert all(r <= c for r, c, _, _ in triplets)
        doc = MachineSpecDocument.from_json(json.dumps(MOQFA_DOC))
        emitted = SparseHermitian.from_dense(as_dense(from_moqfa(doc.to_moqfa()).build("11").h_ini))
        reloaded = sparse_hermitian_from_json(data["dimension"], triplets)
        assert reloaded.to_dense().tobytes() == emitted.to_dense().tobytes()

    def test_identity_moqqaf_compiles_to_mixture(self, tmp_path):
        doc = {
            "schema": 1,
            "kind": "moqqaf",
            "name": "idmix",
            "alphabet": ["0"],
            "dimension_schema": [{"name": "state", "labels": ["u", "v", "w"]}],
            "operators": {
                sym: [[["u"], ["u"], 1], [["v"], ["v"], 1], [["w"], ["w"], 1]]
                for sym in ("cent", "dollar", "0")
            },
            "initial_mixture": {"diagonal": [[["u"], 0]]},
            "halting": [],
            "criteria": {"acc": [["u"]], "rej": [["v"], ["w"]]},
        }
        specfile = tmp_path / "idmix.json"
        specfile.write_text(json.dumps(doc))
        out = tmp_path / "compiled.json"
        result = run_cli("compile", str(specfile), "00", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        # H_fin equals the initial mixture diag(0, 1, 1).
        triplets = {(r, c): re for r, c, re, im in data["h_fin"]}
        assert (0, 0) not in triplets
        assert triplets[(1, 1)] == pytest.approx(1.0)
        assert triplets[(2, 2)] == pytest.approx(1.0)

    def test_malformed_document_exit_code(self, tmp_path):
        specfile = tmp_path / "bad.json"
        specfile.write_text("{not json")
        result = run_cli("compile", str(specfile), "0")
        assert result.returncode == 3


class TestMisc:
    def test_gallery_list(self):
        result = run_cli("gallery-list")
        assert result.returncode == 0
        assert "sym_coin" in result.stdout
        assert "usubsum" in result.stdout

    @pytest.mark.parametrize("args", [
        ("trace", "l_prefix_0", "0", "--T", "nan", "--R", "8"),
        ("trace", "l_prefix_0", "0", "--T", "inf", "--R", "8"),
        ("trace", "l_prefix_0", "0", "--T", "1", "--R", "8", "--hbar", "nan"),
        ("gap", "l_prefix_0", "0", "--epsilon", "nan"),
        ("gap", "l_prefix_0", "0", "--delta", "inf"),
    ])
    def test_non_finite_numbers_are_usage_errors(self, args):
        result = run_cli(*args)
        assert result.returncode == 3, result.stderr
        assert "finite" in result.stderr

    @pytest.mark.parametrize("args", [
        ("--T", "1e300", "--R", "4"),
        ("--T", "1", "--R", "4", "--hbar", "1e-300"),
    ])
    def test_meaningless_step_phase_is_usage_error(self, args):
        result = run_cli("trace", "l_prefix_0", "0", *args)
        assert result.returncode == 3, result.stderr
        assert "STEP_PHASE_MAX" in result.stderr

    def test_large_step_phase_below_bound_runs(self):
        result = run_cli("trace", "l_prefix_0", "0", "--T", "1e6", "--R", "1")
        assert result.returncode == 0, result.stderr

    def test_gap_above_dense_limit_names_skipped_fields(self, tmp_path):
        out = tmp_path / "gap.json"
        result = run_cli("gap", "pal_marked", "a#a", "--out", str(out))
        assert result.returncode == 0, result.stderr
        data = json.loads(out.read_text())
        assert data["min_interpolation_gap"] is None
        assert data["time_bound"] is None
        assert "dimension 5625" in data["skipped"]
        assert "EVOLVE_DIM_MAX = 512" in data["skipped"]

    def test_gap_command(self, tmp_path):
        out = tmp_path / "gap.json"
        result = run_cli("gap", "l_prefix_0", "0", "--grid", "16", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["final_gap"] == pytest.approx(1.0, abs=1e-9)
        assert data["commutator_norm"] > 0
        assert data["min_interpolation_gap"] > 0
        assert data["time_bound"] > 0
        assert "skipped" not in data


    def test_gap_on_pair_above_dense_limit(self):
        # Dimension 1024, split in closed form: every field is computed.
        result = run_cli("gap", "equal", "ababababab", "--grid", "65")
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert "skipped" not in data
        assert data["min_interpolation_gap"] == pytest.approx(1.0 / 32.0, abs=1e-12)
        assert data["commutator_norm"] > 0 and data["time_bound"] > 0


class TestUsageErrors:
    """Bad user input exits 3 with a message; nothing is silently accepted."""

    @staticmethod
    def main_exit(capsys, *args):
        from aeqslab.cli import main

        code = main(list(args))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_gap_grid_below_two(self, capsys, grid):
        code, err = self.main_exit(capsys, "gap", "l_prefix_0", "0", "--grid", grid)
        assert code == 3, err
        assert f"invalid grid {grid}: need an integer in [2, inf)" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--grid", "1", "invalid grid 1: need an integer in [2, inf)"),
        ("--epsilon", "-3", "negative epsilon -3.0: need a finite real in (0.0, inf)"),
        ("--delta", "nan", "invalid delta nan: need a finite real in (0.0, inf)"),
    ])
    def test_gap_arguments_checked_above_dense_limit(self, capsys, option, value, message):
        # pal_marked on a#a has dimension 5625 > EVOLVE_DIM_MAX, whose scan
        # the command skips; its arguments are checked all the same.
        code, err = self.main_exit(capsys, "gap", "pal_marked", "a#a", option, value)
        assert code == 3, err
        assert message in err

    @pytest.mark.parametrize("target, bound, message", [
        ("usubsum", "t<=x", "must be an integer"),
        ("usubsum", "q<=1", "no parameter q"),
        ("multdup", "t<=1", "no parameter t"),
    ])
    def test_bad_max_params(self, capsys, target, bound, message):
        code, err = self.main_exit(capsys, "verify", target, "--max-params", bound)
        assert code == 3, err
        assert message in err

    @pytest.mark.parametrize("doc, message", [
        ({k: v for k, v in MOQFA_DOC.items() if k != "states"}, "missing required key 'states'"),
        (dict(MOQFA_DOC, operators=dict(MOQFA_DOC["operators"], cent=[[5, 0, 1], [1, 1, 1]])),
         "invalid row 5: need an integer in [0, 1]"),
        (dict(MOQFA_DOC, operators=dict(MOQFA_DOC["operators"], cent=[[-1, 0, 1], [1, 1, 1]])),
         "negative row -1: need an integer in [0, 1]"),
        ({"schema": 1, "kind": "garbage-1qfa", "alphabet": ["1"], "states": 1,
          "garbage_symbols": 1, "transitions": [[0, "cent", 0, 1]]},
         "transitions must be a list of 5-field entries"),
        (dict(MOQFA_DOC, error_bound=1.5), "invalid error_bound 1.5: need a real in [0.0, 1.0]"),
        ({"schema": 1, "kind": "moqqaf", "alphabet": ["1"],
          "dimension_schema": [{"name": "state", "labels": ["u", "v"]}],
          "operators": {sym: [[["u"], ["u"], 1], [["v"], ["v"], 1]]
                        for sym in ("cent", "dollar", "1")},
          "halting": [["u", "v"]]},
         "needs one label per coordinate"),
        ({"schema": 1, "kind": "moqqaf", "name": "both", "alphabet": ["1"],
          "dimension_schema": [{"name": "state", "labels": ["u", "v"]}],
          "operators": {sym: [[["u"], ["u"], 1], [["v"], ["v"], 1]]
                        for sym in ("cent", "dollar", "1")},
          "initial_mixture": {"diagonal": [[["u"], 0]]},
          "halting": [], "criteria": {"acc": [["u"]], "rej": [["v"], ["u"]]}},
         "overlap"),
        (dict(MOQFA_DOC, accepting=[0, 1], rejecting=[1]), "overlap"),
        (dict(GARBAGE_DOC, rejecting=[0]), "overlap"),
    ], ids=["moqfa-no-states", "row-too-large", "row-negative", "garbage-4-fields",
            "error-bound-above-one", "moqqaf-state-too-long", "moqqaf-criteria-overlap",
            "moqfa-criteria-overlap", "garbage-1qfa-criteria-overlap"])
    def test_malformed_machine_documents(self, capsys, tmp_path, doc, message):
        specfile = tmp_path / "doc.json"
        specfile.write_text(json.dumps(doc))
        code, err = self.main_exit(capsys, "compile", str(specfile), "1")
        assert code == 3, err
        assert message in err

    @pytest.mark.parametrize("doc", [MOQFA_DOC, GARBAGE_DOC], ids=["moqfa", "garbage-1qfa"])
    def test_symbol_outside_machine_alphabet(self, capsys, tmp_path, doc):
        specfile = tmp_path / "doc.json"
        specfile.write_text(json.dumps(doc))
        code, err = self.main_exit(capsys, "run", str(specfile), "00")
        assert code == 0, err
        code, err = self.main_exit(capsys, "run", str(specfile), "02")
        assert code == 3, err
        assert "symbol '2' outside the automaton's alphabet" in err

    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_non_unitary_moqqaf_document(self, capsys, tmp_path, command):
        # U_cent = diag(3, 1) parses, but its completeness defect is 8.
        identity = [[["u"], ["u"], 1], [["v"], ["v"], 1]]
        doc = {"schema": 1, "kind": "moqqaf", "name": "scaled", "alphabet": ["1"],
               "dimension_schema": [{"name": "state", "labels": ["u", "v"]}],
               "operators": {"cent": [[["u"], ["u"], 3], [["v"], ["v"], 1]],
                             "dollar": identity, "1": identity},
               "initial_mixture": {"diagonal": [[["u"], 0]]},
               "halting": [], "criteria": {"acc": [["u"]], "rej": [["v"]]}}
        specfile = tmp_path / "doc.json"
        specfile.write_text(json.dumps(doc))
        code, err = self.main_exit(capsys, command, str(specfile), "1")
        assert code == 3, err
        assert "not a quasi-automaton level" in err and "defect 8.000e+00" in err

    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_non_isometric_garbage_document(self, capsys, tmp_path, command):
        # Reading 0 keeps amplitude 0.9 of the one state: defect 1 - 0.81.
        transitions = [[0, sym, 0, 1, 0.9 if sym == "0" else 1]
                       for sym in ("cent", "dollar", "0", "1")]
        specfile = tmp_path / "doc.json"
        specfile.write_text(json.dumps(dict(GARBAGE_DOC, transitions=transitions)))
        code, err = self.main_exit(capsys, command, str(specfile), "1")
        assert code == 3, err
        assert "symbol '0' isometry defect 1.900e-01" in err

    @pytest.mark.parametrize("amplitude", [
        {"rational": [1]}, {"complex": [1]}, {"quotient": [1, 2, 3]}, {"product": 3},
    ], ids=["rational-1", "complex-1", "quotient-3", "product-number"])
    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_malformed_amplitude_operands(self, capsys, tmp_path, command, amplitude):
        ops = dict(MOQFA_DOC["operators"], cent=[[0, 0, amplitude], [1, 1, 1]])
        specfile = tmp_path / "doc.json"
        specfile.write_text(json.dumps(dict(MOQFA_DOC, operators=ops)))
        code, err = self.main_exit(capsys, command, str(specfile), "1")
        assert code == 3, err
        assert "operands" in err

    @pytest.mark.parametrize("argv, expected", [
        ([], 3),
        (["bogus"], 3),
        (["run", "l_prefix_0"], 3),
        (["--seed", "x", "run", "l_prefix_0", "0"], 3),
        (["gap", "l_prefix_0", "0", "--grid", "2.5"], 3),
        (["gap", "l_prefix_0", "0", "--grid", "x"], 3),
        (["gap", "l_prefix_0", "0", "--epsilon", "inf"], 3),
        (["gap", "l_prefix_0", "0", "--delta", "-1"], 3),
        (["trace", "l_prefix_0", "0", "--T", "1", "--R", "4", "--method", "nope"], 3),
        (["trace", "l_prefix_0", "0", "--T", "-1", "--R", "4"], 3),
        (["trace", "l_prefix_0", "0", "--T", "1", "--R", "0"], 3),
        (["trace", "l_prefix_0", "0", "--T", "1", "--R", "2.5"], 3),
        (["trace", "l_prefix_0", "0", "--T", "1", "--R", "4", "--hbar", "0"], 3),
        (["verify", "l_prefix_0", "--max-len", "-3"], 3),
        (["verify", "usubsum", "--max-params", "t<=-1"], 3),
        (["verify", "l_prefix_0", "--max-len", "100000"], 4),
        (["verify", "usubsum", "--max-params", "t<=40,k<=8,l<=3"], 4),
        (["verify", "multdup", "--max-params", "k<=8,l<=12"], 4),
    ])
    def test_hostile_argv_exits_with_one_line(self, capsys, argv, expected):
        # A parse error exits 3 like any other usage error: exit 2 is left to
        # "indeterminate".  A sweep too large to enumerate exits 4 at once.
        code, err = self.main_exit(capsys, *argv)
        assert code == expected, err
        assert err.count("\n") == 1 and "Traceback" not in err, err

    @pytest.mark.parametrize("value, message", [
        ("abc", "invalid AEQS_DENSE_MAX 'abc'"),
        ("0", "invalid AEQS_DENSE_MAX 0"),
        ("-5", "negative AEQS_DENSE_MAX -5"),
    ])
    def test_bad_dense_threshold_exits_4_with_one_line(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("AEQS_DENSE_MAX", value)
        code, err = self.main_exit(capsys, "run", "sym_coin", "ab")
        assert code == 4, err
        assert err.count("\n") == 1 and f"{message}: need an integer in [1, inf)" in err, err

    def test_help_exits_0(self, capsys):
        from aeqslab.cli import main

        assert main(["--help"]) == 0
        assert "usage: aeqslab" in capsys.readouterr().out

    def test_seed_is_restored_after_the_command(self, capsys):
        from aeqslab import linalg

        code, err = self.main_exit(capsys, "--seed", "7", "run", "l_prefix_0", "01")
        assert code == 0, err
        assert linalg.LANCZOS_SEED == 0x5EED

    def test_one_process_runs_commands_as_fresh_calls(self, tmp_path):
        # main shares one parser across calls; each command must still give
        # the report and exit code of a fresh process, and leave the seed.
        from aeqslab import linalg
        from aeqslab.cli import main

        commands = [("run", "sym_coin", "ab"), ("--seed", "7", "gap", "l_prefix_0", "01"),
                    ("run", "sym_coin", "ab")]
        for i, args in enumerate(commands):
            out = tmp_path / f"in_process_{i}.json"
            fresh = tmp_path / f"fresh_{i}.json"
            code = main([*args, "--out", str(out)])
            assert linalg.LANCZOS_SEED == 0x5EED
            assert code == run_fresh(*args, "--out", str(fresh)).returncode
            reports = [json.loads(path.read_text()) for path in (out, fresh)]
            for report in reports:
                report.pop("seconds", None)
            assert reports[0] == reports[1], args
