"""CLI surface tests: exit codes, JSON report schema, trace files."""

import csv
import json
import subprocess
import sys

import pytest

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


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


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
        from aeqslab.specdoc import sparse_hermitian_from_json

        h = sparse_hermitian_from_json(data["dimension"], data["h_fin"])
        payload2 = json.dumps(
            [[int(r), int(c), float(v.real), float(v.imag)]
             for r, c, v in zip(h.rows, h.cols, h.vals)]
        )
        assert json.loads(payload2) == data["h_fin"]

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

    def test_gap_command(self, tmp_path):
        out = tmp_path / "gap.json"
        result = run_cli("gap", "l_prefix_0", "0", "--grid", "16", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(out.read_text())
        assert data["final_gap"] == pytest.approx(1.0, abs=1e-9)
        assert data["commutator_norm"] > 0
        assert data["min_interpolation_gap"] > 0
        assert data["time_bound"] > 0
