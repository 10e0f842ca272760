import json
import math

import numpy as np
import pytest

from aeqslab.aeqs import as_dense, deflation_hamiltonian
from aeqslab.compilers import from_garbage_1qfa, from_moqfa
from aeqslab.specdoc import (
    DocumentError,
    MachineSpecDocument,
    evaluate_amplitude,
    hamiltonian_to_json,
    sparse_hermitian_from_json,
    sparse_hermitian_to_json,
)
from aeqslab.linalg import SparseHermitian
from aeqslab.qqa import QqaError, generate_moqqaf


class TestAmplitudeExpressions:
    def test_plain_numbers(self):
        assert evaluate_amplitude(3) == 3.0
        assert evaluate_amplitude(0.25) == 0.25

    def test_rational(self):
        assert evaluate_amplitude({"rational": [4, 5]}) == pytest.approx(0.8)
        assert evaluate_amplitude({"rational": [-3, 5]}) == pytest.approx(-0.6)

    def test_sqrt_product_quotient(self):
        # 4*sqrt(39)/25 evaluated exactly from its expression form.
        expr = {"quotient": [{"product": [4, {"sqrt": 39}]}, 25]}
        assert evaluate_amplitude(expr) == pytest.approx(4 * math.sqrt(39) / 25)

    def test_complex_pair(self):
        value = evaluate_amplitude({"complex": [{"rational": [1, 2]}, {"sqrt": {"rational": [3, 4]}}]})
        assert value == pytest.approx(0.5 + 1j * math.sqrt(0.75))

    def test_rejections(self):
        with pytest.raises(DocumentError):
            evaluate_amplitude({"sqrt": -1})
        with pytest.raises(DocumentError):
            evaluate_amplitude({"rational": [1, 0]})
        with pytest.raises(DocumentError):
            evaluate_amplitude({"mystery": 1})
        with pytest.raises(DocumentError):
            evaluate_amplitude(True)

    @pytest.mark.parametrize("expr", [
        {"rational": [1]}, {"rational": 1}, {"complex": [1]}, {"complex": [1, 2, 3]},
        {"quotient": [1]}, {"quotient": 2}, {"product": 3},
        {"rational": ["1", 2]},
    ])
    def test_malformed_operands(self, expr):
        with pytest.raises(DocumentError):
            evaluate_amplitude(expr)


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
    "name": "split",
    "alphabet": ["1"],
    "states": 2,
    "garbage_symbols": 2,
    "initial": 0,
    "accepting": [0],
    "rejecting": [1],
    "transitions": [
        [0, "cent", 0, 1, 1], [1, "cent", 1, 1, 1],
        [0, "dollar", 0, 1, 1], [1, "dollar", 1, 1, 1],
        [0, "1", 0, 1, {"sqrt": {"rational": [1, 2]}}],
        [0, "1", 1, 1, {"sqrt": {"rational": [1, 2]}}],
        [1, "1", 0, 2, {"sqrt": {"rational": [1, 2]}}],
        [1, "1", 1, 2, {"product": [{"rational": [-1, 1]}, {"sqrt": {"rational": [1, 2]}}]}],
    ],
}

MOQQAF_DOC = {
    "schema": 1,
    "kind": "moqqaf",
    "name": "tiny",
    "alphabet": ["0"],
    "dimension_schema": [{"name": "state", "labels": ["u", "v"]}],
    "operators": {
        "cent": [[["u"], ["u"], 1], [["v"], ["v"], 1]],
        "dollar": [[["u"], ["u"], 1], [["v"], ["v"], 1]],
        "0": [[["v"], ["u"], 1], [["u"], ["v"], 1]],
    },
    "initial_mixture": {"diagonal": [[["u"], 0]]},
    "halting": [],
    "criteria": {"acc": [["u"]], "rej": [["v"]]},
}


class TestDocuments:
    def test_moqfa_round_trip(self):
        doc = MachineSpecDocument.from_json(json.dumps(MOQFA_DOC))
        spec = doc.to_moqfa()
        from aeqslab.compilers import run_moqfa

        assert run_moqfa(spec, "11") == (pytest.approx(1.0), pytest.approx(0.0))
        assert run_moqfa(spec, "1") == (pytest.approx(0.0), pytest.approx(1.0))

    def test_garbage_document(self):
        doc = MachineSpecDocument.from_json(json.dumps(GARBAGE_DOC))
        spec = doc.to_garbage_qfa()
        from aeqslab.compilers import run_garbage_1qfa

        pa, pr = run_garbage_1qfa(spec, "1")
        assert pa == pytest.approx(0.5)
        assert pr == pytest.approx(0.5)

    def test_moqqaf_document(self):
        doc = MachineSpecDocument.from_json(json.dumps(MOQQAF_DOC))
        level, criteria = doc.to_moqqaf()
        e = generate_moqqaf(level, "0")
        dense = e.operator.to_dense()
        # 0 reads swap u<->v; Lambda0 = diag(0, 1) conjugated by the swap.
        assert np.allclose(dense, np.diag([1.0, 0.0]))
        assert criteria["acc"] == frozenset({0})

    def test_schema_version_enforced(self):
        bad = dict(MOQFA_DOC, schema=2)
        with pytest.raises(DocumentError):
            MachineSpecDocument.from_dict(bad)

    def test_kind_enforced(self):
        bad = dict(MOQFA_DOC, kind="qtm")
        with pytest.raises(DocumentError):
            MachineSpecDocument.from_dict(bad)

    @pytest.mark.parametrize("doc,realize", [(MOQFA_DOC, "to_moqfa"),
                                             (GARBAGE_DOC, "to_garbage_qfa")])
    @pytest.mark.parametrize("error_bound", [True, False])
    def test_boolean_error_bound_rejected(self, doc, realize, error_bound):
        # A bool is an int to isinstance, but "error_bound": true is no number.
        text = json.dumps(dict(doc, error_bound=error_bound))
        with pytest.raises(DocumentError, match="error_bound"):
            getattr(MachineSpecDocument.from_json(text), realize)()

    def test_wrong_kind_realization(self):
        doc = MachineSpecDocument.from_dict(MOQFA_DOC)
        with pytest.raises(DocumentError):
            doc.to_garbage_qfa()


class TestFamily:
    """MachineSpecDocument.family loads every kind of document as a family."""

    @pytest.mark.parametrize("raw, realize, compile_, x", [
        (MOQFA_DOC, "to_moqfa", from_moqfa, "11"),
        (GARBAGE_DOC, "to_garbage_qfa", from_garbage_1qfa, "1"),
    ], ids=["moqfa", "garbage-1qfa"])
    def test_automaton_is_compiled(self, raw, realize, compile_, x):
        doc = MachineSpecDocument.from_dict(raw)
        loaded = doc.family().build(x)
        compiled = compile_(getattr(doc, realize)()).build(x)
        for h in ("h_ini", "h_fin"):
            assert np.array_equal(as_dense(getattr(loaded, h)), as_dense(getattr(compiled, h)))
        for side in ("s_acc", "s_rej"):
            assert getattr(loaded, side).tolist() == getattr(compiled, side).tolist()

    @pytest.mark.parametrize("x, outcome", [("0", "reject"), ("00", "accept")])
    def test_moqqaf_level_starts_on_the_first_basis_state(self, x, outcome):
        doc = MachineSpecDocument.from_dict(MOQQAF_DOC)
        level, _ = doc.to_moqqaf()
        family = doc.family()
        inst = family.build(x)
        assert (family.name, family.alphabet) == ("tiny", ("0",))
        assert np.array_equal(as_dense(inst.h_ini), as_dense(deflation_hamiltonian(2, 0)))
        assert np.array_equal(as_dense(inst.h_fin), generate_moqqaf(level, x).operator.to_dense())
        assert (inst.s_acc.tolist(), inst.s_rej.tolist()) == ([0], [1])
        assert family.decide(x).outcome == outcome

    def test_moqqaf_level_is_validated(self):
        ops = dict(MOQQAF_DOC["operators"], cent=[[["u"], ["u"], 3], [["v"], ["v"], 1]])
        doc = MachineSpecDocument.from_dict(dict(MOQQAF_DOC, operators=ops))
        with pytest.raises(QqaError, match="'tiny' is not a quasi-automaton level"):
            doc.family()


class TestHamiltonianSerialization:
    def test_any_hamiltonian_is_written_as_its_sparse_form(self):
        doc = MachineSpecDocument.from_dict(MOQFA_DOC)
        inst = doc.family().build("11")
        sparse = SparseHermitian.from_dense(as_dense(inst.h_fin))
        assert hamiltonian_to_json(sparse) == sparse_hermitian_to_json(sparse)
        for h in (inst.h_ini, inst.h_fin):         # ProjectorComplements, densified
            assert not isinstance(h, SparseHermitian)
            assert hamiltonian_to_json(h) == sparse_hermitian_to_json(
                SparseHermitian.from_dense(as_dense(h)))

    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = SparseHermitian.from_dense((a + a.conj().T) / 2)
        payload = json.dumps(sparse_hermitian_to_json(h))
        back = sparse_hermitian_from_json(6, json.loads(payload))
        assert back.dim == h.dim
        assert np.array_equal(back.rows, h.rows)
        assert np.array_equal(back.cols, h.cols)
        assert np.array_equal(back.vals, h.vals)
