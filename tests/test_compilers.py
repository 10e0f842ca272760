import dataclasses
import itertools

import numpy as np
import pytest

from aeqslab import aeqs, gallery
from aeqslab import compilers as cp
from aeqslab.aeqs import decide, deflation_vector
from aeqslab.linalg import CapacityError
from aeqslab.qqa import CENT, DOLLAR, BasisSchema

RNG = np.random.default_rng(31)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
W = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def parity_spec(q_acc={0}, q_rej={1}):
    return cp.MoQfaSpec(2, ("0", "1"),
                        {CENT: I2, DOLLAR: I2, "0": I2, "1": X},
                        q_acc=q_acc, q_rej=q_rej, name="parity")


def bitstrings(max_len):
    import itertools

    yield ""
    for n in range(1, max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


class TestRunMoqfa:
    def test_always_accept(self):
        spec = cp.MoQfaSpec(1, ("0", "1"),
                            {CENT: np.eye(1), DOLLAR: np.eye(1),
                             "0": np.eye(1), "1": np.eye(1)},
                            q_acc={0}, q_rej=set())
        assert cp.run_moqfa(spec, "0110") == (1.0, 0.0)

    def test_hadamard_split(self):
        spec = cp.MoQfaSpec(2, ("1",), {CENT: I2, DOLLAR: I2, "1": W},
                            q_acc={0}, q_rej={1})
        pa, pr = cp.run_moqfa(spec, "1")
        assert pa == pytest.approx(0.5)
        assert pr == pytest.approx(0.5)

    def test_parity_hand_computation(self):
        spec = parity_spec()
        assert cp.run_moqfa(spec, "111") == (pytest.approx(0.0), pytest.approx(1.0))
        assert cp.run_moqfa(spec, "11") == (pytest.approx(1.0), pytest.approx(0.0))

    def test_probabilities_bounded(self):
        spec = cp.random_moqfa_spec(RNG, 4)
        for x in ["", "01", "100"]:
            pa, pr = cp.run_moqfa(spec, x)
            assert 0.0 <= pa <= 1.0 and 0.0 <= pr <= 1.0
            assert pa + pr <= 1.0 + 1e-9

    @pytest.mark.parametrize("bad", [CENT, DOLLAR, "0", "1"])
    def test_unitarity_enforced(self, bad):
        ops = {sym: 0.9 * I2 if sym == bad else I2 for sym in (CENT, DOLLAR, "0", "1")}
        with pytest.raises(cp.CompileError, match=f"operator '{bad}' unitarity defect"):
            cp.MoQfaSpec(2, ("0", "1"), ops, q_acc={0}, q_rej={1})

    @pytest.mark.parametrize("order, first", [(("1", "0"), "1"), (("0", "1"), "0")])
    def test_first_bad_operator_named(self, order, first):
        # Named in the ops' order, not the alphabet's.
        ops = {CENT: I2, DOLLAR: I2, order[0]: 0.8 * I2, order[1]: 0.9 * I2}
        with pytest.raises(cp.CompileError, match=f"operator '{first}' unitarity defect"):
            cp.MoQfaSpec(2, ("0", "1"), ops, q_acc={0}, q_rej={1})

    @pytest.mark.parametrize("cent_scale", [1.0, 0.9], ids=["among-good", "after-a-bad-one"])
    def test_wrong_shape_named_before_any_defect(self, cent_scale):
        ops = {CENT: cent_scale * I2, DOLLAR: I2, "0": np.eye(3), "1": I2}
        with pytest.raises(cp.CompileError, match=r"operator '0' has shape \(3, 3\)"):
            cp.MoQfaSpec(2, ("0", "1"), ops, q_acc={0}, q_rej={1})


class TestFromMoqfa:
    def test_parity_verdicts(self):
        spec = parity_spec()
        fam = cp.from_moqfa(spec)
        for x in bitstrings(5):
            want = "accept" if x.count("1") % 2 == 0 else "reject"
            assert decide(fam.build(x)).outcome == want

    def test_padding_to_power_of_two(self):
        u3 = np.eye(3, dtype=complex)[:, [1, 2, 0]]
        spec = cp.MoQfaSpec(3, ("0",), {CENT: np.eye(3), DOLLAR: np.eye(3), "0": u3},
                            q_acc={0}, q_rej={1}, name="cycle3")
        fam = cp.from_moqfa(spec)
        inst = fam.build("0")
        assert inst.dim == 4
        assert inst.size_bits == 2
        # Padding state joins neither criteria set.
        assert 3 not in inst.s_acc and 3 not in inst.s_rej
        pa, pr = cp.run_moqfa(spec, "0")
        v = decide(inst)
        assert v.acc_overlap**2 == pytest.approx(pa, abs=1e-12)

    def test_compiled_gap_and_energy(self):
        for _ in range(5):
            spec = cp.random_moqfa_spec(RNG, int(RNG.integers(2, 5)))
            fam = cp.from_moqfa(spec)
            for x in ["", "0", "11", "010"]:
                v = decide(fam.build(x))
                assert abs(v.ground_energy) <= 1e-8
                assert abs(v.spectral_gap - 1.0) <= 1e-8

    def test_overlaps_match_probabilities(self):
        for _ in range(5):
            spec = cp.random_moqfa_spec(RNG, 4)
            fam = cp.from_moqfa(spec)
            for x in ["", "1", "01", "110"]:
                pa, pr = cp.run_moqfa(spec, x)
                v = decide(fam.build(x))
                assert v.acc_overlap**2 == pytest.approx(pa, abs=1e-7)
                assert v.rej_overlap**2 == pytest.approx(pr, abs=1e-7)


class TestGarbageModel:
    def test_deterministic_probabilities_are_binary(self):
        dfa = cp.dfa_as_garbage_spec(
            {(0, "0"): 1, (0, "1"): 2, (1, "0"): 1, (1, "1"): 1,
             (2, "0"): 2, (2, "1"): 2},
            3, q_acc={1}, q_rej={0, 2}, name="starts-with-0",
        )
        for x in bitstrings(4):
            pa, pr = cp.run_garbage_1qfa(dfa, x)
            assert pa in (pytest.approx(0.0), pytest.approx(1.0))
            assert pa + pr == pytest.approx(1.0)

    def test_mass_conservation(self):
        spec = cp.random_garbage_spec(RNG, 3, 2)
        for x in ["", "0", "0101"]:
            psi_mass = sum(
                abs(a) ** 2 for a in _final_amplitudes(spec, x).values()
            )
            assert psi_mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [CENT, DOLLAR, "0", "1"])
    def test_isometry_validation(self, bad):
        spec = cp.random_garbage_spec(RNG, 2, 2)
        with pytest.raises(cp.CompileError, match=f"symbol '{bad}' isometry defect"):
            dataclasses.replace(spec, delta={**spec.delta, (0, bad): [(0, 1, 0.9)]})

    def test_first_bad_symbol_named(self):
        # Named in the tables' order: cent, dollar, then the alphabet.
        spec = cp.random_garbage_spec(RNG, 2, 2)
        delta = {**spec.delta, (1, "1"): [(0, 1, 0.5)], (0, "0"): [(0, 1, 0.9)]}
        with pytest.raises(cp.CompileError, match="symbol '0' isometry defect"):
            dataclasses.replace(spec, delta=delta)

    def test_dfa_embedding_matches_language(self):
        dfa = cp.dfa_as_garbage_spec(
            {(0, "0"): 1, (0, "1"): 2, (1, "0"): 1, (1, "1"): 1,
             (2, "0"): 2, (2, "1"): 2},
            3, q_acc={1}, q_rej={0, 2}, name="starts-with-0",
        )
        fam = cp.from_garbage_1qfa(dfa)
        for x in bitstrings(5):
            want = "accept" if x.startswith("0") else "reject"
            assert decide(fam.build(x)).outcome == want

    def test_compiled_matches_run(self):
        for _ in range(3):
            spec = cp.random_garbage_spec(RNG, int(RNG.integers(2, 4)), int(RNG.integers(1, 3)))
            fam = cp.from_garbage_1qfa(spec)
            for x in ["", "0", "10", "0110"]:
                pa, pr = cp.run_garbage_1qfa(spec, x)
                v = decide(fam.build(x))
                assert v.acc_overlap**2 == pytest.approx(pa, abs=1e-7)
                assert v.rej_overlap**2 == pytest.approx(pr, abs=1e-7)
                assert abs(v.ground_energy) <= 1e-8
                assert abs(v.spectral_gap - 1.0) <= 1e-8
                assert v.unique_ground

    def test_ground_state_is_run_image(self):
        spec = cp.random_garbage_spec(RNG, 2, 2)
        fam = cp.from_garbage_1qfa(spec)
        inst = fam.build("01")
        from aeqslab.aeqs import ground_state

        energy, vec, unique = ground_state(inst.h_fin)
        assert energy == 0.0 and unique
        amps = _final_amplitudes(spec, "01")
        recon = np.zeros(inst.dim, dtype=complex)
        for (q, tape), a in amps.items():
            recon[inst.schema.index((q, tape))] = a
        assert abs(np.vdot(recon, vec)) == pytest.approx(1.0, abs=1e-9)

    def test_capacity_guard(self):
        spec = cp.random_garbage_spec(RNG, 3, 4)
        fam = cp.from_garbage_1qfa(spec)
        with pytest.raises(CapacityError):
            fam.build("0" * 8)

    def test_accuracy_mapping_on_known_error(self):
        # Automaton accepting members with probability exactly 1 - e: the
        # achieved accuracy is 1 - sqrt(1 - sqrt(1 - e)) and stays above 1/2
        # for e below ~0.38 (honest version of the quoted 1 - sqrt(e/2)).
        e = 0.1
        amp_acc, amp_rej = np.sqrt(1 - e), np.sqrt(e)
        u = np.array([[amp_acc, -amp_rej], [amp_rej, amp_acc]], dtype=complex)
        spec = cp.MoQfaSpec(2, ("0",), {CENT: I2, DOLLAR: u, "0": I2},
                            q_acc={0}, q_rej={1}, error_bound=e, name="biased")
        fam = cp.from_moqfa(spec)
        v = decide(fam.build("0"))
        assert v.outcome == "accept"
        expected_accuracy = 1.0 - np.sqrt(1.0 - np.sqrt(1.0 - e))
        assert v.accuracy == pytest.approx(expected_accuracy, abs=1e-9)
        assert v.accuracy > 0.5


class TestGarbageStrings:
    def test_enumeration_order(self):
        words = cp.garbage_strings(2, 2)
        assert words[0] == ()
        assert words[1:3] == [(1,), (2,)]
        assert words[3:] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def _final_amplitudes(spec, x):
    psi = {(spec.initial, ()): 1.0 + 0j}
    for sym in [CENT, *x, DOLLAR]:
        nxt = {}
        for (q, tape), amp in psi.items():
            for (p, xi, a) in spec.delta.get((q, sym), ()):
                key = (p, tape + (xi,))
                nxt[key] = nxt.get(key, 0j) + amp * a
        psi = nxt
    return psi


def index_route(spec, x):
    """The per-entry BasisSchema.index route to a compiled garbage-tape
    instance: (schema, psi, s_acc, s_rej, initial index)."""
    words = cp.garbage_strings(spec.xi_size, len(x) + 2)
    schema = BasisSchema([("state", tuple(range(spec.n_states))), ("garbage", tuple(words))])
    psi = np.zeros(schema.dim, dtype=complex)
    for (q, tape), amp in _final_amplitudes(spec, x).items():
        psi[schema.index((q, tape))] = amp
    psi /= np.linalg.norm(psi)
    s_acc = frozenset(schema.index((q, w)) for q in spec.q_acc for w in words)
    s_rej = frozenset(schema.index((q, w)) for q in spec.q_rej for w in words)
    return schema, psi, s_acc, s_rej, schema.index((spec.initial, ()))


# Shapes of the decide benchmark's compiled garbage-tape sweep.
SWEEP_GARBAGE_SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2)]
# The graded run sums each amplitude in a matrix product, the dict run in
# insertion order; NumPy's complex multiply also rounds differently from
# Python's in the last bit, so the two agree to rounding, not bit for bit.
GRADED_RUN_TOL = 1e-15


def radix_index(word, xi_size):
    """The place of a garbage word among the words of its length."""
    index = 0
    for g in word:
        index = index * xi_size + g - 1
    return index


class TestGradedRun:
    @pytest.mark.parametrize("n_states, xi_size", SWEEP_GARBAGE_SHAPES)
    def test_matches_dict_run(self, n_states, xi_size):
        spec = cp.random_garbage_spec(np.random.default_rng(5 * n_states + xi_size),
                                      n_states, xi_size)
        tables = cp._garbage_tables(spec)
        for x in bitstrings(6):
            top = cp._garbage_run(spec, tables, x)
            expect = np.zeros((xi_size ** (len(x) + 2), n_states), dtype=complex)
            for (q, tape), amp in _final_amplitudes(spec, x).items():
                assert len(tape) == len(x) + 2
                expect[radix_index(tape, xi_size), q] = amp
            assert np.abs(top - expect).max() <= GRADED_RUN_TOL

    def test_dfa_probabilities_exact(self):
        dfa = cp.dfa_as_garbage_spec(
            {(0, "0"): 1, (0, "1"): 2, (1, "0"): 1, (1, "1"): 1,
             (2, "0"): 2, (2, "1"): 2},
            3, q_acc={1}, q_rej={0, 2}, name="starts-with-0",
        )
        for x in bitstrings(6):
            want = (1.0, 0.0) if x.startswith("0") else (0.0, 1.0)
            assert cp.run_garbage_1qfa(dfa, x) == want


class TestGarbageLayout:
    @pytest.mark.parametrize("n_states, xi_size", SWEEP_GARBAGE_SHAPES)
    def test_layout_matches_index_route(self, n_states, xi_size):
        spec = cp.random_garbage_spec(np.random.default_rng(7 * n_states + xi_size),
                                      n_states, xi_size)
        fam = cp.from_garbage_1qfa(spec)
        for x in bitstrings(4):
            inst = fam.build(x)
            schema, psi, s_acc, s_rej, initial = index_route(spec, x)
            assert inst.schema.coords == schema.coords
            assert np.array_equal(inst.s_acc, sorted(s_acc))
            assert np.array_equal(inst.s_rej, sorted(s_rej))
            assert np.abs(inst.h_fin.vector - psi).max() <= GRADED_RUN_TOL
            assert np.array_equal(inst.h_ini.vector, deflation_vector(schema.dim, initial))

    @pytest.mark.parametrize("seed, x", [(1, "000"), (1, "110"), (3, "000"), (3, "001"),
                                         (3, "100"), (3, "110")])
    def test_verdict_bits_do_not_depend_on_set_order(self, seed, x):
        # Summed in a set's iteration order, which is not ascending for
        # these specs' criteria, these verdicts moved in the last bit.  The
        # verdict is the kernel's on the ascending indices.
        spec = cp.random_garbage_spec(np.random.default_rng(seed), 3, 2)
        inst = cp.from_garbage_1qfa(spec).build(x)
        words = cp.garbage_strings(spec.xi_size, len(x) + 2)
        acc, rej = (np.array(sorted(inst.schema.index((q, w)) for q in states for w in words),
                             dtype=np.int64) for states in (spec.q_acc, spec.q_rej))
        energy, psi, gap, unique = aeqs._lowest_two(inst.h_fin)
        want = aeqs.decide_rows((np.abs(psi) ** 2)[None, :], [energy], [gap], [unique],
                                acc, rej, inst.epsilon)[0]
        assert repr(decide(inst).as_dict()) == repr(want.as_dict())

    def test_one_layout_per_length(self):
        fam = cp.from_garbage_1qfa(cp.random_garbage_spec(RNG, 2, 2))
        a, b, c = fam.build("01"), fam.build("10"), fam.build("011")
        assert a.h_ini is b.h_ini and a.s_acc is b.s_acc and a.schema is b.schema
        assert c.h_ini is not a.h_ini and c.dim > a.dim

    def test_capacity_at_the_same_length(self, monkeypatch):
        # The index route sized the space by listing the words: with
        # xi_size 2 the last length that fits is 12.
        spec = cp.random_garbage_spec(RNG, 2, 2)
        assert spec.n_states * len(cp.garbage_strings(2, 12 + 2)) <= cp.GARBAGE_CAPACITY
        assert spec.n_states * len(cp.garbage_strings(2, 13 + 2)) > cp.GARBAGE_CAPACITY
        assert cp.garbage_layout(spec, 12).schema.dim <= cp.GARBAGE_CAPACITY
        listed = count_calls(monkeypatch, cp, "garbage_strings")
        fam = cp.from_garbage_1qfa(spec)
        for _ in range(2):
            with pytest.raises(CapacityError):
                fam.build("0" * 13)
        # No layout was built, so none is kept for that length.
        assert listed == []


class TestMoqfaFamily:
    @pytest.mark.parametrize("n_states", [2, 3, 4])
    def test_psi_matches_padded_op_route(self, n_states):
        spec = cp.random_moqfa_spec(np.random.default_rng(n_states), n_states)
        fam = cp.from_moqfa(spec)
        for x in bitstrings(4):
            psi = np.zeros(spec.padded_states, dtype=complex)
            psi[spec.initial] = 1.0
            for sym in [CENT, *x, DOLLAR]:
                psi = spec.padded_op(sym) @ psi
            assert np.array_equal(fam.build(x).h_fin.vector, psi)

    def test_spec_parts_shared(self):
        spec = cp.random_moqfa_spec(RNG, 3)
        fam = cp.from_moqfa(spec)
        a, b = fam.build("0"), fam.build("110")
        assert a.h_ini is b.h_ini and a.s_acc is b.s_acc and a.s_rej is b.s_rej
        assert np.array_equal(a.h_ini.vector, deflation_vector(spec.padded_states, spec.initial))


class TestSymbolOutsideAlphabet:
    def test_moqfa(self):
        spec = parity_spec()
        for call in (lambda: cp.run_moqfa(spec, "02"), lambda: cp.from_moqfa(spec).build("02")):
            with pytest.raises(cp.CompileError, match="symbol '2' outside"):
                call()

    def test_garbage(self):
        spec = cp.random_garbage_spec(RNG, 2, 1)
        fam = cp.from_garbage_1qfa(spec)
        for call in (lambda: cp.run_garbage_1qfa(spec, "02"), lambda: fam.build("02")):
            with pytest.raises(cp.CompileError, match="symbol '2' outside"):
                call()

    def test_checked_before_the_layout(self):
        # An over-capacity length with a bad symbol names the symbol.
        fam = cp.from_garbage_1qfa(cp.random_garbage_spec(RNG, 2, 2))
        with pytest.raises(cp.CompileError, match="symbol '2' outside"):
            fam.build("2" * 20)


def count_calls(monkeypatch, owner, attribute):
    calls = []
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)
    return calls


class TestRouteGuard:
    """Which routes a batch of compiled inputs takes; no timing."""

    def test_decide_builds_no_projector_eigenpairs(self, monkeypatch):
        families = [cp.from_moqfa(cp.random_moqfa_spec(RNG, 3)),
                    cp.from_garbage_1qfa(cp.random_garbage_spec(RNG, 2, 2)),
                    gallery.build("l_prefix_0").family]
        calls = count_calls(monkeypatch, aeqs, "_projector_eigenpairs")
        for fam in families:
            for x in bitstrings(3):
                decide(fam.build(x))
        assert calls == []

    def test_schema_index_calls_per_length_not_per_input(self, monkeypatch):
        spec = cp.random_garbage_spec(RNG, 3, 2)
        calls = count_calls(monkeypatch, BasisSchema, "index")

        def index_calls(inputs):
            calls.clear()
            fam = cp.from_garbage_1qfa(spec)
            for x in inputs:
                fam.build(x)
            return len(calls)

        per_length = index_calls(["101"])
        assert per_length <= 1
        assert index_calls(["".join(w) for w in itertools.product("01", repeat=3)]) == per_length
        assert index_calls(list(bitstrings(3))) == 4 * per_length


class TestErrorBound:
    # The rule specdoc applies to a document: None or a number in [0, 1].
    @staticmethod
    def moqfa(error_bound):
        return cp.MoQfaSpec(2, ("0",), {CENT: I2, DOLLAR: I2, "0": X},
                            q_acc={0}, q_rej={1}, error_bound=error_bound)

    @staticmethod
    def garbage(error_bound):
        # Each step keeps the state and writes it on the tape, as a DFA embedding.
        delta = {(q, sym): [(q, q + 1, 1.0)] for q in range(2) for sym in (CENT, DOLLAR, "0")}
        return cp.GarbageQfaSpec(2, ("0",), 2, delta, q_acc={0}, q_rej={1},
                                 error_bound=error_bound)

    @pytest.mark.parametrize("kind", ["moqfa", "garbage"])
    @pytest.mark.parametrize("error_bound", [float("nan"), float("inf"), 1.5, -0.1, True, False])
    def test_rejected(self, kind, error_bound):
        with pytest.raises(cp.CompileError, match="error_bound"):
            getattr(self, kind)(error_bound)

    @pytest.mark.parametrize("kind", ["moqfa", "garbage"])
    @pytest.mark.parametrize("error_bound", [None, 0.0, 0.1, 1.0])
    def test_accepted(self, kind, error_bound):
        spec = getattr(self, kind)(error_bound)
        assert spec.error_bound == error_bound


def matmul_walk(ops, psi, x):
    """The run written with ``@``: one product per extended symbol."""
    for sym in [CENT, *x, DOLLAR]:
        psi = ops[sym] @ psi
    return psi


def readout_bytes(probs, spec):
    return np.array([probs[spec.q_acc].sum(), probs[spec.q_rej].sum()]).tobytes()


class TestProductBits:
    # The runs take their products through ndarray.dot, which calls the
    # same BLAS kernel as ``@``; these pins hold them to the ``@`` walk's
    # bits, which approximate comparisons cannot see.
    @pytest.mark.parametrize("n_states", [2, 3, 4])
    def test_moqfa(self, n_states):
        spec = cp.random_moqfa_spec(np.random.default_rng(40 + n_states), n_states)
        padded = {sym: spec.padded_op(sym) for sym in spec.ops}
        fam = cp.from_moqfa(spec)
        for x in bitstrings(5):
            psi = matmul_walk(spec.ops, np.eye(spec.n_states, dtype=complex)[spec.initial], x)
            got = np.array(cp.run_moqfa(spec, x)).tobytes()
            assert got == readout_bytes(np.abs(psi) ** 2, spec), x
            start = np.eye(spec.padded_states, dtype=complex)[spec.initial]
            psi = matmul_walk(padded, start, x)
            assert fam.build(x).h_fin.vector.tobytes() == psi.tobytes(), x

    @pytest.mark.parametrize("n_states, xi_size", SWEEP_GARBAGE_SHAPES)
    def test_garbage(self, n_states, xi_size):
        spec = cp.random_garbage_spec(np.random.default_rng(50 + 5 * n_states + xi_size),
                                      n_states, xi_size)
        fam = cp.from_garbage_1qfa(spec)
        for x in bitstrings(5):
            top = np.zeros((1, n_states), dtype=complex)
            top[0, spec.initial] = 1.0
            for sym in [CENT, *x, DOLLAR]:
                top = (top @ spec.tables[sym]).reshape(-1, n_states)
            assert cp._garbage_run(spec, spec.tables, x).tobytes() == top.tobytes(), x
            got = np.array(cp.run_garbage_1qfa(spec, x)).tobytes()
            assert got == readout_bytes((np.abs(top) ** 2).sum(axis=0), spec), x
            n_words = len(cp.garbage_strings(xi_size, len(x) + 2))
            psi = np.zeros(n_states * n_words, dtype=complex)
            psi.reshape(n_states, n_words)[:, n_words - len(top):] = top.T
            psi /= np.linalg.norm(psi)
            assert fam.build(x).h_fin.vector.tobytes() == psi.tobytes(), x


def reference_haar_unitary(rng, n):
    """One Haar unitary as the generators drew each before they drew a stack."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_garbage_delta(rng, n_states, xi_size, alphabet=("0", "1")):
    delta = {}
    for sym in [CENT, DOLLAR, *alphabet]:
        big = reference_haar_unitary(rng, n_states * xi_size)
        for q in range(n_states):
            col = big[:, q]
            moves = []
            for p in range(n_states):
                for xi in range(1, xi_size + 1):
                    amp = col[p * xi_size + (xi - 1)]
                    if abs(amp) > 1e-14:
                        moves.append((p, xi, complex(amp)))
            delta[(q, sym)] = moves
    return delta


def readout_of(rng, n_states):
    labels = rng.integers(0, 3, size=n_states)
    return np.flatnonzero(labels == 0), np.flatnonzero(labels == 1), int(rng.integers(0, n_states))


def assert_same_readout(spec, q_acc, q_rej, initial):
    assert spec.q_acc.tobytes() == q_acc.tobytes() and spec.q_acc.dtype == q_acc.dtype
    assert spec.q_rej.tobytes() == q_rej.tobytes() and spec.q_rej.dtype == q_rej.dtype
    assert spec.initial == initial and type(spec.initial) is int


class TestStackedDraws:
    """The generators draw every symbol's unitary as one stack; the specs and
    the generator's state after them are those of one draw per symbol."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_states", [2, 3, 4, 5])
    def test_moqfa_spec_is_the_per_symbol_draw(self, seed, n_states):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        spec = cp.random_moqfa_spec(rng, n_states)
        ops = {sym: reference_haar_unitary(ref, n_states) for sym in (CENT, DOLLAR, "0", "1")}
        readout = readout_of(ref, n_states)
        assert list(spec.ops) == list(ops)
        for sym, u in ops.items():
            assert spec.ops[sym].dtype == u.dtype and spec.ops[sym].tobytes() == u.tobytes(), sym
        assert_same_readout(spec, *readout)
        assert rng.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_states, xi_size",
                             list(itertools.product([2, 3], [1, 2, 3])))
    def test_garbage_spec_is_the_per_symbol_draw(self, seed, n_states, xi_size):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        spec = cp.random_garbage_spec(rng, n_states, xi_size)
        delta = reference_garbage_delta(ref, n_states, xi_size)
        readout = readout_of(ref, n_states)
        # Values, types and order of every move, and the order of the keys.
        assert list(spec.delta) == list(delta)
        for key, moves in delta.items():
            got = spec.delta[key]
            assert [tuple(map(type, m)) for m in got] == [tuple(map(type, m)) for m in moves]
            assert repr(got) == repr(moves), key
        want = cp._garbage_tables(dataclasses.replace(spec, delta=delta))
        assert list(spec.tables) == list(want)
        for sym, table in want.items():
            assert spec.tables[sym].tobytes() == table.tobytes(), sym
        assert_same_readout(spec, *readout)
        assert rng.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()

    def test_stack_is_unitary(self):
        us = cp.haar_unitaries(np.random.default_rng(0), 3, 4)
        assert us.shape == (3, 4, 4)
        for u in us:
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
