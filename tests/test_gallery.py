import dataclasses

import numpy as np
import pytest

from aeqslab import gallery
from aeqslab.aeqs import (
    AeqsInstance,
    ProjectorComplement,
    decide,
    deflation_vector,
    ground_state,
    lowest_pairs,
)
from aeqslab.linalg import LinalgError, spectral_norm
from aeqslab.qqa import (
    CENT,
    DOLLAR,
    STEP,
    BasisSchema,
    MeasureOnceGrounds,
    SparseOp,
    UnknownSymbolError,
    generate_2qqaf,
    generate_moqqaf,
    gram_defect,
    validate_level,
)


class TestOracles:
    def test_prefix(self):
        e = gallery.build("l_prefix_0")
        assert e.oracle("01") == "accept"
        assert e.oracle("10") == "reject"
        assert e.oracle("") == "reject"

    def test_equal_counts(self):
        e = gallery.build("equal")
        assert e.oracle("abab") == "accept"
        assert e.oracle("") == "accept"
        assert e.oracle("aab") == "reject"

    def test_sym_coin_all_pairs_allowed(self):
        e = gallery.build("sym_coin")
        # Multiple witnesses are fine: the oracle has no uniqueness promise.
        assert e.oracle("aaaa") == "accept"
        assert e.oracle("ab") == "reject"

    def test_usubsum_promise(self):
        e = gallery.build("usubsum")
        assert e.oracle("0#1") == "accept"
        assert e.oracle("0#11") == "reject"
        # Two singleton subsets reach the target: uniqueness violated.
        assert e.oracle("0#1#1") == "not-promised"
        assert e.oracle("01") == "not-promised"

    def test_multdup_promise(self):
        e = gallery.build("multdup")
        assert e.oracle("01#01") == "accept"
        assert e.oracle("01#11") == "reject"
        assert e.oracle("01#10") == "not-promised"   # two differing symbols
        assert e.oracle("0#11") == "not-promised"    # ragged blocks

    def test_pal(self):
        e = gallery.build("pal_marked")
        assert e.oracle("ab#ba") == "accept"
        assert e.oracle("a#a") == "accept"
        assert e.oracle("a#b") == "reject"
        assert e.oracle("aa") == "reject"

    def test_unknown_name(self):
        with pytest.raises(gallery.GalleryError):
            gallery.build("nope")


class TestPrefixEntry:
    @pytest.mark.parametrize("a", ["0", "1"])
    def test_sweep(self, a):
        e = gallery.build(f"l_prefix_{a}")
        report = gallery.verify(e, gallery.strings_up_to(("0", "1"), 5))
        assert report.passed
        assert report.checked == 63

    def test_paper_values_on_01(self):
        v = gallery.build("l_prefix_0").family.decide("01")
        assert v.outcome == "accept"
        assert v.ground_energy == pytest.approx(0.0, abs=1e-8)
        assert v.spectral_gap == pytest.approx(1.0, abs=1e-8)

    def test_levels_validate(self):
        e = gallery.build("l_prefix_0")
        for level in e.validation_levels("01"):
            assert validate_level(level).passed


class TestEqualEntry:
    def test_sweep(self):
        e = gallery.build("equal")
        report = gallery.verify(e, gallery.strings_up_to(("a", "b"), 5))
        assert report.passed

    def test_member_ground_state_is_clock_landing(self):
        e = gallery.build("equal")
        inst = e.family.build("ab")
        energy, vec, unique = ground_state(inst.h_fin)
        assert unique and energy == pytest.approx(0.0, abs=1e-12)
        landing = inst.schema.index(("q1", (3 * 1 + 1) % 2))
        assert abs(vec[landing]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_string_accepts(self):
        assert gallery.build("equal").family.decide("").outcome == "accept"

    def test_levels_validate(self):
        e = gallery.build("equal")
        for x in ["", "ab", "aabb"]:
            for level in e.validation_levels(x):
                assert validate_level(level).passed


def one_shot_ground(level, x):
    """g = U_cent_x_dollar e_m, carried afresh through every symbol; e_m is
    the one index the diagonal Lambda0 does not store."""
    g = np.zeros(level.dim, dtype=complex)
    g[np.setdiff1d(np.arange(level.dim), level.lam0.rows)] = 1.0
    for symbol in [CENT, *x, DOLLAR]:
        g = level.unitary(symbol).matvec(g)
    return g


class TestMeasureOnceRoute:
    """The prefix and equal entries store H_fin as I - |g><g| with g from a
    qqa.MeasureOnceGrounds carrier; generate_moqqaf on the same level, the
    paper's general construction, is the oracle."""

    @pytest.mark.parametrize("name", ["l_prefix_0", "l_prefix_1", "equal"])
    def test_matches_generate_moqqaf_route(self, name):
        entry = gallery.build(name)
        for x in gallery.strings_up_to(entry.family.alphabet, 8):
            inst = entry.family.build(x)
            assert isinstance(inst.h_fin, ProjectorComplement)
            oracle = generate_moqqaf(entry.validation_levels(x)[0], x).operator
            assert np.abs(inst.h_fin.to_dense() - oracle.to_dense()).max() <= 1e-12, x
            got, want = decide(inst), decide(dataclasses.replace(inst, h_fin=oracle))
            assert (got.outcome, got.unique_ground) == (want.outcome, want.unique_ground), x
            for field in ("ground_energy", "spectral_gap", "accuracy", "acc_overlap",
                          "rej_overlap"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, (x, field)
            # The closed form makes the analyzed values exact.
            assert got.ground_energy == 0.0 and got.spectral_gap == 1.0

    @pytest.mark.parametrize("name", ["l_prefix_0", "equal"])
    def test_validation_checks_the_building_level(self, name, monkeypatch):
        # The validation report must look at the operators the instance was
        # built from: the same cached level object, not an equal rebuild.
        used = []
        ground = MeasureOnceGrounds.ground

        def recording(carrier, x):
            used.append(carrier.level)
            return ground(carrier, x)

        monkeypatch.setattr(MeasureOnceGrounds, "ground", recording)
        entry = gallery.build(name)
        for x in ["", entry.family.alphabet[0], "".join(entry.family.alphabet) * 2]:
            entry.family.build(x)
            assert entry.validation_levels(x)[0] is used[-1], x

    @pytest.mark.parametrize("order", ["lexicographic", "reversed", "shuffled"])
    @pytest.mark.parametrize("name", ["l_prefix_0", "l_prefix_1", "equal"])
    def test_carrier_matches_one_shot_carry(self, name, order):
        # A carrier resumes from the prefix it shares with the previous
        # input; a fresh carry through every symbol gives the same bits.
        entry = gallery.build(name)
        inputs = list(gallery.strings_up_to(entry.family.alphabet, 8))
        if order == "reversed":
            inputs.reverse()
        elif order == "shuffled":
            inputs = [inputs[i] for i in np.random.default_rng(4).permutation(len(inputs))]
        for x in inputs:
            got = entry.family.build(x).h_fin.vector
            assert got.tobytes() == one_shot_ground(entry.validation_levels(x)[0], x).tobytes(), x

    @pytest.mark.parametrize("name", ["l_prefix_0", "l_prefix_1", "equal"])
    def test_sweep_shares_prefix_states(self, name, monkeypatch):
        # One matvec per new extended-symbol prefix of a lexicographic sweep
        # (per length: the left endmarker, every nonempty prefix of x and one
        # right endmarker per input) instead of len(x) + 2 per input.
        calls = []
        matvec = SparseOp.matvec

        def counted(op, v):
            calls.append(op)
            return matvec(op, v)

        monkeypatch.setattr(SparseOp, "matvec", counted)
        entry = gallery.build(name)
        for x in gallery.strings_up_to(entry.family.alphabet, 8):
            entry.family.build(x)
        assert len(calls) == 1524       # a fresh carry per input: 4,608


    @pytest.mark.parametrize("name", ["l_prefix_0", "l_prefix_1", "equal"])
    def test_verify_shares_prefix_states(self, name, monkeypatch):
        # verify reads the same carriers as build: the same 1,524 matvecs.
        calls = []
        matvec = SparseOp.matvec

        def counted(op, v):
            calls.append(op)
            return matvec(op, v)

        monkeypatch.setattr(SparseOp, "matvec", counted)
        entry = gallery.build(name)
        gallery.verify(entry, gallery.strings_up_to(entry.family.alphabet, 8))
        assert len(calls) == 1524

    @pytest.mark.parametrize("name", ["l_prefix_0", "equal"])
    def test_h_ini_shared_per_length(self, name):
        entry = gallery.build(name)
        a, b = (entry.family.build(x) for x in entry.family.alphabet[:2])
        assert a.h_ini is b.h_ini
        start = a.schema.index(("q0", 0) if name == "l_prefix_0" else ("q1", 0))
        assert a.h_ini.vector.tobytes() == deflation_vector(a.dim, start).tobytes()
        assert entry.family.build("").h_ini is not a.h_ini


# The decide benchmark's sweep: every verify call it makes, at its sizes.
SWEEP = {name: list(gallery.strings_up_to(gallery.build(name).family.alphabet, 8))
         for name in ("l_prefix_0", "l_prefix_1", "equal", "sym_coin")}
SWEEP["usubsum"] = gallery.usubsum_inputs(4, 3, 3, promised_only=False)
SWEEP["multdup"] = SWEEP["multdup_complement"] = gallery.multdup_inputs(3, 3)


class TestVerifyRows:
    """verify decides each length's inputs as rows of aeqs.decide_rows,
    with no instance built; decide on family.build(x) is the oracle."""

    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_records_match_built_instances(self, name):
        report = gallery.verify(gallery.build(name), iter(SWEEP[name]))
        built = gallery.build(name)
        assert report.checked == len(report.records) > 0
        assert report.checked + report.skipped_unpromised == len(SWEEP[name])
        for record in report.records:
            want = decide(built.family.build(record.x))
            assert repr(record.verdict.as_dict()) == repr(want.as_dict()), record.x

    def test_no_instance_built(self, monkeypatch):
        built = []
        post_init = AeqsInstance.__post_init__

        def counted(instance):
            built.append(instance)
            post_init(instance)

        monkeypatch.setattr(AeqsInstance, "__post_init__", counted)
        for name, inputs in SWEEP.items():
            gallery.verify(gallery.build(name), inputs)
        assert built == []
        # The counter sees the route that does build: an entry without rows.
        gallery.verify(gallery.build("pal_marked"), ["a#a"])
        assert len(built) == 1

    def test_records_and_failures_keep_input_order(self):
        # Lengths interleaved, read once from an iterator.
        inputs = ["ab", "", "abab", "b", "ba", "a"]
        entry = gallery.build("equal")
        entry.expectations.append(
            gallery.Expectation("bogus", energy=lambda x: 0.25))
        report = gallery.verify(entry, iter(inputs))
        assert [r.x for r in report.records] == inputs
        assert [f["x"] for f in report.expectation_failures] == inputs
        assert report.expectation_hits["bogus"] == len(inputs)

    def test_bad_symbol_raises_as_build_does(self):
        for name, good, bad in [("l_prefix_0", "0", "02"), ("sym_coin", "ab", "aca")]:
            entry = gallery.build(name)
            with pytest.raises(UnknownSymbolError):
                entry.family.build(bad)
            with pytest.raises(UnknownSymbolError):
                gallery.verify(entry, [good, bad])

    def test_sym_coin_witnesses_once_per_input(self, monkeypatch):
        # Two track lists per input: the witnesses, which the oracle and the
        # expectations share, and the layout.
        calls = []
        tracks = gallery._sym_coin_tracks

        def counted(n):
            calls.append(n)
            return tracks(n)

        monkeypatch.setattr(gallery, "_sym_coin_tracks", counted)
        inputs = list(gallery.strings_up_to("ab", 5))
        report = gallery.verify(gallery.build("sym_coin"), inputs)
        assert report.passed and len(calls) == 2 * len(inputs)

    @pytest.mark.parametrize("name,parse", [("usubsum", "parse_usubsum"),
                                            ("multdup", "parse_multdup"),
                                            ("multdup_complement", "parse_multdup")])
    def test_oracle_parses_once_per_input(self, monkeypatch, name, parse):
        # verify asks the oracle once per input, which parses it and counts
        # its subsets once; the layout of a promised input parses it once
        # more.
        calls = {parse: 0, "usubsum_subset_count": 0}

        def counted(attr):
            original = getattr(gallery, attr)

            def call(*args):
                calls[attr] += 1
                return original(*args)
            monkeypatch.setattr(gallery, attr, call)

        counted(parse)
        counted("usubsum_subset_count")
        inputs = SWEEP[name]
        report = gallery.verify(gallery.build(name), inputs)
        assert report.passed and report.checked > 0
        assert calls[parse] <= len(inputs) + report.checked
        assert calls["usubsum_subset_count"] <= len(inputs)


class TestSymCoinEntry:
    def test_sweep_matches_oracle(self):
        e = gallery.build("sym_coin")
        report = gallery.verify(e, gallery.strings_up_to(("a", "b"), 5))
        assert report.passed

    def test_reject_energy(self):
        v = gallery.build("sym_coin").family.decide("ab")
        assert v.outcome == "reject"
        assert v.ground_energy == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_accept_energy_min_witness(self):
        # "abba": witnesses (1,4)? x1=a,x4=a yes; (2,3): b,b yes -> i_min=1,
        # energy 1/5.
        v = gallery.build("sym_coin").family.decide("abba")
        assert v.outcome == "accept"
        assert v.ground_energy == pytest.approx(1.0 / 5.0, abs=1e-12)

    def test_multiple_witness_energies_distinct(self):
        inst = gallery.build("sym_coin").family.build("aaaa")
        pairs = lowest_pairs(inst.h_fin, 2)
        assert pairs[0][0] == pytest.approx(1.0 / 5.0, abs=1e-12)
        assert pairs[1][0] == pytest.approx(2.0 / 5.0, abs=1e-12)

    def test_levels_validate(self):
        e = gallery.build("sym_coin")
        for level in e.validation_levels("abba"):
            report = validate_level(level)
            assert report.passed, [(d.symbol, d.defect) for d in report.defects]


class TestUSubSumEntry:
    def test_promised_sweep(self):
        e = gallery.build("usubsum")
        report = gallery.verify(e, gallery.usubsum_inputs(3, 2, 2, promised_only=False))
        assert report.passed
        assert report.skipped_unpromised > 0

    def test_accept_instance(self):
        v = gallery.build("usubsum").family.decide("0#1")
        assert v.outcome == "accept"
        assert v.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert v.spectral_gap >= 0.5 - 1e-9

    def test_reject_instance(self):
        v = gallery.build("usubsum").family.decide("00#1")
        assert v.outcome == "reject"
        assert v.ground_energy == pytest.approx(0.5, abs=1e-12)
        assert v.spectral_gap >= 0.5 - 1e-9

    def test_witness_direction_is_killed(self):
        e = gallery.build("usubsum")
        inst = e.family.build("0#1")
        idx = inst.schema.index(("1", 1, 0, 0, 0))
        dense = inst.h_fin.to_dense()
        assert abs(dense[idx, idx]) <= 1e-12
        assert idx in inst.s_acc

    def test_levels_validate(self):
        e = gallery.build("usubsum")
        for level in e.validation_levels("00#1#1"):
            assert validate_level(level).passed


class TestMultDupEntry:
    def test_promised_sweep_swapped_orientation(self):
        e = gallery.build("multdup")
        report = gallery.verify(e, gallery.multdup_inputs(2, 2))
        assert report.passed

    def test_complement_matches_problem_side(self):
        e = gallery.build("multdup_complement")
        report = gallery.verify(e, gallery.multdup_inputs(2, 2))
        assert report.passed
        assert e.family.decide("01#01").outcome == "accept"

    def test_energies(self):
        fam = gallery.build("multdup").family
        assert fam.decide("01#01").ground_energy == pytest.approx(0.5, abs=1e-12)
        assert fam.decide("01#11").ground_energy == pytest.approx(0.0, abs=1e-12)

    def test_levels_validate(self):
        e = gallery.build("multdup")
        for level in e.validation_levels("01#01"):
            assert validate_level(level).passed


# The palindrome level's Kraus builders as loops over the surface basis,
# state by state: the reference for the index arithmetic in gallery.
_PAL_ROT_COLUMNS = {
    # column action of U_a / U_b on (q1, q2, q3); q4, q5 untouched
    "a": {"q1": [("q1", 0.8), ("q2", -0.6)], "q2": [("q1", 0.6), ("q2", 0.8)],
          "q3": [("q3", 1.0)]},
    "b": {"q1": [("q1", 0.8), ("q3", -0.6)], "q2": [("q2", 1.0)],
          "q3": [("q1", 0.6), ("q3", 0.8)]},
    "#": {"q1": [("q1", 1.0)], "q2": [("q2", 1.0)], "q3": [("q3", 1.0)]},
}
_PAL_XI0 = ("q1", 1, 0)


def _pal_rotation(sym, invert):
    rot = _PAL_ROT_COLUMNS[sym]
    if not invert:
        return rot
    out = {q: [] for q in ("q1", "q2", "q3")}
    for src, targets in rot.items():
        for dst, amp in targets:
            out[dst].append((src, amp))
    return out


def reference_pal_first_step(x, schema):
    k1, k2 = [], []
    n_pos = len(x) + 2
    for col, ((q, k, q0, k0, h0), pos) in enumerate(schema.all_states()):
        if (q, k, pos) == _PAL_XI0:
            k1.append((schema.index(((q, k, q0, k0, h0), 1)), col, 1.0))
        else:
            k2.append((schema.index(((q0, k0, q, k, pos), (h0 + 1) % n_pos)), col, 1.0))
    return [SparseOp.from_rules(schema.dim, k1), SparseOp.from_rules(schema.dim, k2)]


def reference_pal_step(x, schema):
    n = len(x)
    n_pos = n + 2
    hash_pos = x.index("#") + 1 if "#" in x else n + 1
    k1_rules, k2_rules = [], []
    for col, ((q, k, q0, k0, h0), pos) in enumerate(schema.all_states()):
        def emit(rules, q2, k2_, pos2, amp):
            rules.append((schema.index(((q2, k2_, q0, k0, h0), pos2)), col, amp))

        if (q0, k0, h0) != _PAL_XI0:
            emit(k1_rules, q, k, pos, 1.0)
            continue
        nxt = (pos + 1) % n_pos
        if k == 1:
            if pos == n + 1:
                if q == "q1":
                    emit(k1_rules, "q1", 0, 0, 1.0)
                elif q in ("q2", "q3"):
                    emit(k1_rules, q, 2, 0, 1.0)
                else:
                    emit(k1_rules, q, 1, 0, 1.0)
            elif pos == 0 or q in ("q4", "q5"):
                emit(k1_rules, q, 1, nxt, 1.0)
            else:
                rot = _pal_rotation(x[pos - 1], invert=pos > hash_pos)
                for dst, amp in rot[q]:
                    emit(k1_rules, dst, 1, nxt, amp)
        elif k == 0:
            emit(k2_rules, q, 0, nxt, 1.0)
        elif q in ("q2", "q3"):
            partner = "q4" if q == "q2" else "q5"
            if pos == n + 1:
                emit(k1_rules, partner, 0, 0, 1.0)
            else:
                emit(k1_rules, q, 2, nxt, gallery._PAL_DECAY_KEEP)
                emit(k2_rules, partner, 2, nxt, gallery._PAL_DECAY_SWITCH)
        else:
            emit(k1_rules, q, 2, nxt, 1.0)
    return [SparseOp.from_rules(schema.dim, k1_rules), SparseOp.from_rules(schema.dim, k2_rules)]


PAL_INPUTS = ["#", "a#a", "ba#", "#ab", "ab#ba", "ab#ab", "abb#bba"]


def assert_same_triplets(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.vals, b.vals)


class TestPalMarkedEntry:
    def test_lambda_witness_exact(self):
        assert gallery.pal_lambda_witness("a#a") == 1.0 / 25.0

    def test_level_validates(self):
        e = gallery.build("pal_marked")
        for x in PAL_INPUTS + ["a#b"]:
            for level in e.validation_levels(x):
                # The level is the data of x: no second copy of x is asked.
                report = validate_level(level)
                assert report.passed, (x, [(d.symbol, d.defect) for d in report.defects])
                assert [d.symbol for d in report.defects] == ["cent", "step"]

    @pytest.mark.parametrize("x", PAL_INPUTS)
    def test_kraus_builders_match_reference_loops(self, x):
        level = gallery._pal_level(x)
        assert_same_triplets(level.ops[CENT], reference_pal_first_step(x, level.schema))
        assert_same_triplets(level.ops[STEP], reference_pal_step(x, level.schema))

    @pytest.mark.parametrize("x", ["ab#ba", "ab#ab"])
    def test_generated_operator_matches_reference_loops(self, x):
        level = gallery._pal_level(x)
        reference = dataclasses.replace(level, ops={
            CENT: reference_pal_first_step(x, level.schema),
            STEP: reference_pal_step(x, level.schema)})
        assert_same_triplets([generate_2qqaf(level).operator],
                             [generate_2qqaf(reference).operator])

    def test_dimension_is_full_surface_space(self):
        inst = gallery.build("pal_marked").family.build("a#a")
        assert inst.dim == 5625

    @pytest.mark.parametrize("x,nnz", [("a#a", 5551), ("ab#ba", 10921), ("ab#ab", 10924)])
    def test_generated_nnz_pinned(self, x, nnz):
        # Guards the merge and prune rules of the sparse generation path.
        assert gallery.build("pal_marked").family.build(x).h_fin.nnz() == nnz

    def test_intended_landing_carries_witness_weight(self):
        # The accept landing's diagonal weight is exactly the Lambda witness
        # (first-phase return amplitude 1 on members).
        inst = gallery.build("pal_marked").family.build("a#a")
        acc_idx = next(iter(inst.s_acc))
        diag = {(r, c): v for r, c, v in
                zip(inst.h_fin.rows, inst.h_fin.cols, inst.h_fin.vals)}
        assert diag[(acc_idx, acc_idx)].real == pytest.approx(1.0 / 25.0, abs=1e-12)

    def test_deviation_reported_as_finding(self):
        # The verbatim operator has a wide zero ground sector outside the
        # intended criteria spaces; verify() must surface this as a finding
        # naming the construction, not as a silent fix or a plain mismatch.
        e = gallery.build("pal_marked")
        report = gallery.verify(e, ["a#a", "a#b"])
        assert not report.mismatches
        assert report.findings, "expected a structured finding"
        assert all("pal_marked" in f["finding"] for f in report.findings)


class TestVerifyMachinery:
    def test_vacuous_pass(self):
        e = gallery.build("equal")
        report = gallery.verify(e, [])
        assert report.passed and report.checked == 0

    @pytest.mark.parametrize("name,inputs", [
        ("l_prefix_0", list(gallery.strings_up_to(("0", "1"), 3))),
        ("equal", list(gallery.strings_up_to(("a", "b"), 3))),
        ("sym_coin", list(gallery.strings_up_to(("a", "b"), 4))),
        ("usubsum", gallery.usubsum_inputs(2, 2, 2)),
        ("multdup", gallery.multdup_inputs(2, 2)),
    ])
    def test_every_expectation_exercised(self, name, inputs):
        entry = gallery.build(name)
        report = gallery.verify(entry, inputs)
        assert report.passed
        for exp in entry.expectations:
            assert report.expectation_hits.get(exp.description, 0) >= 1, exp.description

    def test_pal_branch_weights_complete(self):
        # The two second-phase branch amplitudes form a complete pair.
        assert gallery._PAL_DECAY_KEEP**2 + gallery._PAL_DECAY_SWITCH**2 == pytest.approx(1.0, abs=1e-15)

    def test_expectation_failure_detected(self):
        e = gallery.build("equal")
        e.expectations.append(
            gallery.Expectation("bogus", energy=lambda x: 0.25)
        )
        report = gallery.verify(e, ["ab"])
        assert not report.passed
        assert report.expectation_failures

    def test_mismatches_and_failed_gap_claims_are_reported(self):
        # l_prefix_0 against its oracle flipped, with a gap claim above 1 that
        # no spectrum in [0, 1] meets: every input is a mismatch and a failure.
        entry = gallery.build("l_prefix_0")
        flipped = dataclasses.replace(
            entry,
            oracle=lambda x: gallery.REJECT if x.startswith("0") else gallery.ACCEPT,
            expectations=[gallery.Expectation("gap above one", gap_lower=lambda x: 1.5)],
        )
        inputs = list(gallery.strings_up_to(("0", "1"), 2))
        report = gallery.verify(flipped, inputs)
        assert report.checked == len(inputs) == 7
        assert [r.expected != r.verdict.outcome for r in report.records] == [True] * 7
        assert [m["x"] for m in report.mismatches] == inputs
        assert all(m["got"] != m["expected"] for m in report.mismatches)
        assert [f["x"] for f in report.expectation_failures] == inputs
        for failure in report.expectation_failures:
            assert failure["expectation"] == "gap above one"
            assert failure["want_gap_at_least"] == 1.5 and failure["got_gap"] <= 1.0
        assert not report.findings
        assert not report.passed and not report.as_dict()["passed"]


SINGLETON_LEVEL_INPUTS = [
    ("l_prefix_0", list(gallery.strings_up_to(("0", "1"), 5))),
    ("l_prefix_1", list(gallery.strings_up_to(("0", "1"), 5))),
    ("equal", list(gallery.strings_up_to(("a", "b"), 6))),
    ("usubsum", gallery.usubsum_inputs(2, 2, 2, promised_only=False)),
    ("multdup", gallery.multdup_inputs(1, 2)),
]


class TestSingletonDefects:
    """validate_level reads each family's defect with gram_defect; on the
    gallery's one-unitary families it equals the dense ||U'U - I||."""

    @pytest.mark.parametrize("name,inputs", SINGLETON_LEVEL_INPUTS)
    def test_gram_defect_equals_dense_norm(self, name, inputs):
        entry = gallery.build(name)
        # Keyed by identity: l_prefix and equal share one level per length.
        levels = {id(level): level for x in inputs for level in entry.validation_levels(x)}
        for level in levels.values():
            for family in level.ops.values():
                assert len(family) == 1
                u = family[0].to_dense()
                dense = spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))
                assert abs(gram_defect(family) - dense) <= 1e-15, (level.name, dense)


class TestTrackDiagonals:
    """The track constructions read each diagonal entry of H_fin off the
    forward landing of the idle track's start.  Here every entry is instead
    recomputed from the state's preimage, found by scanning the track's whole
    register space: E = Pi0 F Lambda0 F^dagger Pi0 evaluated at the preimage
    of each curated state."""

    @staticmethod
    def preimage(register_space, forward, target):
        found = [u for u in register_space if forward(u) == target]
        assert len(found) == 1, (target, found)
        return found[0]

    @staticmethod
    def built_diagonal(instance):
        return instance.h_fin.to_dense().diagonal().real

    def test_sym_coin(self):
        entry = gallery.build("sym_coin")
        for x in gallery.strings_up_to("ab", 7):
            n = len(x)
            instance = entry.family.build(x)
            built = self.built_diagonal(instance)
            registers = [(sym, pos) for sym in gallery._SYM_SYMBOLS for pos in range(n + 2)]
            for idx, (i, j, sym, pos, _s0, _p0) in enumerate(instance.schema.all_states()):
                track = gallery._SymCoinTrack(n, i, j)   # (0, 0): pure advance
                p = i / (n + 1)
                # The right endmarker: accept-marked mass at the last cell
                # splits sqrt(p) onto acc and sqrt(1 - p) onto rej; every
                # other register advances.  A branch from the last cell's
                # (s, n + 1) is listed by s.
                if (sym, pos) == ("acc", 0):
                    branches = [("acc", np.sqrt(p))]
                elif (sym, pos) == ("rej", 0):
                    branches = [("rej", 1.0), ("acc", np.sqrt(1 - p))]
                else:
                    branches = [(sym, 1.0)]
                want = 0.0
                for before, amp in branches:
                    # _run ends with DOLLAR's advance, which takes the last
                    # cell's (s, n + 1) to (s, 0).
                    start = self.preimage(registers, lambda u: gallery._run(track, x, u),
                                          (before, 0))
                    lam = 2.0 / 3.0 if (i, j, *start) == (0, 0, "B", 0) else 1.0
                    want += amp * amp * lam
                assert built[idx] == want, (x, idx)

    def test_usubsum(self):
        entry = gallery.build("usubsum")
        for x in gallery.usubsum_inputs(3, 2, 3):
            t, counts = gallery.parse_usubsum(x)
            k, l = len(counts), max(counts)
            instance = entry.family.build(x)
            built = self.built_diagonal(instance)
            registers = [(i, j) for i in range(k + 1) for j in range(-k * l, t + 1)]
            for idx, (s, i, j, _i0, _j0) in enumerate(instance.schema.all_states()):
                track = gallery._USubSumTrack(t, counts, s)
                start = self.preimage(registers, lambda u: gallery._run(track, x, u), (i, j))
                lam = 0.5 if s == "0" * k and start == (0, 0) else 1.0
                want = 0.0 if (i, j) == (k, 0) else lam   # Pi0 removes q0
                assert built[idx] == want, (x, idx)

    def test_multdup(self):
        entry = gallery.build("multdup")
        for x in gallery.multdup_inputs(2, 2):
            blocks = gallery.parse_multdup(x)
            k, l = len(blocks) - 1, len(blocks[0])
            instance = entry.family.build(x)
            built = self.built_diagonal(instance)
            registers = [(sym, h, r, pos) for sym in gallery._MD_SYMBOLS
                         for h in range(k + 1) for r in range(l + 1)
                         for pos in range(len(x) + 2)]
            tables = {}
            for idx, state in enumerate(instance.schema.all_states()):
                i, j, reg = state[0], state[1], state[2:6]
                if (i, j) not in tables:
                    track = gallery._MultDupTrack(k, l, i, j)
                    tables[(i, j)] = {u: gallery._run(track, x, u) for u in registers}
                start = self.preimage(registers, tables[(i, j)].__getitem__, reg)
                lam = 0.5 if (i, j) == (0, 0) and start == ("B", 0, 0, 0) else 1.0
                want = 0.0 if i > 0 and reg == ("B", k, 0, 0) else lam   # Pi0 removes q0
                assert built[idx] == want, (x, idx)


class TestTrackRoutes:
    """The track analogue of test_validation_checks_the_building_level: a
    track's layout and its validation level read the one definition of its
    moves, so a patched move changes both."""

    @staticmethod
    def dollar_family(entry, x):
        return [op.to_dense() for op in entry.validation_levels(x)[0].ops[DOLLAR]]

    @staticmethod
    def changed(before, after):
        return len(before) != len(after) or any(
            not np.array_equal(a, b) for a, b in zip(before, after))

    def test_sym_coin_endmarker_split(self, monkeypatch):
        entry, x = gallery.build("sym_coin"), "abba"
        diag, family = gallery._sym_coin_layout(x).diag, self.dollar_family(entry, x)
        endmarker = gallery._SymCoinTrack.endmarker

        def weaker_switch(track, state):
            keep, switch = endmarker(track, state)
            return [keep, switch and (switch[0], switch[1] / 2)]

        monkeypatch.setattr(gallery._SymCoinTrack, "endmarker", weaker_switch)
        assert not np.array_equal(gallery._sym_coin_layout(x).diag, diag)
        assert self.changed(family, self.dollar_family(entry, x))
        assert not validate_level(entry.validation_levels(x)[0]).passed

    def test_multdup_endmarker_rewind(self, monkeypatch):
        entry, x = gallery.build("multdup"), "01#01"
        states, family = gallery._multdup_layout(x).states, self.dollar_family(entry, x)
        move = gallery._MultDupTrack.move

        def no_rewind(track, state, c):
            return move(track, state, CENT if c == DOLLAR else c)

        monkeypatch.setattr(gallery._MultDupTrack, "move", no_rewind)
        assert gallery._multdup_layout(x).states != states
        assert self.changed(family, self.dollar_family(entry, x))

    @pytest.mark.parametrize("name,layout_of,x", [("sym_coin", "_sym_coin_layout", "abbaab"),
                                                  ("usubsum", "_usubsum_layout", "00#1#1"),
                                                  ("multdup", "_multdup_layout", "01#01#01")])
    def test_report_covers_every_track(self, name, layout_of, x):
        tracks = getattr(gallery, layout_of)(x).tracks
        assert len(gallery.build(name).validation_levels(x)) == len(tracks) > 2

    def test_report_catches_a_move_broken_on_a_later_track(self, monkeypatch):
        entry, x = gallery.build("multdup"), "01#01#01"
        sym_map = gallery._MultDupTrack._sym_map

        def later_blocks_erase(track, sym, h, r, c):
            # Block i >= 2's comparison cell sends every symbol to B: not a
            # permutation, on tracks the layout runs but track (1, 1) is not.
            if track.i >= 2 and h == track.i and r == track.j:
                return "B"
            return sym_map(track, sym, h, r, c)

        monkeypatch.setattr(gallery._MultDupTrack, "_sym_map", later_blocks_erase)
        try:
            passed = all(validate_level(level).passed for level in entry.validation_levels(x))
        except LinalgError:
            passed = False
        assert not passed


class TestPermutationOp:
    """``permutation_op`` reads each column's index off the schema's
    enumeration; a reference built state by state from ``index`` agrees."""

    @staticmethod
    def reference(schema, step):
        mapping = {schema.index(s): schema.index(step(s)) for s in schema.all_states()}
        return SparseOp.from_rules(schema.dim, [(row, col, 1.0) for col, row in mapping.items()])

    @staticmethod
    def cases():
        prefix = gallery._prefix_level(3, "0").schema
        yield prefix, lambda s: (s[0], (s[1] + 1) % 5)
        yield prefix, lambda s: ({"q0": "q2", "q2": "q0"}.get(s[0], s[0]), s[1])
        clock = gallery._equal_level(4).schema
        yield clock, lambda s: (s[0], (s[1] + (2 if s[0] == "q1" else 1)) % 8)
        curated = BasisSchema([("q", ("a", "b", "c")), ("pos", (0, 1))],
                              states=[("b", 1), ("a", 0), ("c", 1), ("a", 1)])
        yield curated, lambda s: {("b", 1): ("a", 1), ("a", 1): ("b", 1)}.get(s, s)
        for layout, symbols in ((gallery._multdup_layout("01#01#01"), (CENT, "0", "#", DOLLAR)),
                                (gallery._sym_coin_layout("abbaab"), (CENT, "a", "b", DOLLAR))):
            for track in layout.tracks.values():
                for c in symbols:
                    yield BasisSchema(track.registers), lambda s, c=c, t=track: t.move(s, c)

    def test_matches_per_state_reference(self):
        for schema, step in self.cases():
            op, ref = gallery.permutation_op(schema, step), self.reference(schema, step)
            for a, b in ((op.rows, ref.rows), (op.cols, ref.cols), (op.vals, ref.vals)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
