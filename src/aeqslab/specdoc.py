"""Machine specification documents: exact, auditable JSON machine files.

A document describes an automaton or quasi-automaton level with amplitude
expressions kept in exact form (rationals, square roots, products,
quotients, complex pairs) so machine files stay diffable and reviewable;
amplitudes are evaluated to floats at load time.

Supported kinds: "moqfa", "garbage-1qfa", "moqqaf";
``MachineSpecDocument.family`` is the AEQS family a document describes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .aeqs import AeqsFamily, aeqs_instance, as_dense, criteria_arrays, deflation_hamiltonian
from .compilers import GarbageQfaSpec, MoQfaSpec, from_garbage_1qfa, from_moqfa
from .linalg import (OPERATOR_DEFECT_TOL, REAL_PART_TOL, SparseHermitian, SparseOp, capacity,
                     dense_max, integer, real)
from .qqa import CENT, DOLLAR, BasisSchema, QqaError, QqafLevel, generate_moqqaf, validate_level

DOCUMENT_SCHEMA = 1


class DocumentError(Exception):
    pass


def _operands(op: str, arg, count: int | None = None):
    """The operand list of ``op``; ``count`` operands when given."""
    if not isinstance(arg, (list, tuple)) or count not in (None, len(arg)):
        want = "a list" if count is None else f"a list of {count}"
        raise DocumentError(f"{op!r} needs {want} of operands, got {arg!r}")
    return arg


def evaluate_amplitude(expr) -> complex:
    """Evaluate the restricted expression language to a complex number.

    Forms: finite plain numbers; {"rational": [p, q]}; {"sqrt": e};
    {"product": [e, ...]}; {"quotient": [e, e]}; {"complex": [re, im]}.
    """
    if isinstance(expr, (int, float)):
        return complex(real(expr, "amplitude", DocumentError, -math.inf, open_low=True,
                            open_high=True))
    if not isinstance(expr, dict) or len(expr) != 1:
        raise DocumentError(f"malformed amplitude expression: {expr!r}")
    (op, arg), = expr.items()
    if op == "rational":
        p, q = (evaluate_amplitude(a) for a in _operands(op, arg, 2))
        if q == 0:
            raise DocumentError("rational with zero denominator")
        return p / q
    if op == "sqrt":
        value = evaluate_amplitude(arg)
        if abs(value.imag) > REAL_PART_TOL or value.real < 0:
            raise DocumentError("sqrt argument must be a nonnegative real")
        return complex(math.sqrt(value.real))
    if op == "product":
        out = 1 + 0j
        for term in _operands(op, arg):
            out *= evaluate_amplitude(term)
        return out
    if op == "quotient":
        num, den = (evaluate_amplitude(a) for a in _operands(op, arg, 2))
        if den == 0:
            raise DocumentError("quotient by zero")
        return num / den
    if op == "complex":
        re, im = (evaluate_amplitude(a) for a in _operands(op, arg, 2))
        for part in (re, im):
            if abs(part.imag) > REAL_PART_TOL:
                raise DocumentError("complex parts must be real expressions")
        return complex(re.real, im.real)
    raise DocumentError(f"unknown amplitude operator {op!r}")


_SYMBOL_KEYS = {"cent": CENT, "dollar": DOLLAR}


def _symbol_key(raw) -> str:
    if not isinstance(raw, str):
        raise DocumentError(f"symbol {raw!r} is not a string")
    return _SYMBOL_KEYS.get(raw, raw)


def _optional(raw: dict, key: str, kind: type):
    """raw[key], or the empty value of `kind` when absent; of JSON type `kind`."""
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        raise DocumentError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _require(raw: dict, key: str, kind: type):
    if key not in raw:
        raise DocumentError(f"missing required key {key!r}")
    return _optional(raw, key, kind)


def _entries(entries, arity: int, what: str) -> list:
    """A list of entries, each a list of exactly `arity` fields."""
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == arity for e in entries
    ):
        raise DocumentError(f"{what} must be a list of {arity}-field entries")
    return entries


def _index(value, bound: int, what: str) -> int:
    return integer(value, what, DocumentError, 0, bound - 1)


def _count(raw: dict, key: str) -> int:
    """raw[key], a JSON int of at least 1."""
    return integer(_require(raw, key, int), key, DocumentError, low=1)


def _readout(raw: dict, n: int) -> dict:
    """The readout fields shared by the automaton kinds, checked against n."""
    error_bound = raw.get("error_bound")
    if error_bound is not None:
        real(error_bound, "error_bound", DocumentError, 0.0, 1.0)
    return {
        "q_acc": frozenset(_index(q, n, "accepting state")
                           for q in _optional(raw, "accepting", list)),
        "q_rej": frozenset(_index(q, n, "rejecting state")
                           for q in _optional(raw, "rejecting", list)),
        "initial": _index(raw.get("initial", 0), n, "initial state"),
        "error_bound": error_bound,
    }


@dataclass
class MachineSpecDocument:
    kind: str
    name: str
    alphabet: tuple
    raw: dict

    @classmethod
    def from_json(cls, text: str) -> "MachineSpecDocument":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise DocumentError(f"invalid JSON: {err}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "MachineSpecDocument":
        if not isinstance(raw, dict):
            raise DocumentError("document must be a JSON object")
        if raw.get("schema") != DOCUMENT_SCHEMA:
            raise DocumentError(f"unsupported document schema {raw.get('schema')!r}")
        kind = raw.get("kind")
        if kind not in ("moqfa", "garbage-1qfa", "moqqaf"):
            raise DocumentError(f"unknown machine kind {kind!r}")
        alphabet = raw.get("alphabet")
        if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
            raise DocumentError("alphabet must be a list of symbols")
        return cls(kind=kind, name=str(raw.get("name", kind)),
                   alphabet=tuple(alphabet), raw=raw)

    # -- realizations -----------------------------------------------------

    def family(self) -> AeqsFamily:
        """The AEQS family the document describes: its automaton compiled
        (``from_moqfa``, ``from_garbage_1qfa``), or its quasi-automaton level,
        checked by ``validate_level``, generating H_fin from an H_ini that
        starts on the first basis state."""
        if self.kind == "moqfa":
            return from_moqfa(self.to_moqfa())
        if self.kind == "garbage-1qfa":
            return from_garbage_1qfa(self.to_garbage_qfa())
        level, criteria = self.to_moqqaf()
        report = validate_level(level)
        if not report.passed:
            raise QqaError(
                f"document {self.name!r} is not a quasi-automaton level: worst completeness "
                f"defect {report.worst():.3e}, Lambda0 least eigenvalue bound "
                f"{report.lam0_min_eigenvalue:.3e} (tolerance {OPERATOR_DEFECT_TOL:.0e})"
            )
        schema = level.schema
        h_ini = deflation_hamiltonian(schema.dim, 0)
        s_acc, s_rej = criteria_arrays(criteria["acc"], criteria["rej"])

        def builder(x: str):
            return aeqs_instance(schema, h_ini, generate_moqqaf(level, x).operator, s_acc, s_rej)

        return AeqsFamily(alphabet=level.alphabet, builder=builder, name=self.name)

    def to_moqfa(self) -> MoQfaSpec:
        if self.kind != "moqfa":
            raise DocumentError(f"document kind is {self.kind!r}, not moqfa")
        raw = self.raw
        # Each operator is a dense n x n matrix.
        n = capacity(_count(raw, "states"), dense_max(), "AEQS_DENSE_MAX", "moqfa states")
        ops = {}
        for sym_raw, entries in _require(raw, "operators", dict).items():
            u = np.zeros((n, n), dtype=complex)
            for row, col, expr in _entries(entries, 3, "operator entries"):
                u[_index(row, n, "row"), _index(col, n, "column")] += evaluate_amplitude(expr)
            ops[_symbol_key(sym_raw)] = u
        return MoQfaSpec(n_states=n, alphabet=self.alphabet, ops=ops,
                         name=self.name, **_readout(raw, n))

    def to_garbage_qfa(self) -> GarbageQfaSpec:
        if self.kind != "garbage-1qfa":
            raise DocumentError(f"document kind is {self.kind!r}, not garbage-1qfa")
        raw = self.raw
        n = _count(raw, "states")
        xi_size = _count(raw, "garbage_symbols")
        delta = {}
        for q, sym_raw, p, xi, expr in _entries(_require(raw, "transitions", list), 5,
                                                "transitions"):
            key = (_index(q, n, "source state"), _symbol_key(sym_raw))
            delta.setdefault(key, []).append(
                (_index(p, n, "target state"), _index(xi, xi_size + 1, "garbage symbol"),
                 evaluate_amplitude(expr))
            )
        return GarbageQfaSpec(n_states=n, alphabet=self.alphabet, xi_size=xi_size,
                              delta=delta, name=self.name, **_readout(raw, n))

    def to_moqqaf(self) -> tuple:
        """Returns (level, criteria dict) for a measure-once level document."""
        if self.kind != "moqqaf":
            raise DocumentError(f"document kind is {self.kind!r}, not moqqaf")
        raw = self.raw
        coords = []
        for c in _require(raw, "dimension_schema", list):
            if not isinstance(c, dict):
                raise DocumentError("dimension_schema entries must be JSON objects")
            labels = _require(c, "labels", list)
            coords.append((_require(c, "name", str), tuple(_coerce_label(l) for l in labels)))
        schema = BasisSchema(coords)
        # Each operator and the initial mixture are built at full dimension.
        capacity(schema.dim, dense_max() ** 2, "AEQS_DENSE_MAX ** 2", "moqqaf dimension")

        def state_index(tup):
            if not isinstance(tup, list) or len(tup) != len(coords):
                raise DocumentError(f"state {tup!r} needs one label per coordinate")
            return schema.index(tuple(_coerce_label(p) for p in tup))

        ops = {}
        for sym_raw, entries in _require(raw, "operators", dict).items():
            rules = []
            for row_tup, col_tup, expr in _entries(entries, 3, "operator entries"):
                rules.append((state_index(row_tup), state_index(col_tup),
                              evaluate_amplitude(expr)))
            ops[_symbol_key(sym_raw)] = [SparseOp.from_rules(schema.dim, rules)]

        mixture = _optional(raw, "initial_mixture", dict)
        diag = np.ones(schema.dim)
        for tup, expr in _entries(mixture.get("diagonal", []), 2, "mixture diagonal"):
            value = evaluate_amplitude(expr)
            if abs(value.imag) > REAL_PART_TOL:
                raise DocumentError("initial mixture must be real")
            diag[state_index(tup)] = value.real
        lam0 = SparseHermitian.diagonal(diag)

        q0 = frozenset(state_index(tup) for tup in _optional(raw, "halting", list))
        level = QqafLevel(
            schema=schema, alphabet=self.alphabet, ops=ops, lam0=lam0,
            q0_indices=q0, name=self.name,
        )
        criteria = _optional(raw, "criteria", dict)
        acc = frozenset(state_index(t) for t in _optional(criteria, "acc", list))
        rej = frozenset(state_index(t) for t in _optional(criteria, "rej", list))
        return level, {"acc": acc, "rej": rej}


def _coerce_label(value):
    # JSON round-trips tuples as lists; labels may be ints or strings.
    if isinstance(value, list):
        return tuple(_coerce_label(v) for v in value)
    return value


def sparse_hermitian_to_json(h: SparseHermitian) -> list:
    """Upper-triangle triplets as [row, col, re, im] with full precision."""
    upper = h.rows <= h.cols
    return [
        [int(r), int(c), float(v.real), float(v.imag)]
        for r, c, v in zip(h.rows[upper], h.cols[upper], h.vals[upper])
    ]


def hamiltonian_to_json(h) -> list:
    """``sparse_hermitian_to_json`` of any instance Hamiltonian, densified unless sparse."""
    if not isinstance(h, SparseHermitian):
        h = SparseHermitian.from_dense(as_dense(h))
    return sparse_hermitian_to_json(h)


def sparse_hermitian_from_json(dim: int, triplets: list) -> SparseHermitian:
    rows = [t[0] for t in triplets]
    cols = [t[1] for t in triplets]
    vals = [complex(t[2], t[3]) for t in triplets]
    return SparseHermitian(dim, rows, cols, vals)
