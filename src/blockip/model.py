"""Core data model for 4-block n-fold integer programs.

An instance asks for max w.x subject to H x = rhs and l <= x <= u with x
integral, where H has the block shape

    [ C  D  D  ...  D ]
    [ B  A  0  ...  0 ]
    [ B  0  A  ...  0 ]
    [ .           .   ]
    [ B  0  0  ...  A ]

The variable vector is brick-major: the prefix x0 (length t_B) is shared by
every block row, followed by n bricks of length t_A each.  Setting t_B = 0
removes x0 and gives the plain n-fold shape.  FourBlockInstance.bricks and
FourBlockInstance.brick_sums are how a brick-major vector is read: the n
brick pieces, and the per-coordinate sums over the bricks.  Outside the
class, the one place that still writes the layout by offset is
generators._finish, which builds the bricks from a witness point before the
instance exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import DimensionMismatchError, MalformedProblemError, ParseError


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, immutable, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise DimensionMismatchError("ragged matrix rows")
            for v in r:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise DimensionMismatchError(f"matrix entry {v!r} is not an int")
            flat.extend(r)
        return IntMatrix(nr, nc, tuple(flat))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul_vec(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionMismatchError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum(self.entries[base + j] * v[j] for j in range(self.cols)))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)


class StructureClass(Enum):
    """Which solving route an instance is eligible for."""

    ALL_ONES_ROW = "AllOnesRow"
    NFOLD_SNF_ELIGIBLE = "NFoldSnfEligible"
    SNF_ELIGIBLE = "SnfEligible"
    HARD_TA_GE_SA_PLUS_2 = "Hard_tA_ge_sA_plus_2"
    GENERAL = "General"


@dataclass(frozen=True)
class FourBlockInstance:
    """One 4-block n-fold instance; immutable after construction.

    b is a tuple of n right-hand sides, one per block row group; l, u, w are
    flat brick-major vectors of length t_B + n * t_A.
    """

    n: int
    A: IntMatrix
    B: IntMatrix
    C: IntMatrix
    D: IntMatrix
    b0: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]
    l: tuple
    u: tuple
    w: tuple[int, ...]

    @staticmethod
    def make(n, A, B, C, D, b0, b, l, u, w) -> "FourBlockInstance":
        return FourBlockInstance(
            n,
            A,
            B,
            C,
            D,
            tuple(b0),
            tuple(tuple(bi) for bi in b),
            tuple(l),
            tuple(u),
            tuple(w),
        )

    @staticmethod
    def nfold(n, A, D, b0, b, l, u, w) -> "FourBlockInstance":
        """Plain n-fold instance: no shared brick, B and C have zero columns."""
        return FourBlockInstance.make(
            n, A, IntMatrix.zero(A.rows, 0), IntMatrix.zero(D.rows, 0), D, b0, b, l, u, w
        )

    @property
    def t_A(self) -> int:
        return self.A.cols

    @property
    def t_B(self) -> int:
        return self.B.cols

    @property
    def s_A(self) -> int:
        return self.A.rows

    @property
    def s_C(self) -> int:
        return self.C.rows

    @property
    def num_vars(self) -> int:
        return self.t_B + self.n * self.t_A

    @property
    def num_rows(self) -> int:
        return self.s_C + self.n * self.s_A

    @property
    def is_nfold(self) -> bool:
        return self.t_B == 0

    def brick_slice(self, i: int) -> slice:
        """Index range of brick i (0-based) within a flat vector."""
        start = self.t_B + i * self.t_A
        return slice(start, start + self.t_A)

    def bricks(self, vec) -> list:
        """The n brick pieces of vec, a brick-major vector of length num_vars."""
        tB, tA = self.t_B, self.t_A
        return [vec[tB + i * tA : tB + (i + 1) * tA] for i in range(self.n)]

    def brick_sums(self, vec) -> list[int]:
        """Per brick coordinate h, the sum of every brick's entry h in vec.

        vec is brick-major of length num_vars, so coordinate h of the bricks
        is the strided slice vec[t_B + h :: t_A].
        """
        tB, tA = self.t_B, self.t_A
        return [sum(vec[tB + h :: tA]) for h in range(tA)]

    def dense_rows(self):
        """Yield (coefficients, rhs) for every constraint row, top rows first."""
        n, tA, tB, N = self.n, self.t_A, self.t_B, self.num_vars
        for r in range(self.s_C):
            coeffs = [0] * N
            coeffs[:tB] = self.C.row(r)
            drow = self.D.row(r)
            for i in range(n):
                s = tB + i * tA
                coeffs[s : s + tA] = drow
            yield tuple(coeffs), self.b0[r]
        for i in range(n):
            s = tB + i * tA
            for r in range(self.s_A):
                coeffs = [0] * N
                coeffs[:tB] = self.B.row(r)
                coeffs[s : s + tA] = self.A.row(r)
                yield tuple(coeffs), self.b[i][r]


@dataclass(frozen=True)
class GeneralizedNFoldInstance:
    """n-fold shape where the blocks A_i and top blocks D_i vary with i.

    Outside the reach of the structured solvers; used to express hardness
    encodings that the enumeration oracle can still decide.
    """

    n: int
    A_blocks: tuple[IntMatrix, ...]
    D_blocks: tuple[IntMatrix, ...]
    b0: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]
    l: tuple
    u: tuple
    w: tuple[int, ...]

    @staticmethod
    def make(n, A_blocks, D_blocks, b0, b, l, u, w) -> "GeneralizedNFoldInstance":
        return GeneralizedNFoldInstance(
            n,
            tuple(A_blocks),
            tuple(D_blocks),
            tuple(b0),
            tuple(tuple(bi) for bi in b),
            tuple(l),
            tuple(u),
            tuple(w),
        )

    @property
    def num_vars(self) -> int:
        return sum(Ai.cols for Ai in self.A_blocks)

    def dense_rows(self):
        N = self.num_vars
        starts = []
        s = 0
        for Ai in self.A_blocks:
            starts.append(s)
            s += Ai.cols
        for r in range(len(self.b0)):
            coeffs = [0] * N
            for i, Di in enumerate(self.D_blocks):
                coeffs[starts[i] : starts[i] + Di.cols] = Di.row(r)
            yield tuple(coeffs), self.b0[r]
        for i, Ai in enumerate(self.A_blocks):
            for r in range(Ai.rows):
                coeffs = [0] * N
                coeffs[starts[i] : starts[i] + Ai.cols] = Ai.row(r)
                yield tuple(coeffs), self.b[i][r]


@dataclass(frozen=True)
class Solution:
    x: tuple[int, ...]
    objective: int
    solver_tag: str


@dataclass(frozen=True)
class Infeasible:
    """Definite emptiness verdict; reason is a short machine-readable code."""

    reason: str = ""


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class EvaluationReport:
    feasible: bool
    objective: int
    violations: tuple[str, ...]


_SEQS = {tuple, list}


def _matrix_issues(matrices) -> list[str]:
    """What makes the named matrices unusable, as messages; [] if nothing.

    matrices holds (name, matrix) pairs.  In order, each stage only when
    the stages before it found nothing: a matrix that is not an IntMatrix
    or whose entries are not a tuple or list; a shape that is not an int;
    an entry count other than rows x cols.  Constant work per matrix: the
    entries themselves are not read.
    """
    odd = [f"{name} is a {type(M).__name__}, not an IntMatrix"
           for name, M in matrices if type(M) is not IntMatrix]
    odd += [f"{name}.entries is a {type(M.entries).__name__}, not a tuple or list"
            for name, M in matrices if type(M) is IntMatrix and type(M.entries) not in _SEQS]
    odd = odd or [f"{name}.{dim} = {v!r} is not an int" for name, M in matrices
                  for dim, v in (("rows", M.rows), ("cols", M.cols)) if type(v) is not int]
    return odd or [f"{name} has {len(M.entries)} entries, expected {M.rows} x {M.cols}"
                   for name, M in matrices if len(M.entries) != M.rows * M.cols]


def validate(inst) -> list[ValidationIssue]:
    """Check shapes, integrality and bound sanity; empty list means valid.

    Takes a FourBlockInstance or a GeneralizedNFoldInstance; anything else
    gets one ShapeMismatch issue.  Both kinds run the same stages, and only
    the shape stage differs by kind.  Every entry of l, u, w, b0, b and the
    matrices (A, B, C, D, or each A_blocks[i] and D_blocks[i]) must be an
    int (not a bool, float or Fraction).  Entries are numbered flat:
    row-major in a matrix, brick-major in b.  A brick count n that is not
    an int is the only issue reported, since every other check depends on
    it.  A vector (b's entries and the block lists too) that is not a tuple
    or list, or any issue that _matrix_issues finds, ends the checks the
    same way, after the other vectors and the matrices are checked.
    """
    if isinstance(inst, FourBlockInstance):
        matrices = (("A", inst.A), ("B", inst.B), ("C", inst.C), ("D", inst.D))
        vectors = {"l": inst.l, "u": inst.u, "w": inst.w, "b0": inst.b0, "b": inst.b}
    elif isinstance(inst, GeneralizedNFoldInstance):
        vectors = {"A_blocks": inst.A_blocks, "D_blocks": inst.D_blocks,
                   "l": inst.l, "u": inst.u, "w": inst.w, "b0": inst.b0, "b": inst.b}
        matrices = [(f"{name}[{i}]", M) for name in ("A_blocks", "D_blocks")
                    if type(vectors[name]) in _SEQS for i, M in enumerate(vectors[name])]
    else:
        return [ValidationIssue("ShapeMismatch", f"the instance is a {type(inst).__name__}, "
                                "not a FourBlockInstance or a GeneralizedNFoldInstance")]
    issues = []

    def bad(code, msg):
        issues.append(ValidationIssue(code, msg))

    if type(inst.n) is not int:
        bad("ShapeMismatch", f"n = {inst.n!r} is not an int")
        return issues
    if inst.n < 0:
        bad("ShapeMismatch", f"n must be nonnegative, got {inst.n}")
    if type(inst.b) in _SEQS and not set(map(type, inst.b)) <= _SEQS:
        vectors.update((f"b[{i}]", bi) for i, bi in enumerate(inst.b))
    odd = _matrix_issues(matrices) + [f"{name} is a {type(v).__name__}, not a tuple or list"
                                      for name, v in vectors.items() if type(v) not in _SEQS]
    if odd:
        return issues + [ValidationIssue("ShapeMismatch", msg) for msg in odd]
    if isinstance(inst, GeneralizedNFoldInstance):
        if not len(inst.A_blocks) == len(inst.D_blocks) == len(inst.b) == inst.n:
            bad("ShapeMismatch", f"A_blocks, D_blocks and b have {len(inst.A_blocks)}, "
                f"{len(inst.D_blocks)} and {len(inst.b)} entries, expected n = {inst.n}")
        for i, (Ai, Di, bi) in enumerate(zip(inst.A_blocks, inst.D_blocks, inst.b)):
            if Ai.cols != Di.cols:
                bad("ShapeMismatch", f"A_blocks[{i}] has {Ai.cols} cols, D_blocks[{i}] has {Di.cols}")
            if Di.rows != len(inst.b0):
                bad("ShapeMismatch", f"D_blocks[{i}] has {Di.rows} rows, b0 has length {len(inst.b0)}")
            if len(bi) != Ai.rows:
                bad("ShapeMismatch", f"b[{i}] has length {len(bi)}, expected {Ai.rows}")
    else:
        if inst.C.rows != inst.D.rows:
            bad("ShapeMismatch", f"C has {inst.C.rows} rows, D has {inst.D.rows}")
        if inst.A.rows != inst.B.rows:
            bad("ShapeMismatch", f"A has {inst.A.rows} rows, B has {inst.B.rows}")
        if inst.B.cols != inst.C.cols:
            bad("ShapeMismatch", f"B has {inst.B.cols} cols, C has {inst.C.cols}")
        if inst.A.cols != inst.D.cols:
            bad("ShapeMismatch", f"A has {inst.A.cols} cols, D has {inst.D.cols}")
        if len(inst.b0) != inst.s_C:
            bad("ShapeMismatch", f"b0 has length {len(inst.b0)}, expected {inst.s_C}")
        if len(inst.b) != inst.n:
            bad("ShapeMismatch", f"b has {len(inst.b)} blocks, expected {inst.n}")
        else:
            for i, bi in enumerate(inst.b):
                if len(bi) != inst.s_A:
                    bad("ShapeMismatch", f"b[{i}] has length {len(bi)}, expected {inst.s_A}")
    N = inst.num_vars
    for name, vec in (("l", inst.l), ("u", inst.u), ("w", inst.w)):
        if len(vec) != N:
            bad("ShapeMismatch", f"{name} has length {len(vec)}, expected {N}")
    for code, name, vec in (
        ("InfiniteBound", "l", inst.l),
        ("InfiniteBound", "u", inst.u),
        ("NonIntegerData", "w", inst.w),
        ("NonIntegerData", "b0", inst.b0),
        ("NonIntegerData", "b", tuple(chain.from_iterable(inst.b))),
        *(("NonIntegerData", name, M.entries) for name, M in matrices),
    ):
        # one pass in C over the entry types; type(v) is int rejects bools,
        # floats and Fractions alike
        if not set(map(type, vec)) <= {int}:
            j, v = next((j, v) for j, v in enumerate(vec) if type(v) is not int)
            bad(code, f"{name} entry {j} = {v!r} is not a finite integer")
    if not issues and len(inst.l) == len(inst.u) == N:
        for j in range(N):
            if inst.l[j] > inst.u[j]:
                bad("LowerExceedsUpper", f"l[{j}] = {inst.l[j]} > u[{j}] = {inst.u[j]}")
    return issues


def classify(inst) -> StructureClass:
    """Structural class of A, in fixed priority order.

    An all-ones row wins over everything; the Smith-form classes need
    intlin.brick_form(A); two or more extra columns are hard.  For a
    FourBlockInstance, reads only the matrices: one that _matrix_issues
    rejects raises MalformedProblemError, and the vectors are left to the
    routes' validate.  A GeneralizedNFoldInstance is GENERAL, since no
    route takes one; it and anything else that validate rejects for more
    than an empty box raise MalformedProblemError.
    """
    from .intlin import brick_form

    if not isinstance(inst, FourBlockInstance):
        odd = [i.message for i in validate(inst) if i.code != "LowerExceedsUpper"]
        if odd:
            raise MalformedProblemError(odd[0])
        return StructureClass.GENERAL
    odd = _matrix_issues((("A", inst.A), ("B", inst.B), ("C", inst.C), ("D", inst.D)))
    if odd:
        raise MalformedProblemError(odd[0])
    A = inst.A
    if A.rows == 1 and A.cols >= 1 and all(v == 1 for v in A.entries):
        return StructureClass.ALL_ONES_ROW
    if A.rows == 0:
        return StructureClass.GENERAL
    if brick_form(A) is not None:
        if inst.is_nfold:
            return StructureClass.NFOLD_SNF_ELIGIBLE
        return StructureClass.SNF_ELIGIBLE
    if A.cols >= A.rows + 2:
        return StructureClass.HARD_TA_GE_SA_PLUS_2
    return StructureClass.GENERAL


def evaluate(inst, x) -> EvaluationReport:
    """Recompute every constraint of the instance at the point x.

    Not validate: the checks of the instance take constant work, so a
    caller that has validated it pays nothing per entry; x gets one pass
    over its entry types.  An inst that is neither instance kind, or whose
    l, u or w is not a tuple or list of length num_vars, raises
    MalformedProblemError, and so does an x that is not a tuple or list of
    ints (a bool, float or Fraction entry included); an x of another length
    raises DimensionMismatchError.
    """
    if not isinstance(inst, (FourBlockInstance, GeneralizedNFoldInstance)):
        raise MalformedProblemError(f"the instance is a {type(inst).__name__}, "
                                    "not a FourBlockInstance or a GeneralizedNFoldInstance")
    N = inst.num_vars
    for name, vec in (("l", inst.l), ("u", inst.u), ("w", inst.w)):
        if type(vec) not in _SEQS:
            raise MalformedProblemError(f"{name} is a {type(vec).__name__}, not a tuple or list")
        if len(vec) != N:
            raise MalformedProblemError(f"{name} has length {len(vec)}, expected {N}")
    if type(x) not in _SEQS:
        raise MalformedProblemError(f"x is a {type(x).__name__}, not a tuple or list")
    # one pass in C over the entry types, as in validate
    if not set(map(type, x)) <= {int}:
        j, v = next((j, v) for j, v in enumerate(x) if type(v) is not int)
        raise MalformedProblemError(f"x entry {j} = {v!r} is not an int")
    if len(x) != N:
        raise DimensionMismatchError(f"x has length {len(x)}, expected {N}")
    if isinstance(inst, GeneralizedNFoldInstance):
        return _evaluate_dense(inst, x)
    violations = []
    x0 = x[:inst.t_B]
    top = inst.C.mul_vec(x0)
    dsum = inst.D.mul_vec(inst.brick_sums(x))
    for r in range(inst.s_C):
        lhs = top[r] + dsum[r]
        if lhs != inst.b0[r]:
            violations.append(f"top row {r}: lhs {lhs} != rhs {inst.b0[r]}")
    bx0 = inst.B.mul_vec(x0)
    for i in range(inst.n):
        brick = x[inst.brick_slice(i)]
        ax = inst.A.mul_vec(brick)
        for r in range(inst.s_A):
            lhs = bx0[r] + ax[r]
            if lhs != inst.b[i][r]:
                violations.append(f"block {i} row {r}: lhs {lhs} != rhs {inst.b[i][r]}")
    objective = _box_and_objective(inst, x, violations)
    return EvaluationReport(not violations, objective, tuple(violations))


def _evaluate_dense(inst, x) -> EvaluationReport:
    """Row-by-row check for shapes without the fixed 4-block layout."""
    violations = []
    for idx, (coeffs, rhs) in enumerate(inst.dense_rows()):
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if lhs != rhs:
            violations.append(f"row {idx}: lhs {lhs} != rhs {rhs}")
    objective = _box_and_objective(inst, x, violations)
    return EvaluationReport(not violations, objective, tuple(violations))


def _box_and_objective(inst, x, violations) -> int:
    """Append x's box violations to violations and return w . x, in one pass."""
    objective = 0
    for j, (v, lo, hi, w) in enumerate(zip(x, inst.l, inst.u, inst.w)):
        if v < lo:
            violations.append(f"x[{j}] = {v} below lower bound {lo}")
        elif v > hi:
            violations.append(f"x[{j}] = {v} above upper bound {hi}")
        objective += w * v
    return objective


# ---------------------------------------------------------------------------
# JSON serialization.  Data integers travel as decimal strings so that
# arbitrary precision survives any JSON reader; n stays a plain int.


def _enc_vec(v):
    return [str(int(e)) for e in v]


def _enc_mat(m: IntMatrix):
    return [_enc_vec(m.row(i)) for i in range(m.rows)]


def _dec_int(v):
    if isinstance(v, bool):
        raise ParseError(f"expected integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            raise ParseError(f"not a decimal integer: {v!r}") from None
    raise ParseError(f"expected integer or decimal string, got {v!r}")


def _dec_vec(v, what):
    if not isinstance(v, list):
        raise ParseError(f"{what} must be an array")
    return tuple(_dec_int(e) for e in v)


def _dec_mat(v, what, rows=None):
    """A matrix from its rows; one with no rows decodes as 0 x 0."""
    if not isinstance(v, list):
        raise ParseError(f"{what} must be an array of rows")
    mat_rows = [_dec_vec(r, f"{what} row") for r in v]
    width = len(mat_rows[0]) if mat_rows else 0
    if any(len(r) != width for r in mat_rows):
        raise ParseError(f"{what} has ragged rows")
    if rows is not None and len(mat_rows) != rows:
        raise ParseError(f"{what} must have {rows} rows, got {len(mat_rows)}")
    return IntMatrix(len(mat_rows), width, tuple(e for r in mat_rows for e in r))


def _widened(M, partner):
    """M, or the matrix with no rows and partner's width if M has no rows.

    The JSON rows of a matrix with no rows carry no width, but each matrix
    has a partner of the same width: A and D, B and C, A_i and D_i.
    """
    return IntMatrix.zero(0, partner.cols) if M.rows == 0 else M


def instance_to_dict(inst) -> dict:
    if isinstance(inst, GeneralizedNFoldInstance):
        return {
            "n": inst.n,
            "A_blocks": [_enc_mat(Ai) for Ai in inst.A_blocks],
            "D_blocks": [_enc_mat(Di) for Di in inst.D_blocks],
            "b0": _enc_vec(inst.b0),
            "b": [_enc_vec(bi) for bi in inst.b],
            "l": _enc_vec(inst.l),
            "u": _enc_vec(inst.u),
            "w": _enc_vec(inst.w),
        }
    d = {"n": inst.n, "A": _enc_mat(inst.A)}
    if not inst.is_nfold:
        d["B"] = _enc_mat(inst.B)
        d["C"] = _enc_mat(inst.C)
    d["D"] = _enc_mat(inst.D)
    d["b0"] = _enc_vec(inst.b0)
    d["b"] = [_enc_vec(bi) for bi in inst.b]
    d["l"] = _enc_vec(inst.l)
    d["u"] = _enc_vec(inst.u)
    d["w"] = _enc_vec(inst.w)
    return d


def instance_from_dict(d):
    if not isinstance(d, dict):
        raise ParseError("instance must be a JSON object")
    try:
        n = _dec_int(d["n"])
        if "A_blocks" in d:
            A_blocks = [_dec_mat(m, "A_blocks entry") for m in d["A_blocks"]]
            D_blocks = [_dec_mat(m, "D_blocks entry") for m in d["D_blocks"]]
            if len(A_blocks) == len(D_blocks):
                A_blocks, D_blocks = ([_widened(M, N) for M, N in zip(A_blocks, D_blocks)],
                                      [_widened(N, M) for M, N in zip(A_blocks, D_blocks)])
            return GeneralizedNFoldInstance.make(
                n,
                A_blocks,
                D_blocks,
                _dec_vec(d["b0"], "b0"),
                [_dec_vec(bi, "b entry") for bi in d["b"]],
                _dec_vec(d["l"], "l"),
                _dec_vec(d["u"], "u"),
                _dec_vec(d["w"], "w"),
            )
        A = _dec_mat(d["A"], "A")
        D = _dec_mat(d["D"], "D")
        A, D = _widened(A, D), _widened(D, A)
        if "B" in d or "C" in d:
            B = _dec_mat(d["B"], "B", rows=A.rows)
            C = _dec_mat(d["C"], "C", rows=D.rows)
            B, C = _widened(B, C), _widened(C, B)
        else:
            B = IntMatrix.zero(A.rows, 0)
            C = IntMatrix.zero(D.rows, 0)
        l = _dec_vec(d["l"], "l")
        # a plain n-fold whose A and D have no rows keeps t_A only in
        # len(l) = n t_A.  B and C have A's and D's row counts, so in a
        # 4-block instance all four are then without rows, and len(l) = t_B +
        # n t_A leaves the two widths ambiguous
        if "B" not in d and A.rows == D.rows == 0 and n > 0 and len(l) % n == 0:
            A = D = IntMatrix.zero(0, len(l) // n)
        return FourBlockInstance.make(
            n,
            A,
            B,
            C,
            D,
            _dec_vec(d["b0"], "b0"),
            [_dec_vec(bi, "b entry") for bi in d["b"]],
            l,
            _dec_vec(d["u"], "u"),
            _dec_vec(d["w"], "w"),
        )
    except KeyError as e:
        raise ParseError(f"missing field {e.args[0]!r}") from None


def solution_to_dict(sol: Solution) -> dict:
    return {"x": _enc_vec(sol.x), "objective": str(sol.objective), "solver_tag": sol.solver_tag}


def solution_from_dict(d) -> Solution:
    if not isinstance(d, dict):
        raise ParseError("solution must be a JSON object")
    try:
        tag = d["solver_tag"]
        if not isinstance(tag, str):
            raise ParseError("solver_tag must be a string")
        return Solution(_dec_vec(d["x"], "x"), _dec_int(d["objective"]), tag)
    except KeyError as e:
        raise ParseError(f"missing field {e.args[0]!r}") from None


def dumps(obj) -> str:
    """Serialize an instance or solution to canonical JSON text."""
    if isinstance(obj, Solution):
        d = solution_to_dict(obj)
    else:
        d = instance_to_dict(obj)
    return json.dumps(d, indent=1) + "\n"


def loads_instance(text: str):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    return instance_from_dict(d)


def loads_solution(text: str) -> Solution:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    return solution_from_dict(d)
