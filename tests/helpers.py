"""Shared oracles and generators for the test suite.

The expression corpus is built safe-by-construction (bounded trig/exp
arguments, positively offset log/sqrt arguments, guarded denominators) and
points are rejection-sampled away from residual domain violations, so the
finite-difference oracle is well conditioned wherever it is evaluated.
Forward-mode dual arithmetic (``evaluate_with_partials``) is the oracle for
the symbolic ``expr.diff``, a least-squares solve (``reeb_solve``) the
oracle for ``affgebroid.reeb``, and loops over the whole basis
(``dense_differential``, ``dense_pullback``) the oracles for the sparse
``algebroid.differential`` and ``algebroid.pullback``.  ``compile_exprs``
builds the straight-line code of ``dynamics.compile_rk4``'s stage as a function
of its own, so that the tests can check it against the interpreter.
``fold_add``, ``fold_sub``, ``fold_mul`` and ``fold_div`` are the oracles for
the folding constructors of ``expr``: each builds the node of a literal
operation and folds it through ``expr.evaluate``.  ``hamilton_rhs`` sums the
Hamilton equations term by term from the chart data: the oracle for
``affgebroid.hamilton_field``.  ``FrozenLit``, ``FrozenVar``, ``FrozenNeg``,
``FrozenBinOp`` and ``FrozenCall`` are the expression nodes as frozen
dataclasses, with ``frozen_literal_value``: the oracle for the ``==``,
``hash``, ``repr`` and ``lit`` of the slotted nodes of ``expr``.
``omega_h_from_pullback`` (the second route to Ω_h), ``morphism_defect``
(d commutes with a pullback), ``integrate_reduced`` (the reduced flow on
its own) and ``hj_residual`` (the HJ check without the cocycle check and f)
are cross-check routes that only the tests take; ``section_values`` and
``component`` read a section at a point, and ``section_combine`` builds a
linear combination of sections.  ``points`` lists the points of a
SamplePlan as dicts, and ``FixedPoints`` stands in for a SamplePlan that
serves given points (NaN inputs included) to the sampled checks.
``section_max_abs`` and ``section_max_diff`` check one section or one
difference of two sections at a time (``section_check`` is the first as a
function of the plan): the oracles for the checks that sample all of their
families in one ``algebroid._max_abs`` call.
``point_major_max_abs`` is the oracle for the reduction of
``algebroid._max_abs``: a loop over the points, then the keys, and
``by_column`` turns points into the columns that ``expr.evaluate_many``
reads.  ``reference_parse`` (the tokenizer and parser that ``expr.parse``
replaced) is the oracle for ``expr.parse``, and ``parse_outcome`` puts a
tree or a ParseError in a form that compares node for node.
``SplitMix64`` (the stateful generator that ``SamplePlan.units`` replaced)
reads the stream in order: the oracle for ``SamplePlan.units``, and the
seeded source of generated test inputs.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from affmech import algebroid, dynamics
from affmech import expr as ex
from affmech.affgebroid import hamiltonian_morphism, omega_h
from affmech import hj
from affmech.algebroid import _PERMS, KSection, SamplePlan, as_expr, differential, nan_max, pullback
from affmech.expr import BinOp, Call, DomainError, Lit, Neg, UnboundVariableError, Var
from affmech.hj import verify_theorem


def fd_partials(e, env, wrt, h=1e-6):
    """Central finite differences; the independent oracle for dual arithmetic."""
    out = []
    for name in wrt:
        up = dict(env)
        up[name] = env[name] + h
        down = dict(env)
        down[name] = env[name] - h
        out.append((ex.evaluate(e, up) - ex.evaluate(e, down)) / (2 * h))
    return out


# ---------------------------------------------- dual-number oracle for diff

# fn -> derivative given (x, fn(x))
DERIVATIVES = {
    "sin": lambda x, fx: math.cos(x),
    "cos": lambda x, fx: -math.sin(x),
    "tan": lambda x, fx: 1.0 + fx * fx,
    "exp": lambda x, fx: fx,
    "log": lambda x, fx: 1.0 / x,
    "sqrt": lambda x, fx: 0.5 / fx if fx != 0.0 else math.inf,
}


def evaluate_with_partials(e, env, wrt):
    """Value and exact first partials with respect to ``wrt``.

    One forward pass of dual arithmetic carrying one derivative slot per
    requested variable: an evaluation of the tree independent of ``ex.diff``,
    against which the symbolic partials are checked.
    """
    slot = {name: k for k, name in enumerate(wrt)}
    return _dual(e, env, slot, len(wrt))


def _dual(e, env, slot, n):
    if isinstance(e, Lit):
        return e.value, [0.0] * n
    if isinstance(e, Var):
        try:
            v = env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
        d = [0.0] * n
        k = slot.get(e.name)
        if k is not None:
            d[k] = 1.0
        return v, d
    if isinstance(e, Neg):
        v, d = _dual(e.arg, env, slot, n)
        return -v, [-x for x in d]
    if isinstance(e, Call):
        x, dx = _dual(e.arg, env, slot, n)
        if e.fn == "log" and x <= 0.0:
            raise DomainError("log of non-positive value", e)
        if e.fn == "sqrt" and x < 0.0:
            raise DomainError("sqrt of negative value", e)
        try:
            fx = ex.FUNCTIONS[e.fn](x)
        except OverflowError:
            raise DomainError(f"overflow in {e.fn}", e) from None
        g = DERIVATIVES[e.fn](x, fx)
        if not math.isfinite(g) and any(dx):
            raise DomainError(f"infinite derivative of {e.fn}", e)
        return fx, [g * t for t in dx]
    assert isinstance(e, BinOp)
    a, da = _dual(e.lhs, env, slot, n)
    if e.op == "^":
        c = e.rhs.lit
        if c is not None:
            v = ex._checked_pow(a, c, e)
            if c == 0.0:
                return v, [0.0] * n
            g = c * ex._checked_pow(a, c - 1.0, e)
            return v, [g * t for t in da]
        b, db = _dual(e.rhs, env, slot, n)
        if a <= 0.0:
            raise DomainError("non-literal exponent requires positive base", e)
        try:
            v = math.pow(a, b)
        except OverflowError:
            raise DomainError("overflow in power", e) from None
        lg = math.log(a)
        return v, [v * (db[k] * lg + b * da[k] / a) for k in range(n)]
    b, db = _dual(e.rhs, env, slot, n)
    if e.op == "+":
        return a + b, [da[k] + db[k] for k in range(n)]
    if e.op == "-":
        return a - b, [da[k] - db[k] for k in range(n)]
    if e.op == "*":
        return a * b, [da[k] * b + a * db[k] for k in range(n)]
    if b == 0.0:
        raise DomainError("division by zero", e)
    v = a / b
    return v, [(da[k] - v * db[k]) / b for k in range(n)]


# ------------------------------------------- term-by-term Hamilton oracle


def hamilton_rhs(h, state):
    """The Hamilton equations of h at one state, summed term by term from the chart data.

        dx^i/dt = rho0^i + dH/dy_a rhoV[a]^i
        dy_a/dt = -rhoV[a]^i dH/dx^i + y_g (C0[a][g] + CV[b][a][g] dH/dy_b)

    Every term is evaluated and added in ``hamilton_field``'s order, also
    where its data is a structural zero that ``hamilton_field`` folds away,
    so at a state where every term is finite the two give equal values.
    """
    aff = h.chart
    m, n = aff.m, aff.n
    env = dict(zip(aff.all_vars(), state))
    parts = [ex.evaluate(p, env) for p in h.partials]
    hx, hy = parts[:m], parts[m:]
    yv = state[m:]

    out = []
    for i in range(m):
        total = ex.evaluate(aff.rho0[i], env)
        for a in range(n):
            total += hy[a] * ex.evaluate(aff.rhoV[a][i], env)
        out.append(total)
    for a in range(n):
        total = 0.0
        for i in range(m):
            total -= ex.evaluate(aff.rhoV[a][i], env) * hx[i]
        for g in range(n):
            coef = ex.evaluate(aff.C0[a][g], env)
            for b in range(n):
                coef += ex.evaluate(aff.CV[b][a][g], env) * hy[b]
            total += yv[g] * coef
        out.append(total)
    return out


# ---------------------------------------------- least-squares Reeb oracle

REEB_RESIDUAL_TOL = 1e-8


class DegenerateStructureError(RuntimeError):
    """The pair (omega, eta) failed to determine a unique Reeb value."""


@dataclass
class ReebResult:
    coefficients: list[float]
    residual: float
    rank: int


def omega_matrix(omega, env):
    """Full antisymmetric coefficient matrix of a 2-section at a point."""
    r = omega.chart.rank
    mat = np.zeros((r, r))
    for (a, b), coeff in omega.coeffs.items():
        v = coeff.value(env)
        mat[a, b] = v
        mat[b, a] = -v
    return mat


def reeb_solve(h, env, omega=None):
    """Solve the defining conditions of the Reeb section at one point.

    Stacks the contraction equations with the 2-section on top of the
    normalization row and solves the least-squares system; a tiny residual
    certifies pointwise nondegeneracy of the cosymplectic pair.  The
    independent oracle for ``affgebroid.reeb``.
    """
    om = omega if omega is not None else omega_h(h)
    r = om.chart.rank
    mat = omega_matrix(om, env)
    system = np.zeros((r + 1, r))
    # row b: sum_a v^a Omega(e_a, e_b) = 0
    for b in range(r):
        system[b, :] = mat[:, b]
    system[r, 0] = 1.0  # normalization against the adapted 1-section
    rhs = np.zeros(r + 1)
    rhs[r] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.linalg.norm(system @ sol - rhs))
    if rank < r or residual > REEB_RESIDUAL_TOL:
        raise DegenerateStructureError(
            f"degenerate cosymplectic pair at {env}: rank {rank} of {r}, residual {residual:.3e}"
        )
    return ReebResult([float(v) for v in sol], residual, int(rank))


# ---------------------------------------------------- sections at a point


def section_values(s, env):
    """Every stored coefficient of a section at one point, keyed by its index tuple."""
    return {idx: c.value(env) for idx, c in s.coeffs.items()}


def sort_with_sign(indices):
    """Sort an index tuple, tracking permutation parity; (None, 0.0) on repeats."""
    idx = list(indices)
    sign = 1.0
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0.0
    return tuple(idx), sign


def component(s, indices, env):
    """Value of a section on (e_{i1},...,e_{ik}) for an arbitrary index order."""
    key, sign = sort_with_sign(tuple(indices))
    if key is None:
        return 0.0
    c = s.coeffs.get(key)
    return 0.0 if c is None else sign * c.value(env)


def section_combine(a, s, b, t):
    """Pointwise a*s + b*t for sections of one chart and degree."""
    if s.chart is not t.chart or s.degree != t.degree:
        raise ValueError("sections must share chart and degree")
    ns = {idx: c.node for idx, c in s.coeffs.items()}
    nt = {idx: c.node for idx, c in t.coeffs.items()}
    out = {}
    for idx in set(ns) | set(nt):
        node = Lit(0.0)
        if idx in ns:
            node = ex.add(node, ex.mul(a, ns[idx]))
        if idx in nt:
            node = ex.add(node, ex.mul(b, nt[idx]))
        out[idx] = node
    return KSection(s.chart, s.degree, out)


# ------------------------------------------------------ cross-check routes


def omega_h_from_pullback(h):
    """Pullback of the canonical symplectic section along the graph morphism of h.

    The second route to the 2-section of the cosymplectic pair: the oracle
    for the coefficientwise ``affgebroid.omega_h``.
    """
    ap = h.chart.aplus_prolongation()
    return pullback(hamiltonian_morphism(h), ap.canonical_symplectic())


def morphism_defect(morph, s, plan):
    """Max deviation of d(pullback s) from pullback(d s) at the points of ``plan``."""
    lhs = differential(pullback(morph, s))
    rhs = pullback(morph, differential(s))
    return section_max_diff(lhs, rhs, plan)


def integrate_reduced(alpha, h, x0, t0, t_end, step=dynamics.DEFAULT_STEP):
    """Integrate the reduced base-space field of ``dynamics.reduced_stage`` from a base point.

    The flow that ``hj.verify_theorem`` integrates, on its own: a kernel
    compiled over the stage (none where compiling fails), stepped by
    ``dynamics.integrate_field``.  The names are looked up in ``dynamics`` at
    call time, so a test that patches them there patches this flow too.
    """
    if len(x0) != h.chart.m:
        raise ValueError("x0 must list every base coordinate")
    stage = dynamics.reduced_stage(alpha, h)
    field = dynamics.interpret(*stage)
    return dynamics.integrate_field(field, x0, t0, t_end, step, dynamics._kernel(*stage))


def hj_residual(alpha, h, sample=None):
    """Max vertical derivative of the scalar defect at sampled base points.

    The HJ report of ``hj.hj_reports`` on its own: the coefficients
    rhoV[a]^i df/dx^i of d^V f, checked by ``section_max_abs``.  ``sample``
    is the SamplePlan of the points (default ``SamplePlan()``).
    """
    plan = sample if sample is not None else SamplePlan()
    worst, where = section_max_abs(hj._vertical_df(alpha, h), plan)
    return hj.HJReport(worst, where[0] if where else -1, plan.count)


# ------------------------------------------- dense differential and pullback


def dense_differential(s):
    """Exterior differential by visiting every (k+1)-subset of the basis.

    Adds the terms of each output coefficient in the order the sparse
    ``algebroid.differential`` must reproduce: anchor terms by position and
    base variable, then bracket terms by position pair and bracket component.
    """
    if s.degree > 2:
        raise ValueError("differential implemented for sections of degree <= 2")
    chart = s.chart
    k = s.degree
    out = {}
    for idx in itertools.combinations(range(chart.rank), k + 1):
        node = ex.Lit(0.0)
        for i, a in enumerate(idx):
            coeff = s.coeffs.get(idx[:i] + idx[i + 1 :])
            if coeff is None:
                continue
            for vi, rc in chart._anchor_nz[a]:
                term = ex.mul(rc, ex.diff(coeff.node, chart.base_vars[vi]))
                node = ex.add(node, ex.mul((-1.0) ** i, term))
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(idx[p] for p in range(k + 1) if p not in (i, j))
                sign_ij = (-1.0) ** (i + j)
                for c, c_coeff in chart.structure_nonzero(idx[i], idx[j]):
                    key, sgn = sort_with_sign((c,) + rest)
                    if key is None:
                        continue
                    coeff = s.coeffs.get(key)
                    if coeff is None:
                        continue
                    node = ex.add(node, ex.mul(sign_ij * sgn, ex.mul(c_coeff, coeff.node)))
        out[idx] = node
    return KSection(chart, k + 1, out)


def dense_pullback(morph, s):
    """Pullback by visiting every source index tuple, destination key and permutation."""
    if s.chart is not morph.dst:
        raise ValueError("section must live on the destination chart of the morphism")
    k = s.degree
    mapping = dict(zip(morph.dst.base_vars, morph.base_map))
    pulled = {key: ex.substitute(c.node, mapping) for key, c in s.coeffs.items()}
    if k == 0:
        return KSection(morph.src, 0, pulled)
    out = {}
    for idx in itertools.combinations(range(morph.src.rank), k):
        node = ex.Lit(0.0)
        for bkey, s_b in pulled.items():
            det = ex.Lit(0.0)
            for perm, sign in _PERMS[k]:
                entries = [morph.fiber_map[bkey[perm[p]]][idx[p]] for p in range(k)]
                if any(e.lit == 0.0 for e in entries):
                    continue
                prod = sign
                for e in entries:
                    prod = ex.mul(prod, e)
                det = ex.add(det, prod)
            node = ex.add(node, ex.mul(det, s_b))
        out[idx] = node
    return KSection(morph.src, k, out)


# ---------------------------------------------------------- seeded draws


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64), identical on every platform.

    Output i of the stream of ``seed`` is mix(seed + (i + 1) * GAMMA) mod
    2^64, a function of i alone: ``SplitMix64(seed, start)`` reads the stream
    from output ``start`` on without computing the outputs before it.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int, start: int = 0):
        self.state = (seed + start * self._GAMMA) & self._MASK

    def units(self, k: int, stride: int = 1) -> list[float]:
        """k outputs, one in every ``stride`` from the next, as floats in [0, 1): the
        top 53 bits of each, times 2^-53."""
        return [(z >> 11) * 2.0**-53 for z in self._outputs(k, stride)]

    def _outputs(self, k: int, stride: int = 1) -> Iterator[int]:
        """Outputs 0, stride, ..., (k - 1) * stride from here; the state moves past k * stride."""
        mask, gamma = self._MASK, self._GAMMA
        step = (stride * gamma) & mask
        state = (self.state + gamma - step) & mask  # one step before output 0
        for _ in range(k):
            state = (state + step) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            yield z ^ (z >> 31)
        self.state = (state + step - gamma) & mask


def uniform(rng, lo, hi):
    """The next draw of the SplitMix64 ``rng`` in [lo, hi), as ``points`` makes it."""
    return lo + (hi - lo) * rng.units(1)[0]


def points(plan, variables):
    """The ``plan.count`` points of ``plan`` over ``variables``, in order, one dict each."""
    columns = plan.coordinates(variables)
    if not columns:
        return [{} for _ in range(plan.count)]
    return [dict(zip(variables, row)) for row in zip(*columns)]


class FixedPoints:
    """A stand-in for a SamplePlan that serves the points ``envs``, in order.

    The sampled checks read a plan through ``count``, ``units``, ``column``
    and ``interval``.  Here a variable's unit draws at the points from
    ``start`` are their indices, ``column`` reads the variable at those
    points, NaN inputs included, and ``interval`` bounds |v| over the
    points (NaN where one of them is NaN).
    """

    def __init__(self, envs):
        self.envs, self.count = list(envs), len(envs)

    def units(self, k, j, start, n):
        return range(start, start + n)

    def column(self, var, units):
        return [self.envs[p][var] for p in units]

    def interval(self, var):
        bound = nan_max(abs(env.get(var, math.nan)) for env in self.envs)
        return -bound, bound


# ----------------------------------------------------- sampled-check oracles


def section_check(s):
    """The check of the coefficients of ``s`` as a function of the plan, and of ``draw``.

    The coefficients become one family of ``algebroid._max_abs`` once, here
    (``algebroid._family`` proves them), and each call samples that family
    alone, so a section checked often is proved once.
    """
    family, variables = algebroid._family(s), s.chart.base_vars
    return lambda plan, draw=None: algebroid._max_abs([family], variables, plan, draw)[0][:2]


def section_max_abs(s, plan):
    """Largest |coefficient| of ``s`` over the points of ``plan``, and its index.

    ``plan`` samples the chart's base variables.  A proved coefficient counts
    0; the others are sampled.  A NaN coefficient is the largest.  An
    evaluation error records the point it happened at as ``point``.
    """
    return section_check(s)(plan)


def section_max_diff(s1, s2, plan):
    """Largest |s1 - s2| over the coefficients and the points of ``plan``.

    One comparison: each difference of coefficients (a missing one is 0)
    becomes a coefficient of a KSection, checked by ``section_max_abs``.
    The per-comparison route of the checks of ``affgebroid``, which sample
    all of their comparisons in one ``algebroid._max_abs`` call.
    """
    if s1.degree != s2.degree:
        raise ValueError("sections must have equal degree")
    keys = set(s1.coeffs) | set(s2.coeffs)
    diffs = {
        idx: BinOp("-", as_expr(s1.coeffs.get(idx, 0.0)), as_expr(s2.coeffs.get(idx, 0.0)))
        for idx in keys
    }
    return section_max_abs(KSection(s1.chart, s1.degree, diffs), plan)[0]


def point_major_max_abs(keys, values):
    """(worst |value|, its key), with ``values[q][p]`` the value of ``keys[q]`` at point p.

    The measuring loop that ``algebroid._max_abs`` ran point by point: over
    the points, then the keys, it keeps the first strict maximum, or, once
    it meets a NaN, the last NaN; 0.0 and () when every value is 0.
    """
    worst, where = 0.0, ()
    for row in zip(*values):
        for key, v in zip(keys, row):
            v = abs(v)
            if v > worst or v != v:
                worst, where = v, key
    return worst, where


def by_column(envs):
    """``expr.evaluate_many``'s arguments for ``envs``: a column per variable, and the count."""
    return {v: [env[v] for env in envs] for v in (envs[0] if envs else ())}, len(envs)


# ------------------------------------------------------- structure oracles


def jacobi_cyclic_residual(C):
    """Brute-force cyclic-sum Jacobi residual of constant structure data.

    C[a][b][c] is the e_c component of the bracket of (e_a, e_b)."""
    r = len(C)
    worst = 0.0
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    s = 0.0
                    for e in range(r):
                        s += (
                            C[a][b][e] * C[e][c][d]
                            + C[b][c][e] * C[e][a][d]
                            + C[c][a][e] * C[e][b][d]
                        )
                    worst = max(worst, abs(s))
    return worst


# ------------------------------------------------------- expression corpus

CORPUS_VARS = ["x", "y", "z"]


def _linear_arg(rng, variables):
    c1 = round(rng.uniform(-0.5, 0.5), 3)
    c0 = round(rng.uniform(-0.4, 0.4), 3)
    return Lit(c1) * Var(rng.choice(variables)) + Lit(c0)


def _gen(rng, depth, variables):
    if depth <= 0:
        if rng.random() < 0.4:
            return Lit(round(rng.uniform(-2.0, 2.0), 3))
        return Var(rng.choice(variables))
    kind = rng.choices(
        ["add", "sub", "mul", "div", "neg", "pow", "call", "atom"],
        weights=[3, 3, 3, 2, 2, 2, 3, 2],
    )[0]
    if kind == "atom":
        return _gen(rng, 0, variables)
    if kind == "add":
        return _gen(rng, depth - 1, variables) + _gen(rng, depth - 1, variables)
    if kind == "sub":
        return _gen(rng, depth - 1, variables) - _gen(rng, depth - 1, variables)
    if kind == "mul":
        return _gen(rng, depth - 1, variables) * _gen(rng, depth - 1, variables)
    if kind == "div":
        d = _gen(rng, depth - 1, variables)
        return _gen(rng, depth - 1, variables) / (Lit(2.0) + d * d)
    if kind == "neg":
        return -_gen(rng, depth - 1, variables)
    if kind == "pow":
        return _gen(rng, depth - 1, variables) ** Lit(float(rng.choice([2, 3])))
    fn = rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt"])
    if fn in ("sin", "cos", "tan", "exp"):
        return Call(fn, _linear_arg(rng, variables))
    inner = _gen(rng, depth - 1, variables)
    offset = Lit(1.5 if fn == "log" else 0.5)
    return Call(fn, offset + inner * inner)


def expression_corpus(count=200, seed=20240811, max_depth=4):
    rng = random.Random(seed)
    return [_gen(rng, rng.randint(1, max_depth), CORPUS_VARS) for _ in range(count)]


def corpus_points(e, count=100, seed=99, box=(-2.0, 2.0), fd_step=1e-6):
    """Seeded points where e and its finite-difference stencil are defined."""
    rng = random.Random(seed)
    variables = sorted(ex.scan([e])[0]) or ["x"]
    points = []
    attempts = 0
    while len(points) < count and attempts < count * 20:
        attempts += 1
        env = {v: rng.uniform(*box) for v in variables}
        try:
            v = ex.evaluate(e, env)
            if not math.isfinite(v) or abs(v) > 1e8:
                continue
            for name in variables:
                for sign in (+1, -1):
                    shifted = dict(env)
                    shifted[name] = env[name] + sign * fd_step
                    w = ex.evaluate(e, shifted)
                    if not math.isfinite(w) or abs(w) > 1e8:
                        raise ex.DomainError("oversize", e)
        except ex.EvalError:
            continue
        points.append(env)
    return points


# ------------------------------------------------- straight-line functions


def compile_exprs(exprs, variables, bound=None):
    """One function ``x -> [value of each expression]`` of straight-line code.

    ``x`` lists the values of ``variables`` in order.  This is the stage of
    ``dynamics.compile_rk4`` on its own: every distinct node is one assignment,
    common subexpressions are computed once, and each value equals
    ``evaluate`` bit for bit.  Where ``evaluate`` raises, the function raises
    ArithmeticError or ValueError instead (it builds no DomainError).
    ``bound`` maps further names to expressions in ``variables``, computed
    first.  Raises UnboundVariableError for a variable missing from
    ``variables`` and RecursionError for input too deep to walk.
    """
    consts = {}
    names = {v: f"v{i}" for i, v in enumerate(variables)}
    lines, outputs = ex._straight_line(exprs, names, bound, consts)
    body = "\n".join(f"        {line}" for line in lines)
    return ex._build(
        f"    def compiled(x):\n"
        f"        ({''.join(f'v{i}, ' for i in range(len(variables)))}) = x\n"
        f"{body}\n"
        f"        return [{', '.join(outputs)}]\n"
        f"    return compiled\n",
        consts,
    )


def verify_one(alpha, h, x0, *args, **kwargs):
    """The one report of ``hj.verify_theorem`` from the start point x0."""
    (report,) = verify_theorem(alpha, h, [x0], *args, **kwargs)
    return report


# ------------------------------------------------- reference folding constructors


def _fold(node):
    """The node's value as a literal, or the node where evaluating raises or is not finite."""
    try:
        v = ex.evaluate(node, {})
    except (ex.EvalError, ValueError):
        return node
    return ex._lift(v) if math.isfinite(v) else node


def fold_add(a, b):
    a, b = ex._lift(a), ex._lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _fold(BinOp("+", a, b))
    if x == 0.0:
        return b
    if y == 0.0:
        return a
    return BinOp("+", a, b)


def fold_sub(a, b):
    a, b = ex._lift(a), ex._lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _fold(BinOp("-", a, b))
    if x == 0.0:
        return ex.neg(b)
    if y == 0.0:
        return a
    return BinOp("-", a, b)


def fold_mul(a, b):
    a, b = ex._lift(a), ex._lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _fold(BinOp("*", a, b))
    if x == 0.0 or y == 0.0:
        return Lit(0.0)
    if x == 1.0:
        return b
    if y == 1.0:
        return a
    if x == -1.0:
        return ex.neg(b)
    if y == -1.0:
        return ex.neg(a)
    return BinOp("*", a, b)


def fold_div(a, b):
    a, b = ex._lift(a), ex._lift(b)
    x, y = a.lit, b.lit
    if x is not None and y is not None:
        return _fold(BinOp("/", a, b))
    if x == 0.0:
        return Lit(0.0)
    if y == 1.0:
        return a
    return BinOp("/", a, b)


# ------------------------------------------- frozen-dataclass oracle for the nodes
# Each class prints under the name of the node it stands for, as its dataclass did.


@dataclass(frozen=True)
class FrozenLit:
    __qualname__ = "Lit"
    value: float


@dataclass(frozen=True)
class FrozenVar:
    __qualname__ = "Var"
    name: str


@dataclass(frozen=True)
class FrozenNeg:
    __qualname__ = "Neg"
    arg: object


@dataclass(frozen=True)
class FrozenBinOp:
    __qualname__ = "BinOp"
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class FrozenCall:
    __qualname__ = "Call"
    fn: str
    arg: object


def frozen_literal_value(e):
    """Value of a literal or a negated literal; None for any other node."""
    if isinstance(e, FrozenLit):
        return e.value
    if isinstance(e, FrozenNeg) and isinstance(e.arg, FrozenLit):
        return -e.arg.value
    return None


def to_frozen(e):
    """The same tree as frozen dataclasses; every literal keeps its float object."""
    if isinstance(e, Lit):
        return FrozenLit(e.value)
    if isinstance(e, Var):
        return FrozenVar(e.name)
    if isinstance(e, Neg):
        return FrozenNeg(to_frozen(e.arg))
    if isinstance(e, Call):
        return FrozenCall(e.fn, to_frozen(e.arg))
    return FrozenBinOp(e.op, to_frozen(e.lhs), to_frozen(e.rhs))


def from_frozen(e):
    """The inverse walk of ``to_frozen``: new ``expr`` nodes over the same leaves."""
    if isinstance(e, FrozenLit):
        return Lit(e.value)
    if isinstance(e, FrozenVar):
        return Var(e.name)
    if isinstance(e, FrozenNeg):
        return Neg(from_frozen(e.arg))
    if isinstance(e, FrozenCall):
        return Call(e.fn, from_frozen(e.arg))
    return BinOp(e.op, from_frozen(e.lhs), from_frozen(e.rhs))


# --------------------------------------------------------- reference parser
# The tokenizer and parser that ``expr.parse`` replaced: one named-group match
# and one (kind, text, offset) triple per token, then five nested methods per atom.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ex.ParseError(f"unexpected character {stripped[0]!r}", at, frozenset({"token"}))
        pos = m.end()
        if m.lastgroup == "num":
            yield "num", m.group("num"), m.start("num")
        elif m.lastgroup == "ident":
            yield "ident", m.group("ident"), m.start("ident")
        else:
            yield m.group("op"), m.group("op"), m.start("op")
    yield "eof", "", len(src)


class _Parser:
    """Recursive descent; ``nest`` counts the levels it is inside, up to ``MAX_DEPTH``."""

    def __init__(self, src):
        self.src = src
        self.tokens = list(_tokenize(src))
        self.i = 0
        self.nest = 0

    def nested(self, parse):
        if self.nest == ex.MAX_DEPTH:
            message = f"expression nested deeper than {ex.MAX_DEPTH} levels"
            raise ex.ParseError(message, self.peek()[2], frozenset())
        self.nest += 1
        e = parse()
        self.nest -= 1
        return e

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ex.ParseError(f"unexpected token {tok[1]!r}", tok[2], frozenset({kind}))
        return self.take()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ex.ParseError(
                f"trailing input {tok[1]!r}", tok[2], frozenset({"+", "-", "*", "/", "^", "eof"})
            )
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.nested(self.factor))
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return BinOp("^", base, self.nested(self.factor))
        return base

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.take()
            return Lit(float(text))
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                if text not in ex.FUNCTIONS:
                    raise ex.UnknownFunctionError(text, offset)
                self.take()
                arg = self.nested(self.expr)
                self.expect(")")
                return Call(text, arg)
            return Var(text)
        if kind == "(":
            self.take()
            e = self.nested(self.expr)
            self.expect(")")
            return e
        raise ex.ParseError(
            f"unexpected token {text!r}" if text else "unexpected end of input",
            offset,
            frozenset({"number", "identifier", "(", "-"}),
        )


def reference_parse(src):
    """The oracle for ``expr.parse``: its tree, or its ParseError."""
    return _Parser(src).parse()


def parse_outcome(parse, src):
    """What ``parse(src)`` gives, in a form that compares node for node: the
    tree as nested tuples, each literal by ``float.hex``, or the error as its
    class, ``str``, ``offset`` and ``expected``."""
    try:
        e = parse(src)
    except ex.ParseError as err:
        return type(err), str(err), err.offset, err.expected
    out, stack = [], [e]
    while stack:  # a 20,000-term sum is too deep for a recursive walk
        node = stack.pop()
        if node.__class__ is Lit:
            out.append(("Lit", node.value.hex()))
        elif node.__class__ is Var:
            out.append(("Var", node.name))
        elif node.__class__ is Neg:
            out.append(("Neg",))
            stack.append(node.arg)
        elif node.__class__ is Call:
            out.append(("Call", node.fn))
            stack.append(node.arg)
        else:
            out.append(("BinOp", node.op))
            stack += [node.rhs, node.lhs]
    return out
