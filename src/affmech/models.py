"""Built-in model bundles: charts, Hamiltonians and candidate dual sections.

Three families ship ready to use:

* a trivial fibration over time (classical time-dependent mechanics), with
  free-particle and harmonic-oscillator presets and known HJ solutions;
* any valid Lie algebroid re-read as an affgebroid with central adapted
  section (zero extra anchor, no mixed brackets), specialized to tangent
  charts of R^d;
* the heavy-top-free rigid body: time extended so(3) coadjoint dynamics in
  a trivialized chart, i.e. the Euler equations dPi/dt = Pi x Omega.

Sample boxes of the bundles exclude the singularities of their shipped
sections (the 1/(t+1) family, the cot(t) family).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from .algebroid import AlgebroidChart, SamplePlan, validate_chart
from .affgebroid import AffgebroidChart, CoSection, HamiltonianSection

__all__ = [
    "ModelBundle",
    "ModelNameError",
    "trivial_fibration",
    "harmonic_oscillator",
    "tangent_algebroid",
    "linear_algebroid",
    "linear_tangent_model",
    "rigid_body",
    "so3_chart",
    "perturbed_so3_chart",
    "by_name",
    "BUILTIN_PATTERNS",
]

_LEVI_CIVITA = {
    (0, 1, 2): 1.0,
    (1, 2, 0): 1.0,
    (2, 0, 1): 1.0,
    (2, 1, 0): -1.0,
    (1, 0, 2): -1.0,
    (0, 2, 1): -1.0,
}


@dataclass
class ModelBundle:
    name: str
    chart: AffgebroidChart
    hamiltonian: HamiltonianSection
    sections: Mapping[str, CoSection] = field(default_factory=dict)
    sample: SamplePlan = field(default_factory=SamplePlan)
    description: str = ""

    def section(self, name: str) -> CoSection:
        try:
            return self.sections[name]
        except KeyError:
            raise KeyError(
                f"model '{self.name}' has no section '{name}'; "
                f"available: {sorted(self.sections)}"
            ) from None


class ModelNameError(ValueError):
    pass


class _Sections(Mapping):
    """The shipped sections of a builtin bundle, by name.

    A section is built from its (alpha0, alphaV) sources on its first
    lookup and then kept by the bundle, so a call that uses an inline
    section parses none of them.
    """

    def __init__(self, chart: AffgebroidChart, sources: dict[str, tuple[object, list]]):
        self._chart = chart
        self._sources = sources
        self._built: dict[str, CoSection] = {}

    def __getitem__(self, name: str) -> CoSection:
        section = self._built.get(name)
        if section is None:
            section = self._built[name] = CoSection(self._chart, *self._sources[name])
        return section

    def __iter__(self):
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


# ------------------------------------------------------- trivial fibration


def trivial_fibration(dim_q: int) -> ModelBundle:
    """Time plus flat configuration space; free-particle Hamiltonian.

    Coordinates (t, q1..qn) with momenta (p1..pn); the adapted section
    carries the time translation, model directions move the q's.  Shipped
    sections: the spreading-packet HJ solution of the free particle and two
    closed non-solutions.
    """
    if dim_q < 1:
        raise ValueError("dim_q must be at least 1")
    n = dim_q
    chart = _time_chart(n)
    h = HamiltonianSection(chart, "+".join(f"p{i+1}^2/2" for i in range(n)))
    sections = _Sections(chart, {
        # generating function sum q_i^2 / (2(t+1)); solves the HJ equation
        "w_free": (
            "-(" + "+".join(f"q{i+1}^2" for i in range(n)) + ")/(2*(t+1)^2)",
            [f"q{i+1}/(t+1)" for i in range(n)],
        ),
        # generating function sum q_i^3 / 3; closed but not a solution
        "w_cubic": (0.0, [f"q{i+1}^2" for i in range(n)]),
        # generating function sum q_i^2 / 2; closed but not a solution
        "w_sq": (0.0, [f"q{i+1}" for i in range(n)]),
        "zero": (0.0, [0.0] * n),
    })
    sample = SamplePlan(box={"t": (-0.5, 1.0)})
    return ModelBundle(
        name=f"trivial:{n}",
        chart=chart,
        hamiltonian=h,
        sections=sections,
        sample=sample,
        description="trivial fibration over time, free particle",
    )


def _time_chart(n: int) -> AffgebroidChart:
    """The chart of ``trivial_fibration(n)``, shared with ``harmonic_oscillator``."""
    base = ["t"] + [f"q{i+1}" for i in range(n)]
    fibers = [f"p{i+1}" for i in range(n)]
    rho0 = [1.0] + [0.0] * n
    rhoV = [[1.0 if i == 1 + a else 0.0 for i in range(1 + n)] for a in range(n)]
    zero_n = [[0.0] * n for _ in range(n)]
    return AffgebroidChart(base, fibers, rho0, rhoV, zero_n, [[list(r) for r in zero_n] for _ in range(n)])


def harmonic_oscillator() -> ModelBundle:
    """One-dimensional oscillator on the trivial fibration.

    The shipped solution is the cot-generated one, valid between the zeros
    of sin; the sample box stays inside (0, pi)."""
    chart = _time_chart(1)
    h = HamiltonianSection(chart, "(p1^2+q1^2)/2")
    sections = _Sections(chart, {
        "w_osc": ("-(q1^2/2)/sin(t)^2", ["q1*cos(t)/sin(t)"]),
        "zero": (0.0, [0.0]),
    })
    sample = SamplePlan(box={"t": (0.2, 2.9)})
    return ModelBundle(
        name="oscillator",
        chart=chart,
        hamiltonian=h,
        sections=sections,
        sample=sample,
        description="harmonic oscillator on the trivial fibration",
    )


# --------------------------------------------------------- linear algebroid


def tangent_algebroid(dim: int) -> AlgebroidChart:
    """Tangent chart of R^dim: identity anchor, vanishing brackets."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    base = [f"x{i+1}" for i in range(dim)]
    anchor = [[1.0 if i == a else 0.0 for i in range(dim)] for a in range(dim)]
    structure = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    return AlgebroidChart(base, anchor, structure)


def linear_algebroid(chart: AlgebroidChart, fiber_vars=None) -> AffgebroidChart:
    """Re-read a Lie algebroid chart as an affgebroid chart.

    The adapted section is central with zero anchor: rho0 and the mixed
    structure functions vanish, model data is the input chart.  The input
    chart must pass validation."""
    report = validate_chart(chart)
    if not report.valid:
        raise ValueError(
            "input chart fails validation: "
            f"antisym {report.antisymmetry_max:.2e}, anchor {report.anchor_max:.2e}, "
            f"jacobi {report.jacobi_max:.2e}"
        )
    return _central(chart, fiber_vars)


def _central(chart: AlgebroidChart, fiber_vars=None) -> AffgebroidChart:
    """``linear_algebroid`` without validating its input chart."""
    n, m = chart.rank, chart.dim
    if fiber_vars is None:
        fiber_vars = []
        used = set(chart.base_vars)
        for a in range(n):
            name = f"y{a+1}"
            while name in used:
                name += "_"
            used.add(name)
            fiber_vars.append(name)
    zeros_m = [0.0] * m
    zeros_nn = [[0.0] * n for _ in range(n)]
    return AffgebroidChart(
        chart.base_vars, fiber_vars, zeros_m, chart.anchor, zeros_nn, chart.structure
    )


def linear_tangent_model(dim: int) -> ModelBundle:
    """Geodesic flow of the flat metric in the linear-algebroid reading."""
    # identity anchor and zero brackets hold the axioms by construction
    aff = _central(tangent_algebroid(dim))
    h = HamiltonianSection(aff, "+".join(f"y{a+1}^2/2" for a in range(dim)))
    const = [0.7, -0.3, 0.5, -0.1, 0.9]
    sections = _Sections(aff, {
        # constant section: closed, and an HJ solution (f is constant)
        "const": (0.0, [const[a % len(const)] for a in range(dim)]),
        # gradient of sum x_i^2/2: closed, not a solution
        "grad_sq": (0.0, [f"x{a+1}" for a in range(dim)]),
        "zero": (0.0, [0.0] * dim),
    })
    return ModelBundle(
        name=f"linear:tangent{dim}",
        chart=aff,
        hamiltonian=h,
        sections=sections,
        sample=SamplePlan(),
        description="tangent algebroid as an affgebroid, flat geodesic flow",
    )


# --------------------------------------------------------------- rigid body


def rigid_body(i1: float, i2: float, i3: float) -> ModelBundle:
    """Time-extended free rigid body in the reduced trivialized chart.

    Base coordinate t, fiber coordinates the body momenta (P1, P2, P3);
    brackets are the so(3) constants, so the fiber equations are the Euler
    equations dPi/dt = Pi x Omega with Omega_a = Pa/Ia.
    """
    inertia = (float(i1), float(i2), float(i3))
    if not all(0.0 < v < math.inf for v in inertia):
        raise ValueError("inertia moments must be positive finite numbers")
    base = ["t"]
    fibers = ["P1", "P2", "P3"]
    CV = [[[_LEVI_CIVITA.get((a, b, g), 0.0) for g in range(3)] for b in range(3)] for a in range(3)]
    chart = AffgebroidChart(
        base,
        fibers,
        [1.0],
        [[0.0], [0.0], [0.0]],
        [[0.0] * 3 for _ in range(3)],
        CV,
    )
    h = HamiltonianSection(
        chart,
        "+".join(f"P{a+1}^2/(2*{inertia[a]!r})" for a in range(3)),
    )
    sections = _Sections(chart, {
        # the only cocycles of this chart have vanishing fiber part
        "cocycle_t": ("t", [0.0, 0.0, 0.0]),
        "bad_constant": (0.0, [0.0, 0.0, 1.0]),
        "zero": (0.0, [0.0, 0.0, 0.0]),
    })
    return ModelBundle(
        name=f"rigid:{inertia[0]:g},{inertia[1]:g},{inertia[2]:g}",
        chart=chart,
        hamiltonian=h,
        sections=sections,
        sample=SamplePlan(),
        description="time-extended rigid body (Euler equations)",
    )


# -------------------------------------------------------- validation charts


def so3_chart() -> AlgebroidChart:
    """so(3) over a one-dimensional base with zero anchor."""
    structure = [
        [[_LEVI_CIVITA.get((a, b, g), 0.0) for g in range(3)] for b in range(3)]
        for a in range(3)
    ]
    return AlgebroidChart(["t"], [[0.0], [0.0], [0.0]], structure)


def perturbed_so3_chart() -> AlgebroidChart:
    """Negative control: so(3) plus an off-diagonal bracket term.

    The extra antisymmetric entry C^2_12 = 0.3 breaks the Jacobi identity
    with cyclic-sum residual 0.3.  (Rescaling a single diagonal constant
    does not: any diagonal antisymmetric bracket on a rank-3 chart is a Lie
    algebra.)"""
    structure = [[list(col) for col in mat] for mat in so3_chart().structure]
    structure[0][1][1] = 0.3
    structure[1][0][1] = -0.3
    return AlgebroidChart(["t"], [[0.0], [0.0], [0.0]], structure)


# ---------------------------------------------------------------- registry

BUILTIN_PATTERNS = [
    "trivial:<dim>",
    "oscillator",
    "linear:tangent<dim>",
    "rigid:<I1>,<I2>,<I3>",
    "perturbed-so3",
]


def by_name(name: str) -> ModelBundle:
    """Resolve a builtin model name."""
    if name == "oscillator":
        return harmonic_oscillator()
    if name == "perturbed-so3":
        chart = _perturbed_so3_aff()
        return ModelBundle(
            name="perturbed-so3",
            chart=chart,
            hamiltonian=HamiltonianSection(chart, 0.0),
            description="invalid structure constants (Jacobi violation)",
        )
    if name.startswith("trivial:"):
        return trivial_fibration(_positive_int(name, name.split(":", 1)[1]))
    if name.startswith("linear:tangent"):
        return linear_tangent_model(_positive_int(name, name[len("linear:tangent"):]))
    if name.startswith("rigid:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise ModelNameError(f"'{name}': rigid model needs three inertia values")
        try:
            inertia = [float(p) for p in parts]
        except ValueError:
            raise ModelNameError(f"'{name}': inertia values must be numbers") from None
        try:
            return rigid_body(*inertia)
        except ValueError as err:
            raise ModelNameError(f"'{name}': {err}") from None
    raise ModelNameError(f"unknown model '{name}'; builtins: {BUILTIN_PATTERNS}")


def _positive_int(name: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ModelNameError(f"'{name}': expected an integer dimension") from None
    if value < 1:
        raise ModelNameError(f"'{name}': dimension must be positive")
    return value


def _perturbed_so3_aff() -> AffgebroidChart:
    """Affgebroid wrapper around the invalid chart, bypassing the guard."""
    return AffgebroidChart(
        ["t"],
        ["y1", "y2", "y3"],
        [0.0],
        [[0.0], [0.0], [0.0]],
        [[0.0] * 3 for _ in range(3)],
        perturbed_so3_chart().structure,
    )
