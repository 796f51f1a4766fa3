"""Verification suites: every certified fact becomes a PASS/FAIL record.

Records compare exact values (rationals, integers, tuples rendered to
text); there is no tolerance anywhere.  The ``claim`` field states the
mathematical fact a record certifies in its own words, or "plumbing" for
internal consistency checks.

Each system is built once per run, as a pullback; the ``sprime`` and
``theorem`` records check it against its incidence conditions with
``linsys.conditions_report``, with no second copy and no nullspace.  The
span records read that certificate's own verdict: no suite compares two
spans any other way.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from time import perf_counter

from . import EXTRA_SUITES, SUITES, ConfigurationError
from .bundles import RuledClass, SplitBundle, system_dim
from .grading import FrozenValue, clip, hilbert_count
from .linsys import (PENCIL_VARS, InvalidPencilError, LinearSystem, PencilCubic,
                     X1, X2, X3, X4, build_degree12_system, build_sextic_system,
                     conditions_report, coordinate_plane_residual,
                     is_scalar_multiple, multiplicity_along_line,
                     random_member, restrict_to_pencil,
                     restrict_to_pencil_plane)
from .poly import ParseError, Polynomial, is_homogeneous
from .ratmap import image_degrees, weighted_parametrization
from .wps import WeightedProjectiveSpace


class VerifyConfig(FrozenValue):
    """What one run certifies: the pencil's text (None for the default), the
    suite, and the seed of the random-member checks.  The pencil is resolved
    on first read, not when the config is built: perfbench's worker builds
    each config before its op timer starts, and ``fano72 verify`` reads it
    before ``--json`` opens, to refuse a bad cubic first."""

    _fields = ("xi_text", "suite", "seed")    # no __slots__: the cached pencil needs a __dict__
    xi_text: str | None
    suite: str
    seed: int

    def __init__(self, xi_text: str | None = None, suite: str = "all", seed: int = 0):
        super().__init__(xi_text, suite, seed)

    @cached_property
    def pencil(self) -> PencilCubic:
        """The pencil ``xi_text`` names, resolved once per config."""
        return resolve_pencil(self.xi_text)


@dataclass
class CheckRecord:
    check_id: str
    description: str
    claim: str
    status: str
    computed: str
    expected: str
    elapsed: float


def _run(records: list[CheckRecord], check_id: str, description: str, claim: str,
         expected, compute: Callable[[], object]) -> None:
    start = perf_counter()
    try:
        computed = compute()
    except Exception as error:  # a crashed check is a failed check, not a crashed run
        computed = f"error: {error}"
    elapsed = perf_counter() - start
    status = "PASS" if computed == expected else "FAIL"
    records.append(CheckRecord(check_id, description, claim, status,
                               str(computed), str(expected), elapsed))


def resolve_pencil(xi_text: str | None) -> PencilCubic:
    if xi_text is None:
        return PencilCubic.default()
    try:
        return PencilCubic.from_text(xi_text)
    except (InvalidPencilError, ParseError) as error:
        raise ConfigurationError(f"invalid pencil cubic: {error}") from error


# -- suite: weighted projective spaces ------------------------------------

def wps_suite() -> list[CheckRecord]:
    records: list[CheckRecord] = []
    p146 = WeightedProjectiveSpace((1, 1, 4, 6))
    p113 = WeightedProjectiveSpace((1, 1, 1, 3))
    # P(1,1,4,6)'s basis is listed once, inside the first record that needs it.
    basis146 = cache(p146.anticanonical_basis)
    _run(records, "wps.weight.1146", "anticanonical weight of P(1,1,4,6)",
         "the anticanonical sheaf of P(1,1,4,6) is O(12)",
         12, p146.anticanonical_weight)
    _run(records, "wps.weight.1113", "anticanonical weight of P(1,1,1,3)",
         "the anticanonical sheaf of P(1,1,1,3) is O(6)",
         6, p113.anticanonical_weight)
    _run(records, "wps.degree.1146", "anticanonical self-intersection of P(1,1,4,6)",
         "the anticanonical self-intersection of P(1,1,4,6) is 72",
         72, p146.anticanonical_selfintersection)
    _run(records, "wps.degree.1113", "anticanonical self-intersection of P(1,1,1,3)",
         "the anticanonical self-intersection of P(1,1,1,3) is 72",
         72, p113.anticanonical_selfintersection)
    _run(records, "wps.hilbert.1146", "recurrence count of weighted degree-12 monomials",
         "the monomials of degree 12 under weights (1,1,4,6) number 39",
         39, lambda: hilbert_count((1, 1, 4, 6), 12))
    _run(records, "wps.basis.1146", "enumerated anticanonical basis size of P(1,1,4,6)",
         "the anticanonical space of P(1,1,4,6) has a 39-monomial basis",
         39, lambda: len(basis146()))
    _run(records, "wps.basis.1113", "enumerated anticanonical basis size of P(1,1,1,3)",
         "the anticanonical space of P(1,1,1,3) has a 39-monomial basis",
         39, lambda: len(p113.anticanonical_basis()))
    _run(records, "wps.embedding.1146", "anticanonical embedding dimension of P(1,1,4,6)",
         "P(1,1,4,6) embeds anticanonically in P^38",
         38, lambda: len(basis146()) - 1)

    def basis_shape() -> str:
        counts = Counter((e[2], e[3]) for e in basis146())
        return "+".join(str(counts[key]) for key in
                        ((0, 2), (1, 1), (0, 1), (3, 0), (2, 0), (1, 0), (0, 0)))

    _run(records, "wps.basis-shape.1146", "anticanonical basis grouped by (y3, y4) exponents",
         "the anticanonical basis splits into blocks y4^2 | y3*y4*f2 | y4*f6 | "
         "y3^3 | y3^2*f4 | y3*f8 | f12",
         "1+3+7+1+5+9+13", basis_shape)
    return records


# -- suite: scroll and cone bookkeeping ------------------------------------

def scroll_suite() -> list[CheckRecord]:
    records: list[CheckRecord] = []
    scroll = SplitBundle((2, 6))
    cone = SplitBundle((0, 2, 6))
    e4 = RuledClass(4, 1, 0)
    hyperplane = RuledClass(4, 1, 6)
    fibre = RuledClass(4, 0, 1)
    _run(records, "scroll.h0.surface", "sections of O(2) + O(6) on P^1",
         "the tautological system of O(2)+O(6) embeds the scroll in P^9",
         10, scroll.h0)
    _run(records, "scroll.h0.cone", "sections of O + O(2) + O(6) on P^1",
         "the cone over the scroll spans P^10",
         11, cone.h0)
    _run(records, "scroll.selfint", "self-intersection of the hyperplane class on F_4",
         "the scroll has minimal degree 8 in P^9",
         8, lambda: hyperplane.intersect(hyperplane))
    _run(records, "scroll.conic", "hyperplane degree of the negative section",
         "the negative section of F_4 maps to a conic",
         2, lambda: e4.intersect(hyperplane))
    _run(records, "scroll.lines", "hyperplane degree of a ruling",
         "the rulings of F_4 map to lines",
         1, lambda: fibre.intersect(hyperplane))
    _run(records, "scroll.sym3.count", "summand count of the cubed cone bundle",
         "plumbing",
         10, lambda: cone.sym_power(3).rank)
    _run(records, "scroll.system.cubics", "dimension of the cubic-minus-six-fibres system",
         "cubic hypersurface sections through six ruling planes cut a "
         "38-dimensional system on the cone",
         38, lambda: system_dim(cone, 3, -6))
    _run(records, "scroll.system.tautological", "dimension of the tautological system",
         "the tautological system maps the cone's resolution to P^10",
         10, lambda: system_dim(cone, 1, 0))
    _run(records, "scroll.match.wps", "bundle dimension against anticanonical dimension",
         "the 38-dimensional cubic-section system matches the anticanonical "
         "system of P(1,1,4,6)",
         "38 = 38",
         lambda: f"{system_dim(cone, 3, -6)} = {hilbert_count((1, 1, 4, 6), 12) - 1}")
    return records


# -- suite: the sextic system ----------------------------------------------

def sextic_suite(pencil: PencilCubic, rng: random.Random) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    system = build_sextic_system(pencil)
    members = list(system.generators) + [random_member(system, rng)]
    unit = (1, 1, 1, 1)
    x1_fifth = Polynomial.monomial(PENCIL_VARS, (0, 5, 0, 0))
    _run(records, "system-s.generators", "generator count of the sextic system",
         "the sextic system depends on 11 independent parameters",
         11, lambda: len(system.generators))
    _run(records, "system-s.dim", "projective dimension of the sextic system",
         "the sextic system has projective dimension 10",
         10, system.projective_dim)
    _run(records, "system-s.degrees", "degrees of the sextic generators",
         "every member is a surface of degree 6",
         "{6}", lambda: str({is_homogeneous(g, unit) for g in system.generators}))
    _run(records, "system-s.multiplicity", "minimal generator multiplicity along the line",
         "the members have multiplicity 5 along the line x1 = x2 = 0",
         5, lambda: min(multiplicity_along_line(g) for g in system.generators))
    _run(records, "system-s.multiplicity.random", "multiplicity of a random member",
         "a general member has multiplicity exactly 5 along the line",
         5, lambda: multiplicity_along_line(members[-1]))

    def residual_degrees() -> str:
        degrees = set()
        for f in members:
            residual = restrict_to_pencil(f).exact_divide(x1_fifth)
            degrees.add(residual.degree_in(("x1", "x3", "x4")))
        return str(degrees)

    _run(records, "system-s.pencil-residual", "moving intersection with a general pencil plane",
         "off the quintuple line, a member meets a general pencil plane in a line",
         "{1}", residual_degrees)

    def share(test) -> str:         # how many members pass the test, of how many
        return f"{sum(map(test, members))}/{len(members)}"

    for plane in ("x1", "x2"):
        _run(records, f"system-s.plane-{plane}",
             f"residual lines on the plane {plane} = 0",
             f"members meet the plane {plane} = 0, off the line, in lines "
             "through [0,0,0,1]",
             f"{len(members)}/{len(members)}",
             lambda plane=plane: share(
                 lambda f: not coordinate_plane_residual(f, plane).uses_variable("x4")))

    for k, tau in enumerate(pencil.roots, start=1):
        _run(records, f"system-s.root-{k}",
             f"restriction to the pencil plane x2 = {tau}*x1",
             f"members meet the plane x2 = {tau}*x1 in the line alone, "
             "with multiplicity 6",
             f"{len(members)}/{len(members)}",
             lambda tau=tau: share(
                 lambda f: is_scalar_multiple(restrict_to_pencil_plane(f, tau), (6, 0, 0, 0))))

    records += sprime_records(pencil, system)
    return records


def sprime_records(pencil: PencilCubic, system: LinearSystem) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    # One certificate, made inside the first record's _run, serves all three records.
    report = cache(lambda: conditions_report(pencil, system))
    _run(records, "system-s.sprime.rank", "rank of the incidence-constraint matrix",
         "the 8 incidence conditions (one per coordinate plane, two per pencil "
         "root) are linearly independent",
         8, lambda: report()[0])
    _run(records, "system-s.sprime.dim", "solution dimension of the incidence constraints",
         "the constraint-cut space of sextics has vector dimension 11 "
         "(projective dimension 10)",
         11, lambda: report()[1])
    _run(records, "system-s.sprime.span", "constraint route against generator route",
         "the incidence constraints cut out exactly the sextic system",
         True, lambda: report()[3])
    return records


# -- suite: the degree-12 system --------------------------------------------

def degree12_suite(pencil: PencilCubic, system: LinearSystem | None = None) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    if system is None:
        system = build_degree12_system(pencil)
    xi = pencil.cubic
    unit = (1, 1, 1, 1)
    _run(records, "system-t.generators", "generator count of the degree-12 system",
         "the degree-12 system depends on 39 independent parameters",
         39, lambda: len(system.generators))
    _run(records, "system-t.dim", "projective dimension of the degree-12 system",
         "the degree-12 system has projective dimension 38",
         38, system.projective_dim)
    _run(records, "system-t.degrees", "degrees of the degree-12 generators",
         "every member is a surface of degree 12",
         "{12}", lambda: str({is_homogeneous(g, unit) for g in system.generators}))
    _run(records, "system-t.multiplicity", "minimal generator multiplicity along the line",
         "every member passes through the line x1 = x2 = 0 with multiplicity "
         "at least 9",
         9, lambda: min(multiplicity_along_line(g) for g in system.generators))
    _run(records, "system-t.member.squared", "membership of x1^2*x2^2*x4^2*xi^2",
         "the doubled product surface x1^2*x2^2*x4^2*xi^2 = 0 belongs to the system",
         True, lambda: system.member((X1 * X2 * X4 * xi) ** 2))
    _run(records, "system-t.member.cubed", "membership of x3^3*xi^3",
         "the tripled surface x3^3*xi^3 = 0 belongs to the system",
         True, lambda: system.member((X3 * xi) ** 3))
    _run(records, "system-t.nonmember", "membership of x4^12",
         "x4^12 = 0 misses the line entirely, so it cannot belong to the system",
         False, lambda: system.member(X4 ** 12))
    return records


# -- suite: the span identity ------------------------------------------------

def theorem_suite(pencil: PencilCubic, pulled: LinearSystem | None = None) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    eta = weighted_parametrization(pencil)
    if pulled is None:
        pulled = build_degree12_system(pencil)
    # One certificate, made inside the first record that needs it, serves every span record.
    report = cache(lambda: conditions_report(pencil, pulled))
    _run(records, "theorem.grading", "component degrees of the weighted parametrization",
         "the parametrization of P(1,1,4,6) has component degrees (1, 1, 4, 6)",
         "(1, 1, 4, 6)", lambda: str(image_degrees(eta)))
    _run(records, "theorem.rank.pullback", "rank of the pulled-back anticanonical basis",
         "the 39 pulled-back anticanonical monomials are linearly independent",
         39, lambda: pulled.rank)
    _run(records, "theorem.rank.direct", "dimension cut out by the degree-12 conditions",
         "the degree-12 incidence conditions leave a 39-dimensional space of forms",
         39, lambda: report()[1])
    _run(records, "theorem.containment.forward",
         "pulled-back monomials inside the degree-12 span",
         "every pulled-back anticanonical monomial is a degree-12 member",
         "39/39", lambda: f"{len(report()[2].generators)}/{len(pulled.generators)}")
    _run(records, "theorem.containment.reverse",
         "rank of the pulled-back monomials inside the conditions over the dimension they leave",
         "the pulled-back monomials that satisfy the degree-12 conditions span the whole "
         "space the conditions cut out",
         "39/39", lambda: f"{report()[2].rank}/{report()[1]}")

    _run(records, "theorem.identity", "span identity between the two systems",
         "composing the parametrization with the anticanonical system of "
         "P(1,1,4,6) yields exactly the degree-12 system",
         "PASS", lambda: "PASS" if report()[3] else "FAIL")
    return records


def run_all(config: VerifyConfig) -> list[CheckRecord]:
    """Run the named suite, or for ``all`` every suite in ``SUITES`` order, and
    return the records; the degree-12 system is built once, when first needed."""
    pencil = config.pencil
    suite = config.suite
    if suite not in ("all",) + SUITES + EXTRA_SUITES:
        raise ConfigurationError(
            f"unknown suite {clip(suite)!r}; choose from all, {', '.join(SUITES + EXTRA_SUITES)}")
    rng = random.Random(config.seed)
    degree12 = cache(lambda: build_degree12_system(pencil))
    suites = {"wps": wps_suite,
              "scroll": scroll_suite,
              "system-s": lambda: sextic_suite(pencil, rng),
              "sprime": lambda: sprime_records(pencil, build_sextic_system(pencil)),
              "system-t": lambda: degree12_suite(pencil, degree12()),
              "theorem": lambda: theorem_suite(pencil, degree12())}
    return [record for name in (SUITES if suite == "all" else (suite,))
            for record in suites[name]()]
