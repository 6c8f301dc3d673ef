"""Workload inputs, the timed call of each case, and its correctness check.

Setup turns a seed into plain-text inputs (polynomials, points, case names).
Each timed case parses its text and calls the program, so every pass starts
from fresh objects and no cache kept on an input object carries over from
one pass to the next.  The program is reached through `sys.modules` at call
time because `run.py` re-imports it for every setup repetition.
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("census", "classify", "golden")

# Per-case time limits, in seconds on the reference speed of `run.py`, which
# judges a case by its time on that speed, so that a slow phase of a shared
# host does not turn a finishing case into a time-out.
# Each sits well between the slowest case that finishes and the fastest
# that does not: census n=6 takes up to 1.7 s and n=7 about 25 s; classify's
# slowest finishing case (the moved oscnode, mostly its oracle) took at most
# 0.83 s over seeds 1-59, and the moved A6 form at least 1.8 s (it finishes
# in 1.8-3.2 s or runs past 8 s, depending on the seed).  The cases past
# their limit are the same for every seed, so a run's count of failed cases
# is too.
LIMIT_S = {"census": 3.0, "classify": 1.2, "golden": 20.0}

# census: cases per degree, drawn without replacement from a fixed pool of
# centers.  The pool is the ROADMAP generator (random.Random(7), center
# coefficients in [-3, 3]) so that every pool member has a recorded reference.
# Every degree-4 center of the pool runs on every seed (in a seeded order),
# and they are over half the cases, so the per-case median is the same two
# degree-4 cases whatever the seed draws.  Drawing 8 of them spread the
# median 0.10 over ten seeds, as their costs fall in two clusters (57-74
# and 80-85 ms); a median among the degree-5 pool (0.2-0.5 s) moved 40%.
CENSUS_TIERS = ((4, 16), (5, 3), (6, 1), (7, 1))
CENSUS_POOL_SIZE = {4: 16, 5: 16, 6: 8, 7: 4}
CENSUS_POOL_SEED = 7
# coefficient-height tier; a = 1000 is the rational-root hang
HEIGHTS = (10, 100, 1000)

# classify: the moved normal forms and the three named curves of the paper
CLASSIFY_FORMS = tuple(
    (f"A{s}", "x1^2 - x0^2" if s == 1 else f"x1^2*x2^{s - 1} - x0^{s + 1}", s)
    for s in range(1, 13)
) + (
    ("oscnode", "x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2", 5),
    ("ramphoid", "x1^2*x2^3 - x0^5", 4),
    ("tacnode", "x1^2*x2^2 - x1*x0^2*x2", 3),
)
# Matrix entries are +-1: every moved curve is dense and of about the same
# height, so a form's cost varies little from seed to seed.  With zeros or
# larger entries allowed, whether A5 or A6 finishes depends on the matrix.
MATRIX_ENTRIES = (-1, 1)
# Bits of each prime in D = p*q for the node y^2 = D*x^2 - x^3; factoring D
# takes about 2^(bits/2) steps.  Two nodes per size give a block of cheap
# cases of similar cost, so the per-case median does not jump between
# unlike cases from seed to seed.  No 40-bit node: its factoring alone takes
# 0.1-1.6 s depending on the primes, so whether it passes the limit would
# depend on the seed.
NODE_BITS = tuple(b for b in range(4, 33, 2) for _ in range(2))
NODE_FORM = "x1^2*x2 - {D}*x0^2*x2 + x0^3"


class CaseTimeout(BaseException):
    """Raised from SIGALRM in a case past its limit.  A BaseException, so no
    `except Exception` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], object]  # timed: parse the inputs, call the program
    check: Callable[[object], str | None]  # reason the output is wrong, or None


@dataclass(frozen=True)
class Refusal:
    """An explicit refusal by the program: an OscurveError it raised."""

    kind: str
    message: str


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float
    status: str  # ok | timeout | refused | error | wrong
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def execute(case: Case, limit: float, before=None, after=None) -> Outcome:
    """Run one case under its time limit and check its output.

    `before` and `after` run just outside the timed region (the tracer
    installs and removes its wrappers there)."""
    errors = sys.modules["oscurve.errors"]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    if before:
        before()
    failure = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            output = case.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        failure = ("timeout", "")
    except errors.OscurveError as exc:
        output = Refusal(type(exc).__name__, str(exc))
    except Exception as exc:  # an internal failure of the program under test
        failure = ("error", f"{type(exc).__name__}: {exc}")
    finally:
        seconds = time.perf_counter() - start
        if after:
            after()
        signal.signal(signal.SIGALRM, old)
    if failure:
        return Outcome(case.name, seconds, *failure)
    reason = case.check(output)
    if reason is None:
        return Outcome(case.name, seconds, "ok")
    status = "refused" if isinstance(output, Refusal) else "wrong"
    return Outcome(case.name, seconds, status, reason)


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one workload; the same seed gives the same cases."""
    if workload == "census":
        return census_cases(seed)
    if workload == "classify":
        return classify_cases(seed)
    if workload == "golden":
        return golden_cases()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def census_pool() -> dict[int, list[tuple]]:
    """Raw centers, as integer coefficient rows, for every pool degree."""
    rng = random.Random(CENSUS_POOL_SEED)
    return {
        n: [
            tuple(tuple(rng.randint(-3, 3) for _ in range(n + 1)) for _ in range(3))
            for _ in range(CENSUS_POOL_SIZE[n])
        ]
        for n in sorted(CENSUS_POOL_SIZE)
    }


def center_forms(n: int, rows):
    from oscurve.rational_curves import ambient_ring

    ring = ambient_ring(n)
    return [sum((c * z for c, z in zip(row, ring.gens())), ring.zero()) for row in rows]


def height_param(a: int) -> str:
    return f"s^4 + {a}*t^4; {a + 7}*s^3*t - s*t^3; {a - 3}*s^2*t^2 + t^4"


def load_census_reference() -> dict:
    return json.loads((BENCH_DIR / "census_reference.json").read_text())


def census_inputs(seed: int) -> list[tuple[str, str]]:
    """(reference key, parameterization text) for every census case.

    A center the generator refuses is redrawn from the rest of the pool."""
    oscurve = sys.modules["oscurve"]
    pool = census_pool()
    rng = random.Random(seed)
    out = []
    for n, count in CENSUS_TIERS:
        order = list(range(len(pool[n])))
        rng.shuffle(order)
        chosen = 0
        for i in order:
            try:
                param = oscurve.parameterization_from_center(n, center_forms(n, pool[n][i]))
            except oscurve.OscurveError:
                continue
            out.append((f"n{n}#{i}", "; ".join(str(f) for f in param.forms)))
            chosen += 1
            if chosen == count:
                break
        if chosen < count:
            raise RuntimeError(f"census pool for n={n} has fewer than {count} usable centers")
    out.extend((f"a{a}", height_param(a)) for a in HEIGHTS)
    return out


def census_summary(census) -> dict:
    """The outcome a reference records: sorted labels and site signatures."""
    sites = sorted(
        ([s.kind, s.size, s.delta, s.cusp_count, s.label] for s in census.sites), key=json.dumps
    )
    return {"labels": census.labels(), "sites": sites}


def _evaluate(poly, values):
    total = 0
    for exps, c in poly.terms.items():
        term = c
        for v, e in zip(values, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


def census_violations(census, implicit_poly) -> list[str]:
    """Invariants every census must satisfy, independent of any reference."""
    bad = []
    expected = math.comb(census.n - 1, 2)
    if census.delta_sum != expected:
        bad.append(f"delta sum {census.delta_sum} != C(n-1,2) = {expected}")
    for site in census.sites:
        if site.label is None:
            continue
        s = int(site.label[1:])
        per_point = site.delta if site.kind == "point" else site.delta / site.size
        if per_point != -(-s // 2):
            bad.append(f"{site.label} with delta {per_point}")
        if site.image_point is not None and _evaluate(implicit_poly(), site.image_point) != 0:
            bad.append(f"image point {[str(c) for c in site.image_point]} is off the curve")
    return bad


def census_case(key: str, text: str, reference: dict) -> Case:
    implicit = {}

    def implicit_poly():
        if "F" not in implicit:
            oscurve = sys.modules["oscurve"]
            implicit["F"] = oscurve.implicitize(oscurve.PlaneParameterization.parse(text)).poly
        return implicit["F"]

    def run():
        oscurve = sys.modules["oscurve"]
        return oscurve.classify_curve_singularities(oscurve.PlaneParameterization.parse(text))

    def check(output):
        expect = reference.get(key)
        if expect is None:
            return f"no reference recorded for {key}"
        if expect.get("param") != text:
            return f"input differs from the one the reference for {key} was recorded on"
        if isinstance(output, Refusal):
            if expect.get("refused") == output.kind:
                return None
            return f"refused ({output.kind}: {output.message})"
        if "refused" in expect:
            return f"answered where the reference refuses with {expect['refused']}"
        bad = census_violations(output, implicit_poly)
        got = census_summary(output)
        if got != {"labels": expect["labels"], "sites": expect["sites"]}:
            bad.append(f"outcome {got} differs from the reference")
        return "; ".join(bad) or None

    return Case(f"census/{key}", run, check)


def census_cases(seed: int) -> list[Case]:
    reference = load_census_reference()["cases"]
    return [census_case(key, text, reference) for key, text in census_inputs(seed)]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def preimage_of_origin(m) -> list[Fraction]:
    """q with m q = (0, 0, 1), by Cramer's rule, so F(m x) vanishes at q."""
    d = _det3(m)
    out = []
    for k in range(3):
        mk = [list(row) for row in m]
        for i in range(3):
            mk[i][k] = 1 if i == 2 else 0
        out.append(Fraction(_det3(mk), d))
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def classify_inputs(seed: int) -> list[tuple[str, str, list[str], int]]:
    """(name, curve text, point coordinates, expected s) for every case."""
    from oscurve.classifier import projective_ring

    ring = projective_ring()
    rng = random.Random(seed)
    out = []
    for name, text, s in CLASSIFY_FORMS:
        while True:
            m = [[rng.choice(MATRIX_ENTRIES) for _ in range(3)] for _ in range(3)]
            if _det3(m):
                break
        moved = ring.parse(text).linear_change(m)
        out.append((f"{name}-moved", str(moved), [str(c) for c in preimage_of_origin(m)], s))
    for k, bits in enumerate(NODE_BITS):
        p = random_prime(rng, bits)
        q = p
        while q == p:
            q = random_prime(rng, bits)
        out.append((f"node-{bits}bit-{k}", NODE_FORM.format(D=p * q), ["0", "0", "1"], 1))
    return out


def verified_classification(text: str, point: list[str]):
    """classify_double_point, then the truncated local-algebra oracle on each
    finite witness, lifted to the witness field as `oscurve classify --verify`
    does.  Returns (verdict, oracle contact orders)."""
    oscurve = sys.modules["oscurve"]
    from oscurve.classifier import projective_ring

    F = projective_ring().parse(text)
    verdict, _ = oscurve.classify_double_point(F, [Fraction(c) for c in point])
    oracle = []
    if verdict.kind == "double_point" and verdict.witnesses:
        f = verdict.normalized.affine
        if verdict.witness_field != f.ring.field:
            f = f.map_coefficients(
                verdict.witness_field.coerce, oscurve.PolyRing(("x", "y"), verdict.witness_field)
            )
        for w, m in zip(verdict.witnesses, verdict.witness_multiplicities):
            if m != oscurve.INF:
                oracle.append(oscurve.truncated_local_multiplicity(f, w.implicit_poly(f.ring)).value)
    return verdict, oracle


def classify_case(name: str, text: str, point: list[str], s: int) -> Case:
    def run():
        return verified_classification(text, point)

    def check(output):
        if isinstance(output, Refusal):
            return f"refused ({output.kind}: {output.message})"
        verdict, oracle = output
        if verdict.kind != "double_point" or verdict.s != s:
            return f"verdict {verdict.label}, expected A{s}"
        finite = [m for m in verdict.witness_multiplicities or () if m != sys.modules["oscurve"].INF]
        if oracle != finite:
            return f"oracle contact orders {oracle} != witness orders {finite}"
        return None

    return Case(f"classify/{name}", run, check)


def classify_cases(seed: int) -> list[Case]:
    return [classify_case(*args) for args in classify_inputs(seed)]


# ---------------------------------------------------------------------------
# golden
# ---------------------------------------------------------------------------


def load_golden_reference() -> dict:
    return json.loads((BENCH_DIR / "golden_reference.json").read_text())


def canonical(artifacts: dict) -> str:
    return json.dumps(artifacts, sort_keys=True, default=str)


def golden_case(name: str, frozen: str | None) -> Case:
    """A repro case must pass its own expectations and reproduce, bit for bit,
    the artifacts frozen in golden_reference.json."""

    def run():
        from oscurve.repro import run_repro_case

        return run_repro_case(name)

    def check(output):
        if isinstance(output, Refusal):
            return f"refused ({output.kind}: {output.message})"
        passed, artifacts, _, bad = output
        if not passed:
            return f"mismatched keys {bad}"
        if canonical(artifacts) != frozen:
            return "artifacts differ from the frozen reference"
        return None

    return Case(f"golden/{name}", run, check)


def golden_cases() -> list[Case]:
    from oscurve.repro import repro_manifest

    frozen = load_golden_reference()["cases"]
    return [golden_case(c.name, frozen.get(c.name)) for c in repro_manifest()]
