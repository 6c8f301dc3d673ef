"""Command-line surface.

Subcommands mirror the library: `classify` runs the double-point classifier
on a homogeneous curve, `implicitize` and `analyze-param` work from a binary
parameterization, `project` pushes a finite scheme through a plane
projection, and `gb`/`hilbert`/`eliminate`/`saturate`/`radical` operate on
ideals written in a small text format (`ring: QQ[a,b,c]` header, one
polynomial per line).  `repro` replays the built-in golden reference cases.

Exit codes: 0 success, 1 mathematical refusal (a curve non-reduced at the
point, a `classify --cap` below the Milnor bound that runs out, improper
parameterization, center meeting the scheme, ...), 2 malformed input (a
`ParseError`, raised where user text is read) or an unreadable file,
3 internal error (a failed self-check or any other exception: a bug).
All output is deterministic; `--json` emits exactly one document.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction

from .census import classify_curve_singularities
from .classifier import classify_double_point, projective_ring
from .errors import InvariantViolation, OscurveError, ParseError
from .groebner import (
    Ideal,
    TermOrder,
    eliminate,
    hilbert_function,
    saturate,
    zero_dim_radical,
)
from .qfields import QQ
from .rational_curves import (
    PlaneParameterization,
    ambient_ring,
    implicitize,
    project_scheme,
)
from .repro import repro_manifest, run_all_repro_cases, run_repro_case
from .rings import INF, PolyRing

# ---------------------------------------------------------------------------
# ideal text format
# ---------------------------------------------------------------------------


def parse_ring_header(line: str) -> PolyRing:
    line = line.strip()
    if not line.lower().startswith("ring:"):
        raise ParseError("ideal text must start with a 'ring: QQ[...]' header")
    body = line[5:].strip()
    if not body.startswith("QQ[") or not body.endswith("]"):
        raise ParseError(f"unsupported ring declaration {body!r}; expected QQ[v1,v2,...]")
    names = _split_names(body[3:-1])
    if not names:
        raise ParseError("ring declaration lists no variables")
    return _input_error(PolyRing, names)


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _input_error(build, *args):
    """build(*args) on names read from the user: the ValueError that a bad,
    repeated, missing or unknown variable name raises is an input error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def read_ideal_text(text: str) -> Ideal:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty ideal text")
    ring = parse_ring_header(lines[0])
    return Ideal(ring, [ring.parse(ln) for ln in lines[1:]])


def format_ideal(ideal: Ideal) -> str:
    head = f"ring: QQ[{','.join(ideal.ring.variables)}]"
    return "\n".join([head] + [str(g) for g in ideal.gens])


def _load_ideal(path: str) -> Ideal:
    if path == "-":
        return read_ideal_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return read_ideal_text(fh.read())


# ---------------------------------------------------------------------------
# json encoding of exact values
# ---------------------------------------------------------------------------


def _scalar_json(v):
    if v == INF:
        return "inf"
    if isinstance(v, (int,)):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return str(v)


def _mult_json(v):
    if v == INF:
        return "inf"
    return int(v)


def verdict_json(verdict, trace) -> dict:
    doc = {
        "kind": verdict.kind,
        "multiplicity": verdict.multiplicity,
        "s": verdict.s,
        "label": verdict.label,
        "stopped_at_step": verdict.stopped_at_step,
        "tangent": str(verdict.tangent) if verdict.tangent is not None else None,
        "tangent_original": str(verdict.tangent_original)
        if verdict.tangent_original is not None
        else None,
    }
    if verdict.kind == "double_point":
        if verdict.witnesses is not None:
            field = verdict.witness_field
            fdesc = {"base": "QQ"} if field == QQ else {"quadext": field.d}
            doc["witnesses"] = [
                {"coeffs": [_scalar_json(c) for c in w.coefficients], "field": fdesc}
                for w in verdict.witnesses
            ]
            doc["witness_multiplicities"] = [
                _mult_json(v) for v in verdict.witness_multiplicities
            ]
            if verdict.separation is not None:
                doc["separation"] = _mult_json(verdict.separation)
            doc["witnesses_original"] = [str(p) for p in verdict.witnesses_original]
        doc["quadratic_at_stop"] = [_scalar_json(c) for c in verdict.quadratic_at_stop]
        doc["extension_unsupported"] = verdict.extension_unsupported
    doc["trace"] = [
        {
            "r": s.r,
            "quad": [_scalar_json(c) for c in s.quad],
            "delta": _scalar_json(s.delta),
            "branch": s.branch,
            "lam": _scalar_json(s.lam) if s.lam is not None else None,
            "i": _mult_json(s.multiplicity) if s.multiplicity is not None else None,
        }
        for s in trace
    ]
    return doc


def census_json(census) -> dict:
    points = []
    for site in census.sites:
        entry = {"delta": site.delta, "cusp": site.cusp_count > 0}
        if site.kind == "point":
            entry["coords"] = [_scalar_json(c) for c in site.coords]
            if site.image_point is not None:
                entry["image_point"] = [_scalar_json(c) for c in site.image_point]
        else:
            entry["cluster_eliminant"] = str(site.eliminant)
            entry["cluster_size"] = site.size
        if site.label:
            entry["s"] = int(site.label[1:])
            entry["label"] = site.label
        points.append(entry)
    return {
        "n": census.n,
        "x2_length": census.total_length,
        "cusp_length": census.cusp_intersection_length,
        "points": points,
    }


def _emit(doc, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _parse_point(text: str) -> list[Fraction]:
    point = []
    for v in text.split(","):
        try:
            point.append(Fraction(v.strip()))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad point coordinate {v.strip()!r}") from None
    if len(point) != 3:
        raise ParseError("the point needs three comma-separated coordinates")
    return point


def _cmd_classify(ns) -> int:
    ring = projective_ring()
    F = ring.parse(ns.curve)
    point = _parse_point(ns.point)
    if ns.cap is not None and ns.cap < 1:
        raise ParseError(f"--cap must be a positive step count, not {ns.cap}")
    verdict, trace = classify_double_point(F, point, cap=ns.cap)
    doc = verdict_json(verdict, trace)
    oracle_line = None
    if getattr(ns, "verify", False) and verdict.kind == "double_point" and verdict.witnesses:
        from .intersection import truncated_local_multiplicity

        wfield = verdict.witness_field
        f = verdict.normalized.affine
        if wfield != f.ring.field:
            f = f.restrict(PolyRing(f.ring.variables, wfield))
        agree = True
        for w, m in zip(verdict.witnesses, verdict.witness_multiplicities):
            if m == INF:
                continue
            check = truncated_local_multiplicity(f, w.implicit_poly(f.ring))
            agree = agree and check.value == m
        doc["oracle_agrees"] = agree
        oracle_line = (
            "independent local-multiplicity oracle agrees with every witness contact order"
            if agree
            else "ORACLE DISAGREEMENT: witness contact orders are inconsistent"
        )
        if not agree:
            raise InvariantViolation(oracle_line)
    lines = [f"verdict: {verdict.label}"]
    if verdict.tangent is not None:
        lines.append(f"tangent (normalized chart): {verdict.tangent} = 0")
    if verdict.kind == "double_point":
        lines.append(f"stopped at step {verdict.stopped_at_step}")
        if verdict.witnesses is not None:
            for w, m in zip(verdict.witnesses, verdict.witness_multiplicities):
                lines.append(f"witness {w}   contact order {m}")
            if verdict.separation is not None:
                lines.append(f"witness separation order: {verdict.separation}")
        else:
            a, b, c = verdict.quadratic_at_stop
            lines.append(
                "witnesses live outside a single quadratic extension; "
                f"step quadratic: ({a})*l^2 + ({b})*l + ({c}) = 0"
            )
    if ns.trace:
        for s in trace:
            lines.append(
                f"  step {s.r}: quad={tuple(str(q) for q in s.quad)} "
                f"delta={s.delta} branch={s.branch} lam={s.lam} i={s.multiplicity}"
            )
    if oracle_line:
        lines.append(oracle_line)
    _emit(doc, ns.json, lines)
    return 0


def _cmd_implicitize(ns) -> int:
    param = PlaneParameterization.parse(ns.param)
    result = implicitize(param)
    doc = {
        "degree": result.poly.degree(),
        "map_degree": result.map_degree,
        "minimal_certified": result.minimal_certified,
        "polynomial": str(result.poly),
        "variables": list(result.poly.ring.variables),
    }
    _emit(
        doc,
        ns.json,
        [
            f"implicit equation: {result.poly}",
            f"degree {result.poly.degree()}, map degree {result.map_degree}",
        ],
    )
    return 0


def _cmd_analyze_param(ns) -> int:
    param = PlaneParameterization.parse(ns.param)
    if ns.classify:
        census = classify_curve_singularities(param)
    else:
        from .census import double_point_census

        census = double_point_census(param)
    doc = census_json(census)
    lines = [
        f"degree {census.n} curve; double-point scheme length {census.total_length}",
        f"support: {census.point_count()} points; "
        f"cusp-conic intersection length {census.cusp_intersection_length}",
    ]
    lines += ["  " + site.describe() for site in census.sites]
    _emit(doc, ns.json, lines)
    return 0


def _cmd_project(ns) -> int:
    names = _split_names(ns.names) if ns.names else None
    amb = _input_error(ambient_ring, ns.n, names)
    targets = _split_names(ns.targets)
    if len(targets) != 3:
        raise ParseError("--targets needs three comma-separated names")
    _input_error(PolyRing, amb.variables + targets)  # targets apart from the ambient names
    center = [amb.parse(p) for p in ns.center.split(";") if p.strip()]
    scheme = _load_ideal(ns.scheme)
    if scheme.ring != amb:
        scheme = Ideal(amb, [_input_error(g.restrict, amb) for g in scheme.gens])
    image = project_scheme(scheme, center, targets=targets)
    doc = {"image_ideal": [str(g) for g in image.groebner_basis().polys]}
    _emit(doc, ns.json, [format_ideal(Ideal(image.ring, image.groebner_basis().polys))])
    return 0


def _order_from_flag(text: str) -> TermOrder:
    if text == "grevlex":
        return TermOrder.grevlex()
    if text == "lex":
        return TermOrder.lex()
    raise ParseError(f"unknown order {text!r}")


def _cmd_gb(ns) -> int:
    ideal = _load_ideal(ns.ideal)
    gb = ideal.groebner_basis(_order_from_flag(ns.order))
    doc = {"order": ns.order, "basis": [str(p) for p in gb.polys]}
    _emit(doc, ns.json, [str(p) for p in gb.polys])
    return 0


def _cmd_hilbert(ns) -> int:
    if ns.upto is not None and ns.upto < 0:
        raise ParseError(f"--upto must be a nonnegative degree, not {ns.upto}")
    ideal = _load_ideal(ns.ideal)
    hd = hilbert_function(ideal, upto=ns.upto)
    doc = {
        "values": list(hd.values),
        "stable_value": hd.stable_value,
        "stable_from": hd.stable_from,
    }
    lines = [f"H({t}) = {v}" for t, v in enumerate(hd.values)]
    if hd.stable_value is not None:
        lines.append(f"H(t) = {hd.stable_value} for t >= {hd.stable_from}")
    _emit(doc, ns.json, lines)
    return 0


def _cmd_eliminate(ns) -> int:
    ideal = _load_ideal(ns.ideal)
    drop = _split_names(ns.drop)
    unknown = [v for v in drop if v not in ideal.ring.variables]
    if unknown:
        raise ParseError(f"{unknown[0]!r} is not a variable of {ideal.ring}")
    small = eliminate(ideal, drop)
    doc = {"ideal": [str(g) for g in small.gens], "variables": list(small.ring.variables)}
    _emit(doc, ns.json, [format_ideal(small)])
    return 0


def _cmd_saturate(ns) -> int:
    ideal = _load_ideal(ns.ideal)
    texts = [p for p in ns.by.split(";") if p.strip()]
    if not texts:
        raise ParseError("--by lists no generators")
    by = Ideal(ideal.ring, [ideal.ring.parse(p) for p in texts])
    result = saturate(ideal, by)
    gb = result.groebner_basis()
    doc = {"ideal": [str(p) for p in gb.polys]}
    _emit(doc, ns.json, [format_ideal(Ideal(result.ring, gb.polys))])
    return 0


def _cmd_radical(ns) -> int:
    ideal = _load_ideal(ns.ideal)
    rad = zero_dim_radical(ideal)
    gb = rad.groebner_basis()
    doc = {"ideal": [str(p) for p in gb.polys]}
    _emit(doc, ns.json, [format_ideal(Ideal(rad.ring, gb.polys))])
    return 0


def _cmd_repro(ns) -> int:
    if ns.list:
        for case in repro_manifest():
            print(f"{case.name}: {case.description}")
        return 0
    if ns.case not in (None, "all") and ns.case not in {c.name for c in repro_manifest()}:
        raise ParseError(f"unknown reference case {ns.case!r}; see 'oscurve repro --list'")
    if ns.case is None or ns.case == "all":
        results = run_all_repro_cases()
        doc = [{"case": n, "passed": ok, "mismatches": bad} for n, ok, bad in results]
        if ns.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for n, ok, bad in results:
                print(f"{'PASS' if ok else 'FAIL'}  {n}" + (f"  ({', '.join(bad)})" if bad else ""))
        return 0 if all(ok for _, ok, _ in results) else 1
    passed, artifacts, expected, bad = run_repro_case(ns.case)
    if ns.json:
        print(
            json.dumps(
                {"case": ns.case, "passed": passed, "artifacts": artifacts, "mismatches": bad},
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
    else:
        for k in sorted(artifacts):
            marker = "" if artifacts.get(k) == expected.get(k) else "  << expected " + repr(expected.get(k))
            print(f"{k}: {artifacts[k]!r}{marker}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="oscurve",
        description="Exact classification of plane curve double points and "
        "analysis of rational plane curves.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a point of a homogeneous plane curve")
    p.add_argument("--curve", required=True, help="homogeneous polynomial in x0, x1, x2")
    p.add_argument("--point", required=True, help="projective point 'a,b,c'")
    p.add_argument("--cap", type=int, default=None, help="step cap (default: Milnor bound; lower may run out)")
    p.add_argument("--trace", action="store_true")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-check witness contact orders with the truncated local-algebra oracle",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("implicitize", help="implicit equation of a parameterized curve")
    p.add_argument("--param", required=True, help="'f0; f1; f2' in s, t")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_implicitize)

    p = sub.add_parser("analyze-param", help="singularity census from a parameterization")
    p.add_argument("--param", required=True, help="'f0; f1; f2' in s, t")
    p.add_argument("--classify", action="store_true", help="attach A_s labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze_param)

    p = sub.add_parser("project", help="project a finite scheme to the plane")
    p.add_argument("--n", type=int, required=True, help="ambient curve degree")
    p.add_argument("--center", required=True, help="three linear forms 'l0;l1;l2'")
    p.add_argument("--scheme", required=True, help="ideal file ('-' for stdin)")
    p.add_argument("--names", default=None, help="ambient variable names 'a,b,...'")
    p.add_argument("--targets", default="u,v,w", help="image coordinate names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--order", default="grevlex", choices=["grevlex", "lex"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_gb)

    p = sub.add_parser("hilbert", help="Hilbert function of a homogeneous ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--upto", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("eliminate", help="eliminate variables from an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--drop", required=True, help="comma-separated variables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("saturate", help="saturate an ideal by another")
    p.add_argument("--ideal", required=True)
    p.add_argument("--by", required=True, help="semicolon-separated generators")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("radical", help="radical of a finite scheme in the plane")
    p.add_argument("--ideal", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_radical)

    p = sub.add_parser("repro", help="run the golden reference cases")
    p.add_argument("case", nargs="?", default=None, help="case name or 'all'")
    p.add_argument("--list", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_repro)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OscurveError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # the last boundary: any other exception is a bug, reported with its traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
