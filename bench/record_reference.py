"""Record the references the benchmark checks outputs against.

    python3 bench/record_reference.py [--limit SECONDS]

From the root of a checkout.  Writes bench/golden_reference.json (the
artifacts of every `oscurve repro` case) and fills in bench/census_reference.json
with the outcome of every census pool member and height case that has no
entry yet.  Existing census entries are kept, so entries recorded by other
means (a case that does not finish here) survive a re-run.  A case past
`--limit` is left unrecorded and reported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import cases
import run


def census_outcome(text: str, limit: float):
    """The census or Refusal for one parameterization; None past the limit."""
    oscurve = sys.modules["oscurve"]
    seen = []
    case = cases.Case(
        "record",
        lambda: oscurve.classify_curve_singularities(oscurve.PlaneParameterization.parse(text)),
        seen.append,
    )
    outcome = cases.execute(case, limit)
    if outcome.status == "error":
        raise RuntimeError(f"census failed inside the program: {outcome.detail}")
    return seen[0] if seen else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--limit", type=float, default=600.0)
    args = parser.parse_args(argv)
    oscurve = run.import_program()
    from oscurve.repro import repro_manifest, run_repro_case

    golden = {}
    for c in repro_manifest():
        passed, artifacts, _, bad = run_repro_case(c.name)
        if not passed:
            raise RuntimeError(f"repro case {c.name} fails: {bad}")
        golden[c.name] = cases.canonical(artifacts)
    path = cases.BENCH_DIR / "golden_reference.json"
    path.write_text(json.dumps({"cases": golden}, indent=1, sort_keys=True) + "\n")

    path = cases.BENCH_DIR / "census_reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {"cases": {}}
    todo = []
    for n, centers in cases.census_pool().items():
        for i, rows in enumerate(centers):
            try:
                param = oscurve.parameterization_from_center(n, cases.center_forms(n, rows))
            except oscurve.OscurveError as exc:
                reference["cases"][f"n{n}#{i}"] = {"generator_refused": type(exc).__name__}
                continue
            todo.append((f"n{n}#{i}", "; ".join(str(f) for f in param.forms)))
    todo += [(f"a{a}", cases.height_param(a)) for a in cases.HEIGHTS]
    for key, text in todo:
        if key in reference["cases"]:
            continue
        start = time.perf_counter()
        out = census_outcome(text, args.limit)
        if out is None:
            print(f"{key}: past {args.limit} s, not recorded", flush=True)
            continue
        entry = {"param": text}
        if isinstance(out, cases.Refusal):
            entry["refused"] = out.kind
        else:
            entry.update(cases.census_summary(out))
        reference["cases"][key] = entry
        print(f"{key}: {time.perf_counter() - start:.2f} s  {entry}", flush=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
