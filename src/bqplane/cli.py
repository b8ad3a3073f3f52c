"""Command-line driver: parse the input language, run the verification
and decomposition pipelines, emit deterministic reports.

Exit codes: 0 every verdict passed, 1 a pipeline verdict failed, 2 the
input could not be parsed or violates a precondition.  Reports are
byte-identical across runs for the same inputs and --seed; wall-clock
timing is only added under --timing so the default output stays diffable.

In --format json each line is one JSON object with a "record" field
naming its kind; the final record is always {"record": "verdict", ...}.
The text format carries the same information as a human summary.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from .chains import (
    STEP_BUDGET,
    ChainReport,
    build_lemma3_chain,
    build_real_chain,
    verify_chain,
)
from .errors import (
    BQError,
    FieldMismatch,
    InvalidField,
    NoImaginaryPresentation,
    NoImaginaryUnit,
    ParseError,
)
from .fields import (
    LevelConjugation,
    PrimeField,
    Q,
    imaginary_unit,
    is_f_of_i,
    is_real_tower,
    sample_domain,
    tower_levels,
)
from .geometry import Point, phi, point, verify_transform_identities
from .maps import (
    MapTable,
    SemiAffineMap,
    enumerate_orthogonal_group,
    identity_map,
    map_from_expression,
    preserves_unit_distance,
)
from .decompose import decompose, decompose_lorentz, search_unit_preservers
from .parsing import (
    format_element,
    format_point,
    format_table_lines,
    parse_field,
    parse_map,
    parse_point,
    parse_table_lines,
)

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 200
# Largest p a command that scans all of GF(p)^2 accepts: search-preservers
# builds unit-neighbour masks of p^4 bits in all, its heap-ordered static
# order and p - 1 rotation tables before the first node is visited (about
# 0.35 s at p = 61 on a 2-core Xeon), and the identity scan,
# the decompositions and the orthogonal census grow with p too, so the
# bound keeps every such command bounded and cheap to start.
MAX_SEARCH_P = 61


@dataclass
class RunReport:
    command: str
    records: list[dict] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    ok: bool = True

    def add(self, rec: dict, *lines: str) -> None:
        self.records.append(rec)
        self.lines.extend(lines)


# ------------------------------------------------------------- commands
#
# A _prep_* function also checks the field shape its command needs, so a
# wrong field exits 2; refusals that depend on the point stay verdicts.

def _check_scan_size(p: int) -> None:
    if p > MAX_SEARCH_P:
        raise InvalidField(
            f"an exhaustive scan needs p <= {MAX_SEARCH_P}, got {p}")


def _prep_verify_identities(args):
    k = parse_field(args.field)
    if args.samples is None and isinstance(k, PrimeField):
        _check_scan_size(k.p)
        mode, samples = "exhaustive", 0
    else:
        mode = "samples"
        samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    if imaginary_unit(k) is None:
        raise NoImaginaryUnit(f"{k} has no canonical i with i*i = -1")
    return k, mode, samples


def _run_verify_identities(args, prepared) -> RunReport:
    k, mode, samples = prepared
    rep = RunReport("verify-identities")
    result = verify_transform_identities(k, mode, samples=samples, seed=args.seed)
    rep.add({"record": "run", "command": rep.command, "field": str(k),
             "mode": result.mode},
            f"verify-identities over {k}, {result.mode}")
    for c in result.checks:
        status = "ok" if c.ok else f"{len(c.witnesses)} violations"
        rep.add({"record": "identity_check", "name": c.name,
                 "checked": c.checked, "violations": c.witnesses},
                f"  {c.name}: {c.checked} checked, {status}")
    rep.ok = result.ok
    return rep


def _prep_chain(args):
    k = parse_field(args.field)
    real = k.base if is_f_of_i(k) else k  # drops a top [i]
    if args.mode == "rational" and real != Q:
        raise FieldMismatch(f"rational chains need the field Q or Q[i], not {k}")
    if args.mode == "auto" and not is_real_tower(real):
        raise FieldMismatch(f"{real} is not a real tower")
    s = parse_point(args.src, k)
    t = parse_point(args.dst, k)
    mode = {"rational": "rational_only", "auto": "auto_extend"}[args.mode]
    return k, s, t, mode


def _run_chain(args, prepared) -> RunReport:
    k, s, t, mode = prepared
    rep = RunReport("chain")
    chain = build_real_chain(s, t, mode=mode, budget=args.budget)
    verdict = verify_chain(chain)
    field_text, src, dst = str(k), format_point(s), format_point(t)
    rep.add({"record": "run", "command": rep.command, "field": field_text,
             "from": src, "to": dst, "mode": args.mode},
            f"chain {src} -> {dst} over {field_text}, mode {args.mode}")
    chain_field = str(chain.field)
    rep.add({"record": "chain", "field": chain_field,
             "points": [format_point(p) for p in chain.points],
             "edge_bound": chain.reported_edge_bound},
            f"  {len(chain.points)} points, {len(chain.points) - 1} edges"
            f" (reported bound {chain.reported_edge_bound})"
            f" in {chain_field}")
    bad = [e for e in verdict.edges if not e.phi_ok]
    rep.add({"record": "chain_verify", "ok": verdict.ok,
             "edges": [{"index": e.index, "phi": str(e.phi_value),
                        "phi_ok": e.phi_ok} for e in verdict.edges]},
            "  every edge phi = 1" if verdict.ok
            else f"  {len(bad)} edges with phi != 1")
    rep.ok = verdict.ok
    return rep


def _prep_lemma3(args):
    k = parse_field(args.field)
    if not is_f_of_i(k):
        raise NoImaginaryPresentation(f"{k} must be presented as F(i)")
    return k, parse_point(args.point, k)


def _run_lemma3(args, prepared) -> RunReport:
    k, x = prepared
    rep = RunReport("lemma3-chain")
    chain, certs = build_lemma3_chain(x, budget=args.budget)
    verdict = ChainReport(certs, require_psi=True)
    field_text, src = str(k), format_point(x)
    rep.add({"record": "run", "command": rep.command, "field": field_text,
             "point": src},
            f"lemma3-chain from {src} over {field_text}")
    chain_field = str(chain.field)
    points = [format_point(p) for p in chain.points]
    rep.add({"record": "chain", "field": chain_field, "points": points,
             "edge_bound": chain.reported_edge_bound},
            f"  {len(points)} points ending at {points[-1]} in {chain_field}")
    psi = [format_element(c.psi_value) for c in certs]
    rep.add({"record": "psi_certificates", "values": psi},
            "  psi per edge: " + ", ".join(psi))
    rep.add({"record": "chain_verify", "ok": verdict.ok,
             "edges": [{"index": e.index, "phi": str(e.phi_value),
                        "phi_ok": e.phi_ok, "psi": text,
                        "psi_ok": e.psi_ok} for e, text in zip(verdict.edges, psi)]},
            "  every edge phi = 1 with psi != 0" if verdict.ok
            else "  chain verification failed")
    rep.ok = verdict.ok
    return rep


def _prep_decompose(args):
    k = parse_field(args.field)
    if isinstance(k, PrimeField):
        _check_scan_size(k.p)
    if args.command == "decompose-lorentz" and imaginary_unit(k) is None:
        raise NoImaginaryUnit(f"{k} has no i; the Lorentz route needs one")
    if args.map is not None:
        f = map_from_expression(parse_map(args.map, k), k)
        source = {"map": args.map}
    else:
        try:
            with open(args.table, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.table}: not UTF-8 text ({exc.reason} at byte {exc.start})")
        f = MapTable(k, parse_table_lines(text, k))
        source = {"table": args.table}
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    return k, f, source, sample_domain(samples, args.seed)


def _run_decompose(args, prepared) -> RunReport:
    k, f, source, domain = prepared
    rep = RunReport(args.command)
    result = (decompose if args.command == "decompose" else decompose_lorentz)(f, k, domain)
    rec = result.to_record()
    rep.add({"record": "run", "command": rep.command, "field": str(k), **source},
            f"{rep.command} over {k}")
    q = rec["normalizer_matrix"]
    rep.add({"record": "decomposition", **rec},
            f"  route: {rec['route']}",
            f"  normalizer matrix: [[{q[0][0]}, {q[0][1]}],"
            f" [{q[1][0]}, {q[1][1]}]]",
            f"  normalizer translation: ({rec['normalizer_translation'][0]},"
            f" {rec['normalizer_translation'][1]})",
            f"  gamma: {rec['gamma']}",
            f"  branch: {rec['branch']}",
            f"  verified on: {rec['verified_on']}")
    return rep


def _prep_enumerate_ortho(args):
    k = parse_field(args.field)
    if not isinstance(k, PrimeField):
        raise InvalidField(f"orthogonal group enumeration needs GF(p), got {k}")
    _check_scan_size(k.p)
    return k


def _run_enumerate_ortho(args, k) -> RunReport:
    rep = RunReport("enumerate-ortho")
    mats = enumerate_orthogonal_group(k)
    rep.add({"record": "run", "command": rep.command, "field": str(k)},
            f"enumerate-ortho over {k}: {len(mats)} matrices")
    for idx, q in enumerate(mats):
        entries = [[str(q.q11), str(q.q12)], [str(q.q21), str(q.q22)]]
        rep.add({"record": "orthogonal_matrix", "index": idx,
                 "matrix": entries},
                f"  [{idx}] [[{entries[0][0]}, {entries[0][1]}],"
                f" [{entries[1][0]}, {entries[1][1]}]]")
    rep.add({"record": "census", "count": len(mats)},
            f"  total: {len(mats)}")
    return rep


def _prep_search(args):
    _check_scan_size(args.p)
    return PrimeField(args.p)


def _run_search(args, k) -> RunReport:
    rep = RunReport("search-preservers")
    census = search_unit_preservers(k.p, budget=args.budget)
    rep.add({"record": "run", "command": rep.command, "p": k.p,
             "budget": args.budget},
            f"search-preservers p={k.p}"
            + (f" budget={args.budget}" if args.budget is not None else ""))
    rep.add({"record": "census", "p": census.p, "found": census.total_found,
             "expected": census.expected, "complete": census.complete,
             "nodes": census.nodes, "anomaly_count": len(census.anomalies)},
            f"  found {census.total_found} of {census.expected} expected,"
            f" {'complete' if census.complete else 'budget-limited'},"
            f" {census.nodes} nodes, {len(census.anomalies)} anomalies")
    for a in census.anomalies:
        rep.add({"record": "anomaly", "reason": a.reason,
                 "table": format_table_lines(a.table).splitlines()},
                f"  ANOMALY: {a.reason}")
    rep.ok = census.ok
    return rep


def _run_witness(args, _prepared) -> RunReport:
    rep = RunReport("witness-nonisometry")
    k = parse_field("Q[sqrt 2][i]")
    level = tower_levels(k)[0].level
    f = SemiAffineMap(identity_map(k), LevelConjugation(level))
    pres = preserves_unit_distance(f, k, sample_domain(args.samples, args.seed))
    r = k(tower_levels(k)[0].radical)
    i = imaginary_unit(k)
    x = point(k, 0, 0)
    y = Point((r + k.one) / 2, i * (r - k.one) / 2)
    before = phi(x, y)
    after = phi(f(x), f(y))
    rep.add({"record": "run", "command": rep.command, "field": str(k),
             "gamma": str(f.gamma)},
            f"witness-nonisometry over {k}, gamma = {f.gamma}")
    rep.add({"record": "preservation", "property": "unit_distance",
             "checked": pres.checked, "ok": pres.ok,
             "witnesses": pres.witnesses},
            f"  unit pairs preserved: {pres.checked - len(pres.witnesses)}"
            f"/{pres.checked}")
    rep.add({"record": "witness", "X": format_point(x), "Y": format_point(y),
             "phi": format_element(before), "phi_image": format_element(after)},
            f"  X = {format_point(x)}, Y = {format_point(y)}",
            f"  phi(X, Y) = {format_element(before)}"
            f" but phi(f X, f Y) = {format_element(after)}")
    rep.ok = pres.ok and before == r and after == -r and before != after
    rep.lines.append("  unit-preserving yet not an isometry"
                     if rep.ok else "  demonstration failed")
    return rep


# -------------------------------------------------------------- plumbing

def _int_at_least(low: int):
    """argparse type for an integer option with a lower bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


@functools.cache  # parsing leaves the parser as built
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for sampled verification (default {DEFAULT_SEED})")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="human summary or line-delimited JSON records")
    common.add_argument("--timing", action="store_true",
                        help="append wall-clock timing (breaks byte-stable output)")

    parser = argparse.ArgumentParser(
        prog="bq",
        description="exact verification toolkit for unit-distance-preserving maps")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-identities", parents=[common],
                        help="certify the xi/eta form identities on k^2")
    sp.add_argument("--field", required=True)
    sp.add_argument("--samples", type=_int_at_least(1))
    sp.set_defaults(prepare=_prep_verify_identities, run=_run_verify_identities)

    sp = sub.add_parser("chain", parents=[common],
                        help="connect two real points by exact unit steps")
    sp.add_argument("--from", dest="src", required=True, metavar="POINT")
    sp.add_argument("--to", dest="dst", required=True, metavar="POINT")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--mode", choices=("rational", "auto"), default="auto")
    sp.add_argument("--budget", type=_int_at_least(0), default=STEP_BUDGET,
                    help="most unit steps the chain may take")
    sp.set_defaults(prepare=_prep_chain, run=_run_chain)

    sp = sub.add_parser("lemma3-chain", parents=[common],
                        help="chain to (i, i) with nonzero psi on every edge")
    sp.add_argument("--point", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--budget", type=_int_at_least(0), default=STEP_BUDGET,
                    help="most unit steps the real walk inside the chain may take")
    sp.set_defaults(prepare=_prep_lemma3, run=_run_lemma3)

    for name, route in (("decompose", "frame"), ("decompose-lorentz", "Lorentz")):
        sp = sub.add_parser(name, parents=[common],
                            help=f"split a map into isometry and homomorphism ({route} route)")
        sp.add_argument("--field", required=True)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--map", help="map expression, e.g. 'translate(2,3) . rot(0,1)'")
        src.add_argument("--table", help="file of 'x1,x2 -> y1,y2' lines")
        sp.add_argument("--samples", type=_int_at_least(1))
        sp.set_defaults(prepare=_prep_decompose, run=_run_decompose)

    sp = sub.add_parser("enumerate-ortho", parents=[common],
                        help="deterministic census of the orthogonal group over GF(p)")
    sp.add_argument("--field", required=True)
    sp.set_defaults(prepare=_prep_enumerate_ortho, run=_run_enumerate_ortho)

    sp = sub.add_parser("search-preservers", parents=[common],
                        help="backtracking census of all unit-distance preservers of GF(p)^2")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--budget", type=_int_at_least(0), default=None,
                    help="node limit; omitted means run to completion")
    sp.set_defaults(prepare=_prep_search, run=_run_search)

    sp = sub.add_parser("witness-nonisometry", parents=[common],
                        help="the end-to-end non-isometric unit-preserver demonstration")
    sp.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES)
    sp.set_defaults(prepare=lambda args: None, run=_run_witness)

    return parser


def _emit(rep: RunReport, fmt: str, elapsed: float | None) -> None:
    if fmt == "json":
        for rec in rep.records:
            print(json.dumps(rec, sort_keys=True))
        if elapsed is not None:
            print(json.dumps({"record": "timing", "seconds": round(elapsed, 3)},
                             sort_keys=True))
        print(json.dumps({"record": "verdict", "command": rep.command,
                          "ok": rep.ok}, sort_keys=True))
    else:
        for line in rep.lines:
            print(line)
        if elapsed is not None:
            print(f"elapsed: {elapsed:.3f}s")
        print("PASS" if rep.ok else "FAIL")


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        prepared = args.prepare(args)
    except (BQError, OSError) as exc:
        print(f"bq: error: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        rep = args.run(args, prepared)
    except BQError as exc:
        rep = RunReport(args.command, ok=False)
        rep.add({"record": "failure", "error": type(exc).__name__,
                 "detail": str(exc)},
                f"FAILURE {type(exc).__name__}: {exc}")
    elapsed = time.monotonic() - start if args.timing else None
    _emit(rep, args.format, elapsed)
    return 0 if rep.ok else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
