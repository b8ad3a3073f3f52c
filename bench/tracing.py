"""Traced replay of benchmark jobs through bqplane's public functions.

Each job is re-run the way ``bq`` runs it, but by calling the modules
directly (parsing -> maps/fields -> chains/geometry/decompose ->
parsing.format_*) with one span recorded around every call, so the
per-layer figures come from outside the program.  The replay's results
are compared with the records ``bq`` printed for the same job.

The kernel probe times single field operations at tower depths 0-6 on
operands taken from the workload's own printed outputs (falling back to
the committed corpus in operands.json for depths a workload never
reaches), and records their coefficient bit heights beside the times.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from bqplane.cli import DEFAULT_SEED
from bqplane.chains import build_lemma3_chain, build_real_chain, verify_chain
from bqplane.decompose import decompose, decompose_lorentz, search_unit_preservers
from bqplane.errors import BQError
from bqplane.fields import (
    FieldElement,
    LevelConjugation,
    PrimeField,
    coeff_vector,
    format_element,
    imaginary_unit,
    sqrt_in_field,
    tower_levels,
)
from bqplane.geometry import Point, all_points, phi, point, verify_transform_identities, xi
from bqplane.maps import (
    MapTable,
    SemiAffineMap,
    enumerate_orthogonal_group,
    identity_map,
    map_from_expression,
    preserves_unit_distance,
    sample_domain,
)
from bqplane.parsing import (
    format_point,
    parse_element,
    parse_field,
    parse_map,
    parse_point,
    parse_table_lines,
)

from checks import records_of
from jobs import Job

MAX_DEPTH = 6
PROBE_OPERANDS = 4
OPERANDS_FILE = Path(__file__).with_name("operands.json")


@dataclass
class Span:
    name: str
    job: str
    parent: str | None
    start_ns: int
    end_ns: int


@dataclass
class Tracer:
    """In-memory span and counter store for one replay pass."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    job: str = ""

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None = "cli.job"):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append(Span(name, self.job, parent, start, time.perf_counter_ns()))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# ------------------------------------------------------------- replay

def _opts(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)
            if argv[i].startswith("--")}


def _failure(exc: BQError) -> dict:
    return {"error": type(exc).__name__}


def _lemma3(tr: Tracer, o) -> dict:
    with tr.span("parsing.parse"):
        k = parse_field(o["--field"])
        x = parse_point(o["--point"], k)
    with tr.span("chains.build_lemma3"):
        chain, certs = build_lemma3_chain(x)
    with tr.span("chains.verify"):
        verdict = verify_chain(chain, require_psi=True)
    tr.count("chains.edges_verified", len(verdict.edges))
    tr.count("chains.chains")
    tr.count("chains.depth_sum", chain.field.depth)
    tr.counts["chains.depth_max"] = max(tr.counts.get("chains.depth_max", 0),
                                        chain.field.depth)
    with tr.span("parsing.format"):
        out = {"chain": {"field": str(chain.field),
                         "points": [format_point(p) for p in chain.points]},
               "psi": [format_element(c.psi_value) for c in certs]}
    out["ok"] = verdict.ok
    return out


def _chain(tr: Tracer, o) -> dict:
    with tr.span("parsing.parse"):
        k = parse_field(o.get("--field", "Q"))
        s, t = parse_point(o["--from"], k), parse_point(o["--to"], k)
    mode = {"rational": "rational_only", "auto": "auto_extend"}[o["--mode"]]
    try:
        with tr.span("chains.build_real"):
            chain = build_real_chain(s, t, mode=mode, budget=10_000)
    except BQError as exc:
        return _failure(exc)
    with tr.span("chains.verify"):
        verdict = verify_chain(chain)
    tr.count("chains.edges_verified", len(verdict.edges))
    with tr.span("parsing.format"):
        out = {"chain": {"field": str(chain.field),
                         "points": [format_point(p) for p in chain.points]}}
    out["ok"] = verdict.ok
    return out


def _decompose(tr: Tracer, o, route) -> dict:
    with tr.span("parsing.parse"):
        k = parse_field(o["--field"])
        if "--map" in o:
            expr = parse_map(o["--map"], k)
        else:
            with open(o["--table"], encoding="utf-8") as fh:
                images = parse_table_lines(fh.read(), k)
    finite = isinstance(k, PrimeField)
    if "--map" in o:
        with tr.span("maps.map_from_expression"):
            f = map_from_expression(expr, k)
    else:
        with tr.span("maps.map_table"):
            f = MapTable(k, images)
    name = ("decompose.frame" if route is decompose else "decompose.lorentz") \
        + (".gf" if finite else ".tower")
    try:
        with tr.span(name):
            if finite:
                result = route(f, k)
            else:
                # counting wrapper: over towers both routes only call the map
                def probed(x, _f=f):
                    tr.count("decompose.probes")
                    return _f(x)
                domain = sample_domain(int(o.get("--samples", 200)),
                                       int(o.get("--seed", DEFAULT_SEED)))
                result = route(probed, k, domain)
    except BQError as exc:
        return _failure(exc)
    with tr.span("parsing.format"):
        return {"decomposition": result.to_record()}


def _identities(tr: Tracer, o) -> dict:
    with tr.span("parsing.parse"):
        k = parse_field(o["--field"])
    if "--samples" in o:
        mode, samples = "samples", int(o["--samples"])
    else:
        mode, samples = "exhaustive", 0
    with tr.span("geometry.verify_identities"):
        result = verify_transform_identities(k, mode, samples=samples,
                                             seed=int(o.get("--seed", DEFAULT_SEED)))
    tr.count("geometry.identity_checks", sum(c.checked for c in result.checks))
    return {"checks": [(c.name, c.checked, c.ok) for c in result.checks]}


def _search(tr: Tracer, o) -> dict:
    with tr.span("decompose.search"):
        census = search_unit_preservers(int(o["--p"]), budget=int(o["--budget"]))
    tr.count("decompose.search_nodes", census.nodes)
    tr.count("decompose.search_found", census.total_found)
    tr.count("decompose.search_anomalies", len(census.anomalies))
    return {"census": (census.nodes, census.total_found, len(census.anomalies),
                       census.complete)}


def _ortho(tr: Tracer, o) -> dict:
    with tr.span("parsing.parse"):
        k = parse_field(o["--field"])
    with tr.span("maps.enumerate_orthogonal"):
        mats = enumerate_orthogonal_group(k)
    with tr.span("parsing.format"):
        return {"matrices": [[[str(q.q11), str(q.q12)], [str(q.q21), str(q.q22)]]
                             for q in mats]}


def _witness(tr: Tracer, o) -> dict:
    samples, seed = int(o["--samples"]), int(o["--seed"])
    with tr.span("parsing.parse"):
        k = parse_field("Q[sqrt 2][i]")
    level = tower_levels(k)[0]
    f = SemiAffineMap(identity_map(k), LevelConjugation(level.level))
    with tr.span("maps.preserves_unit_distance"):
        pres = preserves_unit_distance(f, k, sample_domain(samples, seed))
    tr.count("maps.unit_pairs_checked", pres.checked)
    r, i = k(level.radical), imaginary_unit(k)
    x, y = point(k, 0, 0), Point((r + k.one) / 2, i * (r - k.one) / 2)
    with tr.span("geometry.phi"):
        before, after = phi(x, y), phi(f(x), f(y))
    with tr.span("parsing.format"):
        return {"checked": pres.checked, "ok": pres.ok,
                "phi": (format_element(before), format_element(after))}


_REPLAY = {
    "lemma3-chain": _lemma3,
    "chain": _chain,
    "decompose": lambda tr, o: _decompose(tr, o, decompose),
    "decompose-lorentz": lambda tr, o: _decompose(tr, o, decompose_lorentz),
    "verify-identities": _identities,
    "search-preservers": _search,
    "enumerate-ortho": _ortho,
    "witness-nonisometry": _witness,
}


def replay(job: Job, tr: Tracer) -> dict:
    """Run one job through the modules under a root span "cli.job"."""
    tr.job = job.name
    with tr.span("cli.job", parent=None):
        return _REPLAY[job.command](tr, _opts(job.argv))


def cli_view(job: Job, stdout: str) -> dict:
    """The facts of a bq JSON output that the replay must reproduce."""
    recs = records_of(stdout)
    one = {r["record"]: r for r in recs}
    if "failure" in one:
        return {"error": one["failure"]["error"]}
    cmd = job.command
    if cmd == "lemma3-chain":
        return {"chain": {"field": one["chain"]["field"], "points": one["chain"]["points"]},
                "psi": one["psi_certificates"]["values"], "ok": one["chain_verify"]["ok"]}
    if cmd == "chain":
        return {"chain": {"field": one["chain"]["field"], "points": one["chain"]["points"]},
                "ok": one["chain_verify"]["ok"]}
    if cmd in ("decompose", "decompose-lorentz"):
        rec = dict(one["decomposition"])
        del rec["record"]
        return {"decomposition": rec}
    if cmd == "verify-identities":
        return {"checks": [(r["name"], r["checked"], not r["violations"])
                           for r in recs if r["record"] == "identity_check"]}
    if cmd == "search-preservers":
        c = one["census"]
        return {"census": (c["nodes"], c["found"], c["anomaly_count"], c["complete"])}
    if cmd == "enumerate-ortho":
        return {"matrices": [r["matrix"] for r in recs if r["record"] == "orthogonal_matrix"]}
    if cmd == "witness-nonisometry":
        return {"checked": one["preservation"]["checked"], "ok": one["preservation"]["ok"],
                "phi": (one["witness"]["phi"], one["witness"]["phi_image"])}
    raise ValueError(cmd)


# -------------------------------------------------------- kernel probe

def _output_elements(stdout: str) -> list[FieldElement]:
    """Tower elements printed by a job, parsed back into their field."""
    out = []
    for rec in records_of(stdout):
        kind = rec["record"]
        if kind == "chain":
            k = parse_field(rec["field"])
            for text in rec["points"]:
                p = parse_point(text, k)
                out += [p.x1, p.x2]
        elif kind == "decomposition" and "[" in rec["field"]:
            k = parse_field(rec["field"])
            texts = [e for row in rec["normalizer_matrix"] for e in row]
            texts += rec["normalizer_translation"]
            if "lorentz_scale" in rec:
                texts.append(rec["lorentz_scale"])
            out += [parse_element(t, k) for t in texts]
    return out


def _descend(elements) -> dict[int, list[FieldElement]]:
    """Every nonzero element of every depth reachable by splitting
    a + b*r into a and b, level by level."""
    by_depth: dict[int, dict] = {d: {} for d in range(MAX_DEPTH + 1)}
    todo = [e for e in elements if e]
    while todo:
        e = todo.pop()
        k = e.tower
        if k.depth > MAX_DEPTH or (k, e.rep) in by_depth[k.depth]:
            continue
        by_depth[k.depth][(k, e.rep)] = e
        if k.depth:
            todo += [s for s in (FieldElement(k.base, e.rep[0]),
                                 FieldElement(k.base, e.rep[1])) if s]
    return {d: list(v.values()) for d, v in by_depth.items()}


def coeff_bits(e: FieldElement) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in coeff_vector(e))


def _pick(pool: list[FieldElement]) -> list[FieldElement]:
    """The tallest operands (by coefficient bits, then text) at a depth,
    all from the field of the tallest one."""
    pool = sorted(pool, key=lambda e: (-coeff_bits(e), str(e)))
    return [e for e in pool if e.tower == pool[0].tower][:PROBE_OPERANDS]


def probe_operands(outputs: list[str]) -> dict[int, tuple[str, list]]:
    """Per depth: ("workload" or "corpus", the operands the probe uses)."""
    own = _descend([e for out in outputs for e in _output_elements(out)])
    corpus = None
    picked = {}
    for d in range(MAX_DEPTH + 1):
        ops = _pick(own[d])
        if len(ops) >= 2:
            picked[d] = ("workload", ops)
            continue
        if corpus is None:
            data = json.loads(OPERANDS_FILE.read_text(encoding="utf-8"))
            k = parse_field(data["field"])
            corpus = _descend([parse_element(t, k) for t in data["elements"]])
        picked[d] = ("corpus", _pick(corpus[d]))
    return picked


def _median_per_op(fn, args, budget_s: float) -> float:
    """Median (over repeats) of the mean seconds per call of fn over args."""
    per_call = []
    deadline = time.perf_counter() + budget_s
    reps = 0
    while reps < 3 or time.perf_counter() < deadline:
        n = 0
        t0 = time.perf_counter()
        while True:
            for a in args:
                fn(*a)
            n += len(args)
            if time.perf_counter() - t0 >= 0.02:
                break
        per_call.append((time.perf_counter() - t0) / n)
        reps += 1
        if reps >= 25:
            break
    return statistics.median(per_call)


def kernel_probe(operands, budget_s: float) -> dict[str, tuple[float, str]]:
    """Per-depth mul/inv/sqrt/hash times, coefficient bits, and GF(13)
    multiply, phi and xi times.  inv is timed as one / x."""
    m = {}
    share = budget_s / (4 * (MAX_DEPTH + 1) + 3)
    for d in range(MAX_DEPTH + 1):
        ops = operands[d][1]
        one = ops[0].tower.one
        singles = [(e,) for e in ops]
        squares = [(e * e,) for e in ops[:2]]
        pairs = list(zip(ops, ops[1:] + ops[:1]))
        for op, fn, args in (("mul", lambda a, b: a * b, pairs),
                             ("inv", lambda a: one / a, singles),
                             ("sqrt", sqrt_in_field, squares),
                             ("hash", hash, singles)):
            m[f"fields.{op}_us.d{d}"] = (1e6 * _median_per_op(fn, args, share), "us")
        m[f"fields.coeff_bits.d{d}"] = (max(coeff_bits(e) for e in ops), "bits")
    gf = PrimeField(13)
    elems = [gf(v) for v in range(13)]
    pts = all_points(gf)
    m["fields.gf_mul_ns"] = (1e9 * _median_per_op(
        lambda a, b: a * b, [(a, b) for a in elems for b in elems], share), "ns")
    m["geometry.phi_us.gf"] = (1e6 * _median_per_op(
        phi, list(zip(pts, pts[7:] + pts[:7])), share), "us")
    m["geometry.xi_us.gf"] = (1e6 * _median_per_op(xi, [(p,) for p in pts], share), "us")
    return m


def check_sqrt(operands) -> list[str]:
    """The probe's square roots must square back (guards the timings)."""
    bad = []
    for d, (_, ops) in operands.items():
        for e in ops[:2]:
            r = sqrt_in_field(e * e)
            if r is None or r * r != e * e:
                bad.append(f"sqrt of a square failed at depth {d}")
    return bad

