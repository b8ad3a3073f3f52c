"""Seeded job lists for the three benchmark workloads.

A job is one ``bq`` argv list plus what its correct output must show.
Everything here is computed without the bqplane package: expected
verdicts, gammas, branches and normalizers come from the maps the
generator itself chose, so the checks are independent of the program
under test.  The same seed always gives the same jobs and table files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("tower-chains", "tower-decompose", "prime-census")

# Sizes of the per-pass job lists; chosen so one pass takes a few
# seconds on a 2-core machine and the total cost barely depends on the seed.
K2 = "Q[sqrt 2][i]"
K2_NAMES = ["r1", "i"]
K3 = "Q[sqrt 2][sqrt 3][i]"
K3_NAMES = ["r1", "r2", "i"]
TOWER_SAMPLES = {K2: 40, K3: 30}
WITNESS_SAMPLES = 100
IDENTITY_SAMPLES = 100
CENSUS_P = 13
SEARCH_BUDGET = 1_000_000
TABLE_PRIMES = (13, 13, 13, 29, 29, 29)

# Subcommands timed on their own per workload: those with a sizable share
# of the pass.  Millisecond-scale jobs count only inside wall_s.
TIMED_COMMANDS = {
    "tower-chains": ("lemma3-chain",),
    "tower-decompose": ("decompose", "decompose-lorentz", "witness-nonisometry",
                        "verify-identities"),
    "prime-census": ("verify-identities", "search-preservers"),
}

# lemma3-chain slots: (predicted output depth, unit steps along the
# straight walk, 1 + b2^2 already a square).  Half of the inputs have a
# square 1 + b2^2; the far/near split pins how many chain points each
# slot produces, so the cost of a pass is nearly seed-independent.
LEMMA3_SLOTS = (
    (6, 1, False), (5, 1, False), (5, 0, False), (5, 0, False), (4, 0, False),
    (5, 1, True), (4, 1, True), (4, 0, True), (3, 0, True), (3, 0, True),
)
# 1 + c^2 is a rational square for these c.
SQUARE_OFFSETS = (F(0), F(3, 4), F(-3, 4), F(4, 3), F(-4, 3), F(5, 12), F(12, 5))
# Rational-mode targets need denominators whose primes are all 1 mod 4.
FEASIBLE_DENOMINATORS = (1, 5, 13, 17, 25)


@dataclass
class Job:
    """One bq invocation and the facts its output must show."""

    name: str
    argv: list[str]
    command: str
    expect_rc: int = 0
    expect: dict = field(default_factory=dict)
    table_path: str | None = None
    table_text: str | None = None


# ------------------------------------------------------------ formatting

def fmt_element(coeffs, names) -> str:
    """Canonical element text: nonzero coefficients over the monomial
    basis in index order, the form bq prints and parses."""
    terms = []
    for idx, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "*".join(names[lv] for lv in range(len(names)) if idx >> lv & 1)
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        elif c == -1:
            terms.append(f"-{mono}")
        else:
            terms.append(f"{c}*{mono}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def fmt_point(x, y, names=()) -> str:
    if not names:
        return f"({x}, {y})"
    return f"({fmt_element(x, names)}, {fmt_element(y, names)})"


def _is_square(q: F) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _rand_q(rng: random.Random, lo: int, hi: int, den: int) -> F:
    return F(rng.randint(lo, hi), rng.randint(1, den))


# --------------------------------------------------------- tower-chains

def _lemma3_shape(a1: F, b1: F, a2: F, b2: F) -> tuple[int, int]:
    """Predicted (output depth, steps along) of the lemma-3 chain from
    (a1 + b1 i, a2 + b2 i): sqrt(1 + b2^2), sqrt(1 + (b1 - 1)^2) and
    sqrt 2 are adjoined unless already present, then the straight walk
    adjoins its length and closing height, then i.  Predicts only; the
    checks never depend on it."""
    radicands: list[F] = []

    def present(x: F) -> bool:
        for mask in range(1 << len(radicands)):
            y = x
            for j, r in enumerate(radicands):
                if mask >> j & 1:
                    y /= r
            if _is_square(y):
                return True
        return False

    for x in (1 + b2 * b2, 1 + (b1 - 1) ** 2, F(2)):
        if not present(x):
            radicands.append(x)
    length = math.hypot(float(a1) + math.sqrt(1 + b2 * b2) - math.sqrt(2),
                        float(a2) + math.sqrt(1 + (b1 - 1) ** 2))
    steps = max(0, math.ceil(length - 1e-12) - 2)
    return len(radicands) + (2 if steps else 1) + 1, steps


def _lemma3_job(rng: random.Random, idx: int, slot) -> Job:
    depth, steps, square_b2 = slot
    for _ in range(200_000):
        a1 = F(rng.randint(-10, 10), 2)
        a2 = F(rng.randint(-10, 10), 2)
        if rng.random() < 0.5:
            b1 = F(rng.choice([-5, -3, -1, 1, 3, 5]), 2)
        else:
            b1 = 1 + rng.choice(SQUARE_OFFSETS)
        if square_b2:
            b2 = rng.choice(SQUARE_OFFSETS)
        else:
            b2 = F(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), 2)
        if b1 == 0 or _is_square(1 + b2 * b2) != square_b2:
            continue
        if _lemma3_shape(a1, b1, a2, b2) == (depth, steps):
            break
    else:
        raise RuntimeError(f"no lemma3 input of shape {slot}")
    pt = fmt_point([a1, b1], [a2, b2], ["i"])
    return Job(f"lemma3-{idx}", ["lemma3-chain", "--field", "Q[i]", "--point", pt],
               "lemma3-chain",
               expect={"start": pt, "psi_head": [str(b1 * b1), str(b1)]})


def _tower_chains(rng: random.Random) -> list[Job]:
    jobs = [_lemma3_job(rng, i, slot) for i, slot in enumerate(LEMMA3_SLOTS)]
    for i in range(2):
        src = (_rand_q(rng, -3, 3, 2), _rand_q(rng, -3, 3, 2))
        while True:
            dst = (_rand_q(rng, -4, 4, 3), _rand_q(rng, -4, 4, 3))
            if dst != src:
                break
        jobs.append(_chain_job(f"chain-auto-{i}", src, dst, "auto"))
    for i in range(2):
        dst = tuple(F(rng.randint(-30, 30), rng.choice(FEASIBLE_DENOMINATORS))
                    for _ in range(2))
        if dst == (0, 0):
            dst = (F(3, 5), F(4, 5))
        jobs.append(_chain_job(f"chain-rational-{i}", (F(0), F(0)), dst, "rational"))
    # negative control: 3 is not a sum-of-two-squares denominator
    jobs.append(_chain_job("chain-rational-infeasible", (F(0), F(0)),
                           (F(7, 3), F(22, 5)), "rational",
                           fail="SearchExhausted"))
    return jobs


def _chain_job(name, src, dst, mode, fail=None) -> Job:
    s, t = fmt_point(*src), fmt_point(*dst)
    expect = {"error": fail} if fail else {"start": s, "end": t}
    return Job(name, ["chain", "--from", s, "--to", t, "--mode", mode], "chain",
               expect_rc=1 if fail else 0, expect=expect)


# ------------------------------------------------------ tower-decompose

def _pythagorean(rng: random.Random) -> tuple[F, F]:
    """A rational unit vector ((1-t^2)/(1+t^2), 2t/(1+t^2)); these t all
    give denominator 5, so the cost of a map barely depends on the seed."""
    t = rng.choice([F(1, 2), F(2), F(1, 3), F(3)]) * rng.choice([1, -1])
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _linear(kind: str, a, b):
    """Matrix rows of rot(a, b) or refl(a, b) as bq defines them."""
    if kind == "rot":
        return ((a, -b), (b, a))
    return ((a, b), (b, -a))


def _normalizer(m, t, mod=None):
    """Matrix and translation of J = (x -> M x + t)^-1 = M^T (x - t).

    Entries of t are coefficient vectors (towers) or residues (mod p)."""
    mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
    if mod is None:
        trans = [[-(mt[r][0] * u + mt[r][1] * v) for u, v in zip(t[0], t[1])]
                 for r in range(2)]
    else:
        mt = tuple(tuple(e % mod for e in row) for row in mt)
        trans = [-(mt[r][0] * t[0] + mt[r][1] * t[1]) % mod for r in range(2)]
    return mt, trans


def _tower_map_jobs(rng, idx, field_desc, names, kind, hom, seed) -> list[Job]:
    a, b = _pythagorean(rng)
    dim = 1 << len(names)
    t = [[F(rng.choice([-5, -4, -2, -1, 1, 2, 4, 5]), 3) for _ in range(dim)]
         for _ in range(2)]
    expr = (f"translate({fmt_element(t[0], names)}, {fmt_element(t[1], names)})"
            f" . {kind}({a}, {b}) . {hom}")
    mt, trans = _normalizer(_linear(kind, a, b), t)
    level = hom[len("hom(conj@"):-1] if "conj" in hom else None
    expect = {"gamma": hom,
              "branch": "zeta" if level == str(len(names)) else "theta",
              "verified_on": f"samples({TOWER_SAMPLES[field_desc]},seed={seed})",
              "normalizer_matrix": [[str(e) for e in row] for row in mt],
              "normalizer_translation": [fmt_element(v, names) for v in trans]}
    jobs = []
    for command, route in (("decompose", "frame"), ("decompose-lorentz", "lorentz")):
        argv = [command, "--field", field_desc, "--map", expr,
                "--samples", str(TOWER_SAMPLES[field_desc]), "--seed", str(seed)]
        jobs.append(Job(f"{command}-{idx}", argv, command,
                        expect={**expect, "route": route}))
    return jobs


def _tower_decompose(rng: random.Random, seed: int) -> list[Job]:
    jobs: list[Job] = []
    slots = ((K2, K2_NAMES, "rot", "hom(id)"), (K2, K2_NAMES, "refl", "hom(conj@1)"),
             (K2, K2_NAMES, "rot", "hom(conj@2)"), (K2, K2_NAMES, "refl", "hom(conj@1)"),
             (K3, K3_NAMES, "rot", "hom(conj@3)"))
    for idx, (desc, names, kind, hom) in enumerate(slots):
        jobs += _tower_map_jobs(rng, idx, desc, names, kind, hom, 100 * seed + idx)
    jobs.append(Job("witness", ["witness-nonisometry", "--samples", str(WITNESS_SAMPLES),
                                "--seed", str(seed)], "witness-nonisometry",
                    expect={"checked": WITNESS_SAMPLES}))
    jobs.append(Job("identities-tower",
                    ["verify-identities", "--field", K2, "--samples",
                     str(IDENTITY_SAMPLES), "--seed", str(seed)],
                    "verify-identities", expect={"checked": 4 * IDENTITY_SAMPLES}))
    # negative control: lambda(2) scales distances, so the frame check fails
    jobs.append(Job("decompose-lambda", ["decompose", "--field", K2, "--map", "lambda(2)"],
                    "decompose", expect_rc=1, expect={"error": "FrameNotOrthonormal"}))
    return jobs


# -------------------------------------------------------- prime-census

def _unit_circle(p: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(p) for b in range(p) if (a * a + b * b) % p == 1]


def _table_text(p: int, m, t, perturb=None) -> str:
    lines = [f"# x -> M x + t over GF({p})"]
    for x1 in range(p):
        for x2 in range(p):
            y1 = (m[0][0] * x1 + m[0][1] * x2 + t[0]) % p
            y2 = (m[1][0] * x1 + m[1][1] * x2 + t[1]) % p
            if (x1, x2) == perturb:
                y1 = (y1 + 1) % p
            lines.append(f"{x1},{x2} -> {y1},{y2}")
    return "\n".join(lines) + "\n"


def _prime_census(rng: random.Random, table_dir: Path) -> list[Job]:
    p = CENSUS_P
    jobs = [
        Job("identities-gf", ["verify-identities", "--field", f"GF({p})"],
            "verify-identities", expect={"checked": 2 * p ** 4 + 2 * p ** 2}),
        Job("search", ["search-preservers", "--p", str(p), "--budget", str(SEARCH_BUDGET)],
            "search-preservers", expect={"nodes": SEARCH_BUDGET + 1}),
    ]
    for q in sorted(set(TABLE_PRIMES)):
        jobs.append(Job(f"ortho-{q}", ["enumerate-ortho", "--field", f"GF({q})"],
                        "enumerate-ortho", expect={"count": 2 * (q - 1)}))
    for idx, q in enumerate(TABLE_PRIMES):
        a, b = rng.choice([ab for ab in _unit_circle(q) if ab != (1, 0)])
        kind = ("rot", "refl")[idx % 2]
        m = _linear(kind, a, b)
        t = (rng.randrange(q), rng.randrange(q))
        expr = f"translate({t[0]}, {t[1]}) . {kind}({a}, {b})"
        if idx % 3 == 2:
            expr += " . hom(id)"
        mt, trans = _normalizer(m, t, mod=q)
        expect = {"gamma": "hom(id)", "branch": "not_applicable", "verified_on": "exhaustive",
                  "normalizer_matrix": [[str(e) for e in row] for row in mt],
                  "normalizer_translation": [str(v) for v in trans]}
        path = f"{table_dir.as_posix()}/map-{idx}.txt"
        text = _table_text(q, m, t)
        for command, route in (("decompose", "frame"), ("decompose-lorentz", "lorentz")):
            e = {**expect, "route": route}
            jobs.append(Job(f"{command}-map-{idx}",
                            [command, "--field", f"GF({q})", "--map", expr], command, expect=e))
            jobs.append(Job(f"{command}-table-{idx}",
                            [command, "--field", f"GF({q})", "--table", path], command,
                            expect=e, table_path=path, table_text=text))
    # negative control: one image moved off a canonical map; the moved
    # point lies off the frame and off the line eta probes, so both routes
    # must reach their final agreement scan and fail there.
    a, b = rng.choice([ab for ab in _unit_circle(p) if ab != (1, 0)])
    t = (rng.randrange(p), rng.randrange(p))
    path = f"{table_dir.as_posix()}/perturbed.txt"
    text = _table_text(p, _linear("rot", a, b), t, perturb=(1, 2))
    for command in ("decompose", "decompose-lorentz"):
        jobs.append(Job(f"{command}-perturbed", [command, "--field", f"GF({p})",
                                                 "--table", path], command,
                        expect_rc=1, expect={"error": "ProductFormViolation"},
                        table_path=path, table_text=text))
    return jobs


# ---------------------------------------------------------------- entry

def generate(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The job list of one workload; every job gets --format json."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "tower-chains":
        jobs = _tower_chains(rng)
    elif workload == "tower-decompose":
        jobs = _tower_decompose(rng, seed)
    elif workload == "prime-census":
        jobs = _prime_census(rng, work_dir / f"tables-{seed}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        job.argv += ["--format", "json"]
    return jobs


def write_tables(jobs: list[Job]) -> None:
    for job in jobs:
        if job.table_path is not None:
            path = Path(job.table_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(job.table_text, encoding="utf-8")
