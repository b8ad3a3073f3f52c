"""Correctness gate for one job's output.

``check`` returns a list of problems; an empty list means the job's exit
code, verdict and non-vacuous counts are what its generator expects.
Byte identity across repeats is checked by the caller from digests.
"""

from __future__ import annotations

import json

from jobs import Job


def records_of(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check(job: Job, rc: int, stdout: str) -> list[str]:
    try:
        recs = records_of(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not line-delimited JSON: {exc}"]
    problems = []
    if rc != job.expect_rc:
        problems.append(f"exit code {rc}, expected {job.expect_rc}")
    if not recs or recs[-1].get("record") != "verdict":
        return problems + ["no final verdict record"]
    if recs[-1]["ok"] != (job.expect_rc == 0):
        problems.append(f"verdict ok={recs[-1]['ok']}")
    by_kind: dict[str, list[dict]] = {}
    for rec in recs:
        by_kind.setdefault(rec["record"], []).append(rec)
    if "error" in job.expect:
        got = [r["error"] for r in by_kind.get("failure", [])]
        if got != [job.expect["error"]]:
            problems.append(f"failure records {got}, expected [{job.expect['error']!r}]")
        return problems
    try:
        problems += _CHECKS[job.command](job.expect, by_kind)
    except (KeyError, IndexError, TypeError) as exc:
        problems.append(f"malformed {job.command} output: {exc}")
    return problems


def _one(by_kind, kind) -> dict:
    recs = by_kind.get(kind, [])
    if len(recs) != 1:
        raise KeyError(f"{len(recs)} {kind!r} records")
    return recs[0]


def _lemma3(expect, by_kind) -> list[str]:
    chain = _one(by_kind, "chain")
    edges = _one(by_kind, "chain_verify")["edges"]
    psi = _one(by_kind, "psi_certificates")["values"]
    out = []
    if chain["points"][0] != expect["start"] or chain["points"][-1] != "(i, i)":
        out.append(f"chain runs {chain['points'][0]} -> {chain['points'][-1]}")
    if len(edges) != len(chain["points"]) - 1 or len(psi) != len(edges):
        out.append("edge count differs from point count")
    if not all(e["phi"] == "1" and e["phi_ok"] and e["psi"] != "0" and e["psi_ok"]
               for e in edges):
        out.append("an edge has phi != 1 or psi = 0")
    if psi != expect["psi_head"] + ["1"] * (len(psi) - 2):
        out.append(f"psi certificates {psi[:3]}..., expected {expect['psi_head']}, 1, ...")
    return out


def _chain(expect, by_kind) -> list[str]:
    chain = _one(by_kind, "chain")
    edges = _one(by_kind, "chain_verify")["edges"]
    out = []
    if (chain["points"][0], chain["points"][-1]) != (expect["start"], expect["end"]):
        out.append(f"chain runs {chain['points'][0]} -> {chain['points'][-1]}")
    if len(edges) != len(chain["points"]) - 1 or not edges:
        out.append("edge count differs from point count")
    if not all(e["phi"] == "1" and e["phi_ok"] for e in edges):
        out.append("an edge has phi != 1")
    return out


def _decomposition(expect, by_kind) -> list[str]:
    rec = _one(by_kind, "decomposition")
    return [f"{key} = {rec.get(key)!r}, expected {want!r}"
            for key, want in expect.items() if rec.get(key) != want]


def _identities(expect, by_kind) -> list[str]:
    checks = by_kind.get("identity_check", [])
    total = sum(c["checked"] for c in checks)
    out = []
    if len(checks) != 4 or any(c["violations"] for c in checks):
        out.append(f"{len(checks)} identity checks, some with violations")
    if total != expect["checked"]:
        out.append(f"{total} identity checks, expected {expect['checked']}")
    return out


def _search(expect, by_kind) -> list[str]:
    c = _one(by_kind, "census")
    out = []
    if c["nodes"] != expect["nodes"] or c["complete"]:
        out.append(f"{c['nodes']} nodes (complete={c['complete']}), expected {expect['nodes']}")
    if c["anomaly_count"] != 0 or c["found"] <= 0:
        out.append(f"{c['anomaly_count']} anomalies, {c['found']} found")
    return out


def _ortho(expect, by_kind) -> list[str]:
    count = _one(by_kind, "census")["count"]
    mats = by_kind.get("orthogonal_matrix", [])
    if count != expect["count"] or len(mats) != count:
        return [f"{count} orthogonal matrices ({len(mats)} listed), expected {expect['count']}"]
    return []


def _witness(expect, by_kind) -> list[str]:
    pres = _one(by_kind, "preservation")
    wit = _one(by_kind, "witness")
    out = []
    if pres["checked"] != expect["checked"] or not pres["ok"]:
        out.append(f"unit pairs checked {pres['checked']}, ok={pres['ok']}")
    if (wit["phi"], wit["phi_image"]) != ("r1", "-r1"):
        out.append(f"witness phi {wit['phi']} -> {wit['phi_image']}")
    return out


_CHECKS = {
    "lemma3-chain": _lemma3,
    "chain": _chain,
    "decompose": _decomposition,
    "decompose-lorentz": _decomposition,
    "verify-identities": _identities,
    "search-preservers": _search,
    "enumerate-ortho": _ortho,
    "witness-nonisometry": _witness,
}
