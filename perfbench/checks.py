"""Output checks for the slangsent benchmark.

Each check reads files the package wrote and returns a list of problems; an
empty list means the output is correct. They use only the file formats
documented in the README, never the package itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Build exports that a resume must reproduce byte for byte.
EXPORTS = (
    "slangsd.txt",
    "idiom_additions.txt",
    "final_lexicon.jsonl",
    "stage_report.json",
    "stage_report.txt",
)
STAGES = ("seed_lexicon", "corpus_estimate", "propagation")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_exports(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in EXPORTS}


def _terms_by_stage(path: Path) -> dict[str, list[str]]:
    by_stage: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            by_stage.setdefault(record["stage"], []).append(record["term"])
    return by_stage


def check_build(out: Path) -> list[str]:
    """Stage sets are disjoint, their counts sum to the total, and every
    export agrees on the size of the final dictionary."""
    problems = []
    report = json.loads((out / "stage_report.json").read_text(encoding="utf-8"))
    stages = report["stages"]
    if sum(stages.values()) != report["total"]:
        problems.append(f"stage counts {stages} do not sum to total {report['total']}")
    if sum(report["classes"].values()) != report["total"]:
        problems.append("class counts do not sum to the total")

    final = _terms_by_stage(out / "final_lexicon.jsonl")
    for stage in STAGES:
        if len(final.get(stage, ())) != stages[stage]:
            problems.append(f"final lexicon has {len(final.get(stage, ()))} {stage} terms, "
                            f"report says {stages[stage]}")
    final_terms = [term for terms in final.values() for term in terms]
    if len(set(final_terms)) != len(final_terms):
        problems.append("final lexicon repeats a term")

    estimated = set(_terms_by_stage(out / "corpus_estimates.jsonl").get("corpus_estimate", ()))
    propagated = set(_terms_by_stage(out / "propagated.jsonl").get("propagation", ()))
    seeded = set(final.get("seed_lexicon", ()))
    if seeded & estimated or seeded & propagated or estimated & propagated:
        problems.append("stage sets overlap")
    if set(final.get("corpus_estimate", ())) != estimated:
        problems.append("final corpus-estimate terms differ from corpus_estimates.jsonl")
    if set(final.get("propagation", ())) != propagated:
        problems.append("final propagation terms differ from propagated.jsonl")

    slangsd = (out / "slangsd.txt").read_text(encoding="utf-8").splitlines()
    if len(slangsd) != report["total"]:
        problems.append(f"slangsd.txt has {len(slangsd)} lines, report total is {report['total']}")
    if [line.split("\t")[0] for line in slangsd] != sorted(final_terms):
        problems.append("slangsd.txt terms are not the sorted final lexicon")
    return problems


def check_resume(build: dict[str, bytes], out: Path) -> list[str]:
    resumed = read_exports(out)
    return [f"resume changed {name}" for name in EXPORTS if resumed[name] != build[name]]


def check_labels(path: Path, expected: dict[str, str], emoticons: frozenset[str]) -> list[str]:
    """The labeled corpus keeps exactly the singly-marked documents, in input
    order, with the generator's label and no emoticon left in the text."""
    problems = []
    got = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            got.append((record["id"], record["label"]))
            if any(chunk in emoticons for chunk in record["text"].split()):
                problems.append(f"emoticon left in {record['id']}")
    if got != list(expected.items()):
        problems.insert(0, f"labeled corpus has {len(got)} documents, expected "
                           f"{len(expected)}, or labels differ")
    return problems[:5]


def check_evaluation(path: Path, labeled: int) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    confusion = sum(n for row in report["confusion"].values() for n in row.values())
    problems = []
    if report["size"] != labeled:
        problems.append(f"evaluated {report['size']} documents, labeled corpus has {labeled}")
    if confusion != report["size"]:
        problems.append(f"confusion counts sum to {confusion}, not {report['size']}")
    return problems


def parse_scores(output: str, ids: list[str]) -> tuple[list[tuple[str, str]], list[str]]:
    """Parse `score --corpus` output into (total, polarity) per document."""
    rows = [line.split("\t") for line in output.splitlines()]
    problems = []
    if [row[0] for row in rows] != ids:
        problems.append(f"score output has {len(rows)} rows for {len(ids)} documents")
    scores = []
    for row in rows:
        total, polarity = row[1], row[2]
        sign = "positive" if float(total) > 0 else "negative" if float(total) < 0 else "neutral"
        if polarity != sign:
            problems.append(f"{row[0]}: polarity {polarity} for total {total}")
        scores.append((total, polarity))
    return scores, problems[:5]


def check_golden(out: Path, golden: Path) -> list[str]:
    if (out / "slangsd.txt").read_bytes() != golden.read_bytes():
        return [f"golden export differs from {golden}"]
    return []


def check_hashes(artifacts: dict[str, Path], expected: dict[str, str]) -> list[str]:
    problems = []
    for name, digest in sorted(expected.items()):
        actual = sha256(artifacts[name])
        if actual != digest:
            problems.append(f"{name}: sha256 {actual} != recorded {digest}")
    if set(artifacts) != set(expected):
        problems.append(f"recorded artifacts {sorted(expected)} != {sorted(artifacts)}")
    return problems
