"""Strength propagation over the related-word graph.

Labeled terms seed the graph; each round, every still-unlabeled node with at
least one labeled neighbor takes the arithmetic mean of its labeled
neighbors' strengths as of the start of the round. Labels freeze once
assigned, so the process terminates after at most |nodes| rounds and the
three pipeline stages stay additive.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .ingest import Vocabulary
from .lexicon import CLASSES, Lexicon, LexiconEntry, Stage, classify, mean_strength

_BAR_WIDTH = 40  # characters in the stage report's bar for its most frequent class


class SynonymGraph(dict[str, tuple[str, ...]]):
    """Undirected graph over vocabulary terms: a dict from node to the tuple
    of its neighbours, each listed once; their order carries no meaning. A
    plain record: the caller holds its invariants, that no edge is a
    self-loop and both ends of every edge are nodes. `build_graph` drops
    every other edge."""

    __slots__ = ()

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ):
        adjacency = {node: [] for node in nodes}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        for node, neighbours in adjacency.items():
            adjacency[node] = tuple(dict.fromkeys(neighbours))
        super().__init__(adjacency)

    def edge_count(self) -> int:
        return sum(map(len, self.values())) // 2


def build_graph(vocabulary: Vocabulary) -> SynonymGraph:
    """Symmetrize related-word lists into an undirected graph.

    One node per vocabulary term; an edge whenever either term lists the
    other among its related terms, but only if both ends are vocabulary
    terms. Related terms pointing outside the vocabulary produce nothing.
    """
    edges = ((term, other) for term, related in vocabulary.items()
             for other in related if other != term and other in vocabulary)
    return SynonymGraph(vocabulary.keys(), edges)


@dataclass(frozen=True)
class PropagationResult:
    """labeled holds only newly labeled terms (never the seeds); unreached
    nodes got no label and stay out of the final dictionary. `rounds` holds
    the labels each round assigned, one per iteration, and `edges` counts
    the graph's edges."""

    labeled: Lexicon
    iterations: int
    unreached: frozenset[str]
    rounds: tuple[int, ...]
    edges: int


def propagate(graph: SynonymGraph, seeds: Lexicon) -> PropagationResult:
    """Layered averaging from the seed set until a round assigns nothing.

    Seeds that are not graph nodes seed nothing and are ignored here (the
    caller keeps them). Rounds are synchronous: all of a round's new labels
    read only earlier labels, and means are order-independent, so the
    outcome does not depend on node iteration order. The final empty round
    counts toward `iterations`; a graph with nothing left to label reports 0.
    """
    labeled: dict[str, float] = {
        term: entry.strength for term, entry in seeds.items() if term in graph
    }
    seed_nodes = set(labeled)

    rounds = []
    if len(labeled) < len(graph):
        frontier = seed_nodes
        while True:
            fresh: dict[str, float] = {}
            for node in frontier:
                for candidate in graph[node]:
                    if candidate in labeled or candidate in fresh:
                        continue
                    values = [
                        labeled[neighbor]
                        for neighbor in graph[candidate]
                        if neighbor in labeled
                    ]
                    fresh[candidate] = mean_strength(values)
            rounds.append(len(fresh))
            if not fresh:
                break
            labeled.update(fresh)
            frontier = set(fresh)

    delta = Lexicon(LexiconEntry(term, value, Stage.PROPAGATION)
                    for term, value in labeled.items() if term not in seed_nodes)
    # Not `graph.keys() - labeled.keys()`: CPython presizes that set only for the
    # keys of an exact dict; on this subclass it grows by resizing and peaks higher.
    unreached = frozenset(node for node in graph if node not in labeled)
    return PropagationResult(labeled=delta, iterations=len(rounds), unreached=unreached,
                             rounds=tuple(rounds), edges=graph.edge_count())


@dataclass
class StageReport:
    """Counts of final-lexicon entries per stage and per strength class."""

    total: int
    by_stage: dict[Stage, int]
    by_class: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "stages": {stage.value: self.by_stage[stage] for stage in Stage},
            "classes": {str(cls): self.by_class[cls] for cls in CLASSES},
        }

    def format_text(self) -> str:
        lines = ["lexicon stage report", f"  total entries: {self.total}", ""]
        lines.append(f"  {'stage':<16} count")
        for stage in Stage:
            lines.append(f"  {stage.value:<16} {self.by_stage[stage]:>5}")
        lines.append("")
        lines.append(f"  {'class':>5}  count  histogram")
        peak = max(self.by_class.values(), default=0)
        for cls in CLASSES:
            count = self.by_class[cls]
            bar = "#" * (round(_BAR_WIDTH * count / peak) if peak else 0)
            lines.append(f"  {cls:>5}  {count:>5}  {bar}")
        return "\n".join(lines) + "\n"


def stage_report(final: Lexicon) -> StageReport:
    by_stage = {stage: 0 for stage in Stage}
    by_class = {cls: 0 for cls in CLASSES}
    for entry in final.values():
        by_stage[entry.stage] += 1
        by_class[classify(entry.strength)] += 1
    return StageReport(total=len(final), by_stage=by_stage, by_class=by_class)
