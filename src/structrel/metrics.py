"""Fact-set evaluation: micro precision/recall/F1 and the ignore-train
variant, plus a per-relation breakdown.

A fact is the tuple ``(doc_id, head_index, tail_index, relation)``.  The
ignore-train precision removes correct predictions whose fact was already
known from training from both the numerator and the denominator; recall is
unchanged.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

Fact = tuple[str, int, int, str]


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class RelationScores:
    gold: int
    predicted: int
    correct: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    ign_precision: float
    ign_recall: float
    ign_f1: float
    gold: int
    predicted: int
    correct: int
    correct_in_train: int
    empty_gold: bool = False
    per_relation: dict[str, RelationScores] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            "metric\tvalue",
            f"precision\t{self.precision:.6f}",
            f"recall\t{self.recall:.6f}",
            f"f1\t{self.f1:.6f}",
            f"ign_precision\t{self.ign_precision:.6f}",
            f"ign_recall\t{self.ign_recall:.6f}",
            f"ign_f1\t{self.ign_f1:.6f}",
            f"gold\t{self.gold}",
            f"predicted\t{self.predicted}",
            f"correct\t{self.correct}",
            f"correct_in_train\t{self.correct_in_train}",
            f"empty_gold\t{str(self.empty_gold).lower()}",
            "",
            "relation\tgold\tpredicted\tcorrect\tprecision\trecall\tf1",
        ]
        for name in sorted(self.per_relation):
            rs = self.per_relation[name]
            lines.append(
                f"{name}\t{rs.gold}\t{rs.predicted}\t{rs.correct}\t"
                f"{rs.precision:.6f}\t{rs.recall:.6f}\t{rs.f1:.6f}"
            )
        return "\n".join(lines) + "\n"


def evaluate_facts(
    predicted: Iterable[Fact],
    gold: Iterable[Fact],
    is_in_train: Callable[[Fact], bool] = lambda fact: False,
) -> EvalReport:
    """Score a prediction set against a gold set.

    An empty gold set makes recall undefined; it is reported as 0 with
    ``empty_gold`` set.
    """
    predicted = set(predicted)
    gold = set(gold)
    correct_set = predicted & gold
    correct = len(correct_set)
    in_train = sum(1 for fact in correct_set if is_in_train(fact))

    precision = correct / len(predicted) if predicted else 0.0
    empty_gold = not gold
    recall = 0.0 if empty_gold else correct / len(gold)
    ign_denom = len(predicted) - in_train
    ign_precision = (correct - in_train) / ign_denom if ign_denom else 0.0

    # one pass over each set, not one per relation
    p_n = Counter(fact[3] for fact in predicted)
    g_n = Counter(fact[3] for fact in gold)
    c_n = Counter(fact[3] for fact in correct_set)
    per_relation = {}
    for r in sorted(p_n.keys() | g_n.keys()):
        pr = c_n[r] / p_n[r] if p_n[r] else 0.0
        rc = c_n[r] / g_n[r] if g_n[r] else 0.0
        per_relation[r] = RelationScores(
            gold=g_n[r], predicted=p_n[r], correct=c_n[r],
            precision=pr, recall=rc, f1=f1_score(pr, rc),
        )
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        ign_precision=ign_precision,
        ign_recall=recall,
        ign_f1=f1_score(ign_precision, recall),
        gold=len(gold),
        predicted=len(predicted),
        correct=correct,
        correct_in_train=in_train,
        empty_gold=empty_gold,
        per_relation=per_relation,
    )


def build_train_fact_index(train_docs) -> set[tuple[str, str, str]]:
    """Name-level fact index for in-train detection.

    A fact is recorded under every (head mention name, tail mention name,
    relation) combination, so matching is by surface identity rather than
    document-local entity ordinals.
    """
    index: set[tuple[str, str, str]] = set()
    for doc in train_docs:
        for fact in doc.facts:
            for hm in doc.entities[fact.h].mentions:
                for tm in doc.entities[fact.t].mentions:
                    index.add((hm.name, tm.name, fact.r))
    return index


def make_in_train_checker(train_index: set[tuple[str, str, str]],
                          docs) -> Callable[[Fact], bool]:
    """True when any mention-name combination of a predicted fact appears
    in the train index."""
    by_id = {doc.doc_id: doc for doc in docs}

    def check(fact: Fact) -> bool:
        doc = by_id[fact[0]]
        for hm in doc.entities[fact[1]].mentions:
            for tm in doc.entities[fact[2]].mentions:
                if (hm.name, tm.name, fact[3]) in train_index:
                    return True
        return False

    return check
