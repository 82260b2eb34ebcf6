"""Seeded, Assistments-shaped student log with known success probabilities.

Writes into ``--out-dir``:

- ``train.csv`` and ``heldout.csv``: ``user_id,item_id,correct`` plus the four
  extra columns the Assistments importer writes (``first_action``,
  ``school_id``, ``teacher_id``, ``tutor_mode``), rows in global time order
  with the students interleaved;
- ``qmatrix.csv``: one headerless 0/1 row per raw item id, 120 skill columns;
- ``truth.json``: the shape of the log and the true success probability of
  every attempt of both logs, in row order.

The shape follows Assistments 2009 (about 13 attempts per item, about 80 per
student, about 120 skills, one or two skills per item and a few untagged
items, students working runs of items within a few skills) at a fraction of
its 347k attempts. Raw item ids are 0-based, as the importer writes them, but
are a seeded permutation of the items rather than their order of first
appearance. The held-out log continues every student's history with items,
students and extra-column values that all occur in the training log, because
a frozen vocabulary rejects unseen extra values.

Run as ``python3 perfbench/gen_log.py --seed 7 --out-dir DIR``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

# attempts in the paper's Assistments 2009 log
PAPER_ROWS = 346_860

TRAIN_ROWS = 12_000
N_SKILLS = 120
ATTEMPTS_PER_STUDENT = 80
ATTEMPTS_PER_ITEM = 13
# items in the q-matrix per attempted item: pools are skewed, so some go unused
ITEM_SLACK = 1.1
UNTAGGED_SHARE = 0.02
TWO_SKILL_SHARE = 0.3

EXTRA_COLUMNS = ("first_action", "school_id", "teacher_id", "tutor_mode")
FIRST_ACTIONS = (("0", 0.82, 0.0), ("1", 0.13, -1.2), ("2", 0.05, -0.5))
TUTOR_MODES = (("tutor", 0.85, 0.0), ("test", 0.1, -0.2), ("pre_test", 0.05, -0.3))


def shape(train_rows: int = TRAIN_ROWS) -> dict:
    """Population sizes for a log of ``train_rows`` training attempts."""
    students = max(10, round(train_rows / ATTEMPTS_PER_STUDENT))
    items = max(N_SKILLS, round(ITEM_SLACK * train_rows / ATTEMPTS_PER_ITEM))
    return {
        "train_rows": train_rows,
        "heldout_rows": train_rows // 3,
        "students": students,
        "items": items,
        "skills": N_SKILLS,
        "paper_fraction": train_rows / PAPER_ROWS,
    }


def _counts(total: int, n: int, floor: int, rng) -> np.ndarray:
    """``n`` skewed positive counts, each at least ``floor``, summing to ``total``."""
    weights = rng.lognormal(0.0, 0.6, size=n)
    return floor + rng.multinomial(total - floor * n, weights / weights.sum())


def _standardized(x: np.ndarray) -> np.ndarray:
    # exact mean 0 and sd 1, so the base rate varies little between seeds
    return (x - x.mean()) / x.std()


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class _Population:
    """Students, items, skills and the generating parameters."""

    def __init__(self, sizes: dict, rng):
        self.rng = rng
        n_s, n_i, n_k = sizes["students"], sizes["items"], sizes["skills"]
        # items: untagged, one skill or two skills; every skill gets items
        self.item_skills: list[tuple[int, ...]] = []
        for j in range(n_i):
            u = rng.random()
            if u < UNTAGGED_SHARE:
                self.item_skills.append(())
            elif j < n_k:
                self.item_skills.append((j,))
            elif u < UNTAGGED_SHARE + TWO_SKILL_SHARE:
                pair = rng.choice(n_k, size=2, replace=False)
                self.item_skills.append(tuple(sorted(int(k) for k in pair)))
            else:
                self.item_skills.append((int(rng.integers(n_k)),))
        self.pool: list[list[int]] = [[] for _ in range(n_k)]
        self.untagged: list[int] = []
        for j, kc in enumerate(self.item_skills):
            for k in kc:
                self.pool[k].append(j)
            if not kc:
                self.untagged.append(j)
        self.item_weight = rng.lognormal(0.0, 0.5, size=n_i)
        self.skill_weight = rng.lognormal(0.0, 0.5, size=n_k)
        self.raw_item = rng.permutation(n_i)  # raw 0-based id of each item
        self.raw_user = 70_000 + rng.permutation(n_s * 3)[:n_s]
        # generating parameters (probit link)
        self.ability = 0.8 * _standardized(rng.normal(size=n_s))
        self.difficulty = 0.8 * _standardized(rng.normal(size=n_i)) - 0.6
        self.learn = np.abs(rng.normal(0.35, 0.12, size=n_k))
        self.slip = np.abs(rng.normal(0.15, 0.08, size=n_k))
        # extra columns: school and teacher fixed per student
        n_schools = max(2, n_s // 25)
        n_teachers = max(n_schools, n_s // 8)
        teacher_school = rng.integers(n_schools, size=n_teachers)
        self.teacher = rng.integers(n_teachers, size=n_s)
        self.school = teacher_school[self.teacher]
        self.school_effect = rng.normal(0.0, 0.3, size=n_schools)
        self.raw_school = 1000 + rng.permutation(n_schools * 7)[:n_schools]
        self.raw_teacher = 20_000 + rng.permutation(n_teachers * 13)[:n_teachers]
        # each student works in a few skills
        self.student_skills = []
        p_skill = self.skill_weight / self.skill_weight.sum()
        for _ in range(n_s):
            k = int(rng.integers(3, 7))
            self.student_skills.append([int(s) for s in rng.choice(n_k, size=k, replace=False, p=p_skill)])
        self.wins = [dict() for _ in range(n_s)]
        self.fails = [dict() for _ in range(n_s)]

    def _pick(self, items: list[int]) -> int:
        w = self.item_weight[items]
        return items[int(np.searchsorted(np.cumsum(w), self.rng.random() * w.sum(), side="right"))]

    def _extra(self, table) -> tuple[str, float]:
        u, acc = self.rng.random(), 0.0
        for value, p, effect in table:
            acc += p
            if u < acc:
                return value, effect
        return table[-1][0], table[-1][2]

    def simulate(self, student: int, n: int, allowed: set[int] | None) -> list[tuple]:
        """``n`` further attempts of ``student``; items restricted to ``allowed``."""
        rng = self.rng
        pools = self.pool
        untagged = self.untagged
        if allowed is not None:
            pools = [[j for j in p if j in allowed] for p in pools]
            untagged = [j for j in untagged if j in allowed]
        skills = [k for k in self.student_skills[student] if pools[k]]
        if not skills:
            skills = [k for k in range(len(pools)) if pools[k]][:3]
        wins, fails = self.wins[student], self.fails[student]
        out = []
        while len(out) < n:
            if untagged and rng.random() < 0.04:
                items = untagged
            else:
                items = pools[skills[int(rng.integers(len(skills)))]]
            run = 1 + int(rng.geometric(1 / 8))
            for _ in range(min(run, n - len(out))):
                item = self._pick(items)
                kc = self.item_skills[item]
                first_action, fa_effect = self._extra(FIRST_ACTIONS)
                tutor_mode, tm_effect = self._extra(TUTOR_MODES)
                z = (
                    self.ability[student]
                    - self.difficulty[item]
                    + self.school_effect[self.school[student]]
                    + fa_effect
                    + tm_effect
                )
                if kc:
                    z += sum(
                        self.learn[k] * math.log1p(wins.get(k, 0))
                        - self.slip[k] * math.log1p(fails.get(k, 0))
                        for k in kc
                    ) / len(kc)
                p = _phi(z)
                correct = int(rng.random() < p)
                counter = wins if correct else fails
                for k in kc:
                    counter[k] = counter.get(k, 0) + 1
                out.append((student, item, correct, first_action, tutor_mode, p))
        return out

    def interleave(self, logs: list[list[tuple]]) -> list[tuple]:
        """Merge per-student logs into one time order, keeping each student's order."""
        slots = self.rng.permutation(np.repeat(np.arange(len(logs)), [len(g) for g in logs]))
        cursor = [0] * len(logs)
        merged = []
        for s in slots:
            merged.append(logs[s][cursor[s]])
            cursor[s] += 1
        return merged

    def csv_row(self, attempt: tuple) -> list[str]:
        student, item, correct, first_action, tutor_mode, _ = attempt
        return [
            str(self.raw_user[student]),
            str(self.raw_item[item]),
            str(correct),
            first_action,
            str(self.raw_school[self.school[student]]),
            str(self.raw_teacher[self.teacher[student]]),
            tutor_mode,
        ]


def generate(seed: int, out_dir, train_rows: int = TRAIN_ROWS) -> dict:
    """Write the logs, q-matrix and truth for ``seed``; returns the shape."""
    sizes = shape(train_rows)
    rng = np.random.default_rng(seed)
    pop = _Population(sizes, rng)
    n_s = sizes["students"]
    train_counts = _counts(sizes["train_rows"], n_s, 10, rng)
    train_logs = [pop.simulate(s, int(c), None) for s, c in enumerate(train_counts)]
    train = pop.interleave(train_logs)
    seen_items = {a[1] for a in train}
    seen_first = {a[3] for a in train}
    seen_modes = {a[4] for a in train}
    held_counts = rng.multinomial(sizes["heldout_rows"], train_counts / train_counts.sum())
    held_logs = [pop.simulate(s, int(c), seen_items) for s, c in enumerate(held_counts)]
    heldout = pop.interleave(held_logs)
    if any(a[3] not in seen_first or a[4] not in seen_modes for a in heldout):
        raise RuntimeError("held-out extra value missing from the training log")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["user_id", "item_id", "correct", *EXTRA_COLUMNS]
    for name, log in (("train.csv", train), ("heldout.csv", heldout)):
        with open(out / name, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(pop.csv_row(a) for a in log)
    q = np.zeros((sizes["items"], sizes["skills"]), dtype=np.int8)
    for j, kc in enumerate(pop.item_skills):
        q[pop.raw_item[j], list(kc)] = 1
    with open(out / "qmatrix.csv", "w", newline="\n") as fh:
        fh.writelines(",".join("1" if c else "0" for c in row) + "\n" for row in q)
    sizes = {
        **sizes,
        "seed": seed,
        "train_items_seen": len(seen_items),
        "untagged_items": len(pop.untagged),
        "two_skill_items": sum(len(kc) == 2 for kc in pop.item_skills),
        "max_counter": max(max(list(d.values()) + [0]) for d in pop.wins + pop.fails),
    }
    truth = {
        "shape": sizes,
        "train": [a[5] for a in train],
        "heldout": [a[5] for a in heldout],
    }
    with open(out / "truth.json", "w", newline="\n") as fh:
        json.dump(truth, fh)
    return sizes


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.seed, args.out_dir)))


if __name__ == "__main__":
    main()
