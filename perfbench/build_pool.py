"""Rebuild approx_pool.json, the word classes the ``approx`` workload draws from.

Usage: python3 perfbench/build_pool.py

For word seeds 0..POOL_SIZE-1 it approximates ``evaluate(random_tame(n, 4,
maxdeg, seed))`` at order 4 and files the seed by the length of the
returned word. The file records the classes as they were when the
benchmark was defined; rebuilding it with a library that returns shorter
words changes the workload's inputs, so do not rebuild it in a change
that claims a gain. Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from weylift import QQ, BracketFlavor  # noqa: E402
from weylift.approx import approximate  # noqa: E402
from weylift.tame import evaluate, random_tame  # noqa: E402

POOL_SIZE = 800
FAMILIES = ((1, 3), (2, 2))


def word_class(letters):
    if letters < 100:
        return "light"
    return "tail" if letters < 300 else "heavy"


def main():
    pool = {}
    for n, maxdeg in FAMILIES:
        flavor = BracketFlavor("standard", n)
        classes = {}
        for seed in range(POOL_SIZE):
            sigma = evaluate(random_tame(n, 4, maxdeg, seed), "P", flavor, QQ)
            letters = len(approximate(sigma, 4)[0])
            classes.setdefault(word_class(letters), []).append([seed, letters])
        # sorted by word length, so a draw can take one word per bin
        pool[f"n{n}_maxdeg{maxdeg}"] = {
            cls: sorted(items, key=lambda item: (item[1], item[0]))
            for cls, items in sorted(classes.items())
        }
    path = Path(__file__).with_name("approx_pool.json")
    path.write_text(json.dumps(pool, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
