"""Regenerate perfbench/golden.json: certified ladder sub-window optima.

    python3 perfbench/make_golden.py

For each seed and pass, every ladder input's seeded sub-window is searched
in this one process and its optimum stored with a digest of the sub-window.
ladder-sweep runs with a stored seed compare each result against it.
"""

from __future__ import annotations

import json

import child
from ladder import build_ladder
from run import GOLDEN, SUBWINDOW_SIZE

SEEDS = 10     # seeds 0..9
PASSES = 32    # a 25 s run at the seed commit makes about 8 passes


def main() -> None:
    ladder = build_ladder()
    prepared = []
    for item in ladder:
        sq = child.symmetry.symmetry_quotient(child.polynomials.parse(item.text))
        prepared.append((sq, child.search.candidate_window(sq)[0]))
    optima = {}
    for seed in range(SEEDS):
        rows = []
        for p in range(PASSES):
            row = []
            for i, (sq, window) in enumerate(prepared):
                sub = child.draw_subwindow(window, f"{seed}:{p}:{i}", SUBWINDOW_SIZE)
                result = child.search.max_exceptional(sq, vertices=sub)
                row.append([result.size, child.digest(sub)])
            rows.append(row)
        optima[str(seed)] = rows
        print(f"seed {seed} done", flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"inputs": [item.name for item in ladder], "subwindow": SUBWINDOW_SIZE,
                   "optima": optima}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
