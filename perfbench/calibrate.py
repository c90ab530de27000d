"""Fixed reference task that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py

It uses only the standard library and numpy, never arrivalab, so no change
to the program can change its time. Its mix resembles a CLI invocation:
interpreter start-up and imports, a dict-and-sort loop in pure Python,
numpy array sorts and float formatting. ``run.py`` runs it right before
each timed invocation and scales that invocation's times by how much
slower or faster than usual this task ran (see ``run.CALIBRATION_REF_S``).
"""

import random

import numpy as np

rng = random.Random(7)
counts = {}
for i in range(120_000):
    key = rng.randrange(5000)
    counts[key] = counts.get(key, 0) + i % 7
ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))

values = np.random.default_rng(7).random(400_000)
for _ in range(20):
    values = np.sort(np.sqrt(values * 1.0001))
text = ",".join(f"{x:.6f}" for x in values[:60_000])

if len(ranked) != 5000 or len(text) != 60_000 * 9 - 1:
    raise SystemExit("calibration task computed the wrong result")
