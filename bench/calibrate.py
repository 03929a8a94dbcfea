"""Fixed work that measures how fast the machine runs at this moment.

run.py times this script as a child before and after every timed child and
scales the child's times by how long it took.  It does what a `riesz` job
does in small: start the interpreter, import numpy, run numpy array
arithmetic and a pure-Python loop.  It imports nothing from the program, so
a change to the program never changes its time; only the machine does.
"""

import numpy as np

rng = np.random.default_rng(12345)
x = rng.random(1 << 19)
z = np.exp(1j * x * 6.283) * (1.0 + 0.5 * np.cos(3.0 * x))
z = np.concatenate((z, z * 0.5, z * 0.25))
total = float(np.abs(z).sum()) + float(np.argsort(x)[0])
counts: dict[int, int] = {}
for i in range(60_000):
    counts[i % 1013] = counts.get(i % 1013, 0) + i
