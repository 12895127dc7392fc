"""The e2e benchmark's exact counts do not depend on ``PYTHONHASHSEED``.

``benchmarks/e2e/run.py`` re-executes itself under ``PYTHONHASHSEED=0``
so set iteration cannot move event order.  This checks that the counts
do not need the pin on the two workloads most exposed to set order
(``sptree_grid``'s event count and queue high-water mark,
``central_eval``'s probes and scans): each runs once at smoke scale in
two interpreters with different hash seeds, without the re-exec, and
every count its ``counts()`` reports must agree.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCRIPT = """
import json, sys
sys.path.insert(0, {e2e!r})
import workloads
counts = {{}}
for name in ("sptree_grid", "central_eval"):
    workload = workloads.WORKLOADS[name](12, "smoke")
    state = workload.setup(traced=True)
    workload.run(state)
    counts[name] = workload.counts(state)
print(json.dumps(counts, sort_keys=True))
"""


def counts_under(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         SCRIPT.format(e2e=os.path.join(REPO, "benchmarks", "e2e"))],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_counts_are_the_same_under_two_hash_seeds():
    first, second = counts_under(1), counts_under(2)
    assert first == second
    assert first["sptree_grid"]["net.sim.events"] > 0
    assert first["central_eval"]["core.eval.probes"] > 0
