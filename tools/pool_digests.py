"""Digests of the benchmark pool reports, for byte-identity checks.

For every pool config of the given workloads and seeds, prints one line

    <workload> <seed> <index> <sha256>

where the digest is taken over ``experiments.to_json(report,
sort_keys=True)``, or over ``"<ErrorType>: <message>"`` when the run
raises.  The configs come from ``perfbench/workloads.py``, which this
script only reads; each run goes through ``expkant.experiments.run`` in
pool order, in one process, as the benchmark runs them.

Two checkouts give byte-identical reports when their outputs are equal:

    python3 tools/pool_digests.py > new.txt
    python3 tools/pool_digests.py --root ../parent > old.txt
    diff old.txt new.txt

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are
imported (default: the one holding this script).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path


def digests(workload_names, seeds):
    """Yield (workload, seed, index, sha256 hex) for every pool config."""
    from expkant import experiments
    import workloads

    for name in workload_names:
        for seed in seeds:
            for i, cfg in enumerate(workloads.make_plan(name, seed).pool):
                try:
                    text = experiments.to_json(experiments.run(cfg),
                                               sort_keys=True)
                except Exception as exc:
                    text = f"{type(exc).__name__}: {exc}"
                yield name, seed, i, hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to import src/ and perfbench/ from")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workload names (default: all four)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import expkant
    import workloads

    if Path(expkant.__file__).resolve().parent != root / "src" / "expkant":
        parser.error(f"expkant imported from {expkant.__file__}, "
                     f"not from {root / 'src'}")
    for row in digests(args.workloads or workloads.WORKLOADS, args.seeds):
        print(*row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
