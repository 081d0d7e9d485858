"""Digests of the benchmark pool reports, for byte-identity checks.

For every pool config of the given workloads and seeds, prints one line

    <workload> <seed> <index> <sha256> <verdict>

where the digest is taken over ``experiments.to_json(report,
sort_keys=True)``, or over ``"<ErrorType>: <message>"`` when the run
raises, and the verdict is the report's ``PASS`` or ``FAIL``, or the
exception's type name when the run raises.  The configs come from
``perfbench/workloads.py``, which this script only reads; each run goes
through ``expkant.experiments.run`` in pool order, in one process, as the
benchmark runs them.

Two checkouts give byte-identical reports when their outputs are equal.
``--against OTHER`` checks that in one command: it runs this script on
the checkout OTHER in a subprocess while it digests its own, prints only
the lines whose digests differ, as

    <workload> <seed> <index> <this digest> <this verdict>
        <OTHER's digest> <OTHER's verdict>

on one line (``- -`` for a config that one side lacks), writes to
stderr how many reports and how many verdicts differ, and exits 1 on any
difference:

    python3 tools/pool_digests.py --against ../parent

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are
imported (default: the one holding this script).
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path


def digests(workload_names, seeds):
    """Yield (workload, seed, index, sha256 hex, verdict) for every pool
    config."""
    from expkant import experiments
    import workloads

    for name in workload_names:
        for seed in seeds:
            for i, cfg in enumerate(workloads.make_plan(name, seed).pool):
                try:
                    report = experiments.run(cfg)
                    text = experiments.to_json(report, sort_keys=True)
                    verdict = "PASS" if report["passed"] else "FAIL"
                except Exception as exc:
                    text = f"{type(exc).__name__}: {exc}"
                    verdict = type(exc).__name__
                digest = hashlib.sha256(text.encode()).hexdigest()
                yield name, seed, i, digest, verdict


def _differences(ours, theirs):
    """(line, verdict differs) for every config whose digests differ, the
    line "<workload> <seed> <index> <our digest> <our verdict> <their
    digest> <their verdict>", "- -" for a config one side lacks, in our
    order and then theirs; both sides are lines as a plain run prints
    them."""
    def split(lines):
        return {key: tuple(rest) for key, *rest in
                (line.rsplit(" ", 2) for line in lines)}

    mine, other = split(ours), split(theirs)
    for key in [*mine, *(k for k in other if k not in mine)]:
        a, b = mine.get(key, ("-", "-")), other.get(key, ("-", "-"))
        if a[0] != b[0]:
            yield f"{key} {' '.join(a)} {' '.join(b)}", a[1] != b[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to import src/ and perfbench/ from")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workload names (default: all four)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--against", type=Path, default=None,
                        help="checkout to compare with: print the configs "
                             "whose digests differ, exit 1 if any does")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import expkant
    import workloads

    if Path(expkant.__file__).resolve().parent != root / "src" / "expkant":
        parser.error(f"expkant imported from {expkant.__file__}, "
                     f"not from {root / 'src'}")
    names = args.workloads or workloads.WORKLOADS
    if args.against is None:
        for row in digests(names, args.seeds):
            print(*row)
        return 0
    other = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--root", str(args.against.resolve()), "--workloads", *names,
         "--seeds", *map(str, args.seeds)],
        stdout=subprocess.PIPE, text=True)
    ours = [" ".join(map(str, row)) for row in digests(names, args.seeds)]
    theirs, _ = other.communicate()
    if other.returncode != 0:
        print(f"pool_digests.py on {args.against} exited {other.returncode}",
              file=sys.stderr)
        return 2
    lines = list(_differences(ours, theirs.splitlines()))
    for line, _ in lines:
        print(line)
    print(f"{len(lines)} of {len(ours)} reports differ, "
          f"{sum(verdict for _, verdict in lines)} verdicts", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
