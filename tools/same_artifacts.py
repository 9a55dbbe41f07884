"""Compare the run artifacts, report text and CLI JSON of this tree and another, byte for byte.

    python3 tools/same_artifacts.py OTHER_TREE

For each tree, in its own Python process with that tree's `src` first on the
path, runs `pipeline.load_config` and `pipeline.run` on the same configuration
files: the run workloads of `benchmarks/workloads.py` (`config_text(seed)`)
at seeds 0 and 11, and the run configurations beside this script (the
every-key ones, every_key_*.ini; short_3d.ini, whose 6 samples take the
residuals' short-run stencils; dealias_full_3d.ini, which keeps every mode;
and tracers_64_3d.ini, whose n = 64 RK4 stages, tracers and diagnostic
snapshots run on the padded work buffers of `GridSpec.work_buffer`). The
same process writes the stdout of `vortexlab report` on each run's output
directory to report/<config stem>.txt. In a second process it writes the
JSON of `vortexlab gronwall --json` on the specs beside this script
(gronwall_*.ini) and of `vortexlab check-identities --json` in 2D and 3D at
20,000 samples, without the wall-clock `elapsed_seconds`, and the stdout of
`check-identities` in 2D and 3D at 20,000 samples (a pass) and at 2,000
samples of scale 1e154 (a failure that prints the worst sample), without its
`elapsed:` line.
Then compares every file written by sha256, names each file that differs or
that only one tree wrote, and exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 11)
HERE = Path(__file__).resolve().parent
RUN_CONFIGS = sorted(HERE.glob("every_key_*.ini")) + [
    HERE / name for name in ("short_3d.ini", "dealias_full_3d.ini", "tracers_64_3d.ini")
]
GRONWALL_SPECS = sorted(HERE.glob("gronwall_*.ini"))

# argv: the tree's src, the output directory and the config files; each
# config's artifacts go to the directory named after its stem, and the text
# that `vortexlab report` prints on them to report/<stem>.txt
RUN = """
import contextlib
import io
import sys
from pathlib import Path
import vortexlab
from vortexlab import pipeline
from vortexlab.cli import main
assert Path(vortexlab.__file__).resolve().is_relative_to(sys.argv[1]), vortexlab.__file__
out = Path(sys.argv[2])
(out / "report").mkdir(parents=True)
for path in map(Path, sys.argv[3:]):
    pipeline.run(pipeline.load_config(path), out / path.stem)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["report", str(out / path.stem)]) == 0, path
    (out / "report" / f"{path.stem}.txt").write_text(text.getvalue())
"""

# argv: the tree's src, the output directory and the gronwall specs; the JSON
# and the check-identities stdout go to cli/ in the output directory
CLI = """
import contextlib
import io
import json
import sys
from pathlib import Path
import vortexlab
from vortexlab.cli import main
assert Path(vortexlab.__file__).resolve().is_relative_to(sys.argv[1]), vortexlab.__file__
out = Path(sys.argv[2]) / "cli"
for path in map(Path, sys.argv[3:]):
    main(["gronwall", str(path), "--json", str(out / f"{path.stem}.json")])

def check_identities(stem, *options):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        main(["check-identities", *options])
    lines = text.getvalue().splitlines(keepends=True)
    (out / f"{stem}.txt").write_text("".join(line for line in lines if not line.startswith("elapsed:")))

for dim in (2, 3):
    path = out / f"check-identities-{dim}d.json"
    check_identities(path.stem, "--dim", str(dim), "--count", "20000", "--json", str(path))
    report = json.loads(path.read_text())
    del report["elapsed_seconds"]
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    # fails: the kernel's |S v| and |P v| overflow, and the worst sample is printed
    check_identities(f"check-identities-{dim}d-scale1e154", "--dim", str(dim), "--count", "2000", "--scale", "1e154")
"""


def workload_configs(directory: Path) -> list[Path]:
    """The config files of the run workloads at SEEDS, written to `directory`."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS

    paths = []
    for workload in WORKLOADS.values():
        for seed in SEEDS if workload.kind == "run" else ():
            path = directory / f"{workload.name}-seed{seed}.ini"
            path.write_text(workload.config_text(seed))
            paths.append(path)
    return paths


def artifacts(tree: Path, configs: list[Path], out: Path, cli: bool) -> dict:
    """{path relative to `out`: sha256} of the runs of `configs` in `tree`,
    and of its CLI JSON if `cli`."""
    src = str(Path(tree).resolve() / "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", RUN, src, str(out), *map(str, configs)], env=env, check=True)
    if cli:
        command = [sys.executable, "-c", CLI, src, str(out), *map(str, GRONWALL_SPECS)]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def compare(
    tree: Path, other: Path, configs: list[Path], scratch: Path, cli: bool = True
) -> tuple[int, list[str]]:
    """(files compared, the sorted names of those that differ)."""
    mine = artifacts(tree, configs, scratch / "tree", cli)
    theirs = artifacts(other, configs, scratch / "other", cli)
    names = mine.keys() | theirs.keys()
    return len(names), sorted(name for name in names if mine.get(name) != theirs.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the tree to compare with this one")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        configs = workload_configs(Path(tmp)) + RUN_CONFIGS
        count, differ = compare(ROOT, args.other, configs, Path(tmp))
    for name in differ:
        print(f"differs: {name}")
    print(f"{count} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
