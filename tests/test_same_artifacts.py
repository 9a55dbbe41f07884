"""Smoke tests of tools/same_artifacts.py, the byte-identity check of two trees."""

import importlib.util
import json
import math
from pathlib import Path

from vortexlab.grid import GridSpec

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_artifacts", ROOT / "tools" / "same_artifacts.py")
same_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_artifacts)


def test_the_tree_matches_itself_on_the_run_configs(tmp_path):
    stems = [path.stem for path in same_artifacts.RUN_CONFIGS]
    assert stems == ["every_key_2d", "every_key_3d", "short_3d", "dealias_full_3d", "tracers_64_3d"]
    count, differ = same_artifacts.compare(ROOT, ROOT, same_artifacts.RUN_CONFIGS, tmp_path, cli=False)
    assert differ == []
    # every-key: report, manifest, tracer CSVs, five snapshots with diagnostics and the report text;
    # short_3d: report, manifest, 4 tracer CSVs, 2 snapshots without diagnostics and the report text;
    # dealias_full_3d: report, manifest, 3 tracer CSVs and the report text;
    # tracers_64_3d: report, manifest, 3 tracer CSVs, four snapshots with diagnostics and the report text
    assert count > 2 * (2 + 3 + 5 * 18 + 1) + (2 + 4 + 2 * 4 + 1) + (2 + 3 + 1) + (2 + 3 + 4 * 18 + 1)
    for stem in stems:
        text = (tmp_path / "tree" / "report" / f"{stem}.txt").read_text()
        assert text.startswith("system: ") and "growth-bound margins along tracers:" in text
    # 6 samples: the residuals take the short-run stencils
    header, *rows = (tmp_path / "tree" / "short_3d" / "tracers" / "tracer_000.csv").read_text().splitlines()
    assert len(rows) == 6 and "residual_vec_transport" in header
    report = json.loads((tmp_path / "tree" / "dealias_full_3d" / "report.json").read_text())
    assert report["grid"] == {"dim": 3, "n": 24, "length": 2 * math.pi, "dealias": 1.0}
    # n = 64: the RK4 stages, the tracers and the diagnostics run on padded work buffers
    report = json.loads((tmp_path / "tree" / "tracers_64_3d" / "report.json").read_text())
    assert report["grid"]["n"] == 64 and GridSpec(3, 64).work_buffer().strides[0] % 4096 != 0
    assert len(list((tmp_path / "tree" / "tracers_64_3d" / "snapshots").glob("snap_*_rho.bin"))) == 4


def test_the_tree_matches_itself_on_the_cli_json(tmp_path):
    assert [path.stem for path in same_artifacts.GRONWALL_SPECS] == ["gronwall_batch", "gronwall_single"]
    count, differ = same_artifacts.compare(ROOT, ROOT, [], tmp_path)
    assert differ == []
    cli = tmp_path / "tree" / "cli"
    written = sorted(path.name for path in cli.iterdir())
    assert written == [
        "check-identities-2d-scale1e154.txt", "check-identities-2d.json", "check-identities-2d.txt",
        "check-identities-3d-scale1e154.txt", "check-identities-3d.json", "check-identities-3d.txt",
        "gronwall_batch.json", "gronwall_single.json",
    ]
    assert count == len(written)
    for dim in (2, 3):
        report = json.loads((cli / f"check-identities-{dim}d.json").read_text())
        assert report["count"] == 20_000 and "elapsed_seconds" not in report
        passed = (cli / f"check-identities-{dim}d.txt").read_text()
        failed = (cli / f"check-identities-{dim}d-scale1e154.txt").read_text()
        assert passed.startswith(f"identity suite: dim={dim} count=20000 ") and "FAIL" not in passed
        assert "FAIL" in failed and "worst sample:" in failed
        assert "elapsed:" not in passed + failed


def _stub_tree(root: Path, files: dict, report: str = "tables") -> Path:
    """A tree whose `pipeline.run` writes `files` {name: text} and whose
    `vortexlab report` prints `report`."""
    package = root / "src" / "vortexlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"def main(argv):\n    print({report!r})\n    return 0\n")
    (package / "pipeline.py").write_text(
        "def load_config(path):\n    return path\n\n"
        "def run(config, out):\n"
        "    out.mkdir(parents=True)\n"
        f"    for name, text in {files!r}.items():\n"
        "        (out / name).write_text(text)\n"
    )
    return root


def test_differing_and_one_sided_files_are_named(tmp_path):
    tree = _stub_tree(tmp_path / "a", {"same": "x", "changed": "1", "mine": "m"})
    other = _stub_tree(tmp_path / "b", {"same": "x", "changed": "2", "theirs": "t"})
    config = tmp_path / "run.ini"
    config.write_text("")
    count, differ = same_artifacts.compare(tree, other, [config], tmp_path / "out", cli=False)
    assert (count, differ) == (5, ["run/changed", "run/mine", "run/theirs"])


def test_differing_report_text_is_named(tmp_path):
    tree = _stub_tree(tmp_path / "a", {"same": "x"}, report="old tables")
    other = _stub_tree(tmp_path / "b", {"same": "x"}, report="new tables")
    config = tmp_path / "run.ini"
    config.write_text("")
    count, differ = same_artifacts.compare(tree, other, [config], tmp_path / "out", cli=False)
    assert (count, differ) == (2, ["report/run.txt"])
