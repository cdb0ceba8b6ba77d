"""Golden manifest: every output byte of the benchmark's four commands.

The three benchmark workspaces (the shipped sample, long-interview and
paraphrase, at seed 1) are built in process with
``perfbench/workloads.build_workspace``, and the benchmark's own command
lines (``perfbench/run.py``'s ``_command_lines``) run on each: cold
``analyze``, ``analyze`` resumed from a copy of ``snapshot/``, ``verify``,
and ``compare`` with both coders.  Then ``report`` rebuilds the reports from
the cold artifact, and ``compare`` with both coders runs once more in each
matcher mode that the workspace's config does not name, each into its own
output directory.  For each command the manifest holds its
exit code, the SHA-256 of its standard output, and the SHA-256 of each file
it wrote, that is each file of its output directory that is new or holds
new bytes.  A change that moves any of these bytes fails here, and the
failure names each entry that differs.

A change that alters an output on purpose regenerates the manifest, from
the root of a source checkout, with

    PYTHONPATH=src python tests/test_golden_manifest.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as bench  # noqa: E402
import workloads  # noqa: E402

from thematica.codebook import ALIAS_MAP, MATCHER_MODES  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"
SEED = 1


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, str]:
    """The SHA-256 of each file under ``directory``, by its path from the workspace."""
    if not directory.exists():
        return {}
    return {str(path): _digest(path.read_bytes())
            for path in sorted(directory.rglob("*")) if path.is_file()}


def _more_command_lines(cold: Path, extra: list[str]) -> dict[str, list[str]]:
    """``report`` from the cold artifact, and ``compare`` in each matcher mode
    the benchmark does not run on the workspace."""
    config = json.loads(Path("run_config.json").read_text(encoding="utf-8"))
    base, artifact = ["--config", "run_config.json", "--output-dir"], str(cold / "analysis.json")
    argvs = {"report": base + ["rebuilt", "report", "--artifact", artifact]}
    for mode in MATCHER_MODES:
        if mode != config["matcher"]:
            aliases = ["--alias-map", "alias_map.csv"] if mode == ALIAS_MAP else []
            argvs[f"compare-{mode}"] = base + [
                f"compare-{mode}", "compare", "--artifact", artifact, "--human", "coder1.csv",
                "--human", "coder2.csv", "--matcher", mode, *aliases, *extra]
    return argvs


def _workload_entries(workload: str, workspace: Path) -> dict[str, object]:
    workloads.build_workspace(workload, SEED, workspace)
    entries: dict[str, object] = {}
    with workloads.inside(workspace):
        cold, resumed = Path("cold"), Path("resume")
        shutil.copytree("snapshot", resumed)
        extra = ["--paper-reference", "paper_reference.json"] \
            if Path("paper_reference.json").exists() else []
        argvs = {**bench._command_lines(cold, resumed, extra), **_more_command_lines(cold, extra)}
        for command, argv in argvs.items():
            out_dir = Path(argv[argv.index("--output-dir") + 1])
            before = _files(out_dir)
            code, out, _ = workloads.run_cli(argv)
            prefix = f"{workload}/{command}"
            entries[f"{prefix}/exit"] = code
            entries[f"{prefix}/stdout"] = _digest(out.encode("utf-8"))
            entries.update((f"{prefix}/{name}", digest) for name, digest in _files(out_dir).items()
                           if before.get(name) != digest)
    return entries


def build_manifest(root: Path) -> dict[str, object]:
    """Every entry of the manifest, from workspaces built under ``root``."""
    manifest: dict[str, object] = {}
    for workload in workloads.WORKLOADS:
        manifest.update(_workload_entries(workload, root / workload))
    return manifest


def _differences(expected: dict, actual: dict) -> list[str]:
    return [f"{name}: manifest {expected.get(name, 'absent')}, now {actual.get(name, 'absent')}"
            for name in sorted(expected.keys() | actual.keys())
            if expected.get(name) != actual.get(name)]


def test_every_benchmark_output_keeps_its_bytes(tmp_path: Path) -> None:
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differences = _differences(expected, build_manifest(tmp_path))
    assert not differences, "\n".join(
        [f"{len(differences)} manifest entries differ:", *differences])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        entries = build_manifest(Path(scratch))
    MANIFEST.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
