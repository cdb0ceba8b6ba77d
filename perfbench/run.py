#!/usr/bin/env python3
"""Offline benchmark of thematica's four user-facing commands.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 0

One run builds a fresh workspace of input files for the workload (in fresh
interpreters, several times, to time set-up), then drives the commands
in-process through ``thematica.cli.main`` as one closed-loop client, back
to back, until ``--seconds`` have passed:

1. ``analyze`` into an empty output directory (replaying the recorded session);
2. ``analyze`` resumed from a copy of an interrupted run's state;
3. ``verify``;
4. ``compare`` against two human coders.

Every command's output is checked; a command that exits with an unexpected
code, raises, or prints the wrong figures is counted as failed and left out
of every timing.  Timings are wall times scaled to a reference speed (see
``timed``).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` iterations
alternate between untraced and traced, and it carries the per-layer metrics
(see ``tracer.PER_LAYER``).  Work files go under ``.perfbench_work/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
COMMANDS = ("analyze", "resume", "verify", "compare")
_MB = 1e6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path,
                        help="build the workspace into this new directory and exit "
                             "(used to time set-up in a fresh interpreter)")
    return parser.parse_args(argv)


def _written_bytes() -> int:
    """Bytes this process has passed to write() so far (all threads)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


_REFERENCE_A = "we felt the change every day and nobody told us what to expect at all"
_REFERENCE_B = "we feel a change each day but somebody told them what to expect after all"
_PUNCTUATION = re.compile(r"[^\w\s]")
_REFERENCE_LABELS = tuple(f"{n}. **Theme-{n % 13}**: Cost of {n % 7} Things" for n in range(160))


def _reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    Two thirds of it fills edit-distance tables cell by cell, one third case
    folds, regex-substitutes and counts short labels: the two kinds of work
    the program spends its time on.
    """
    start = time.perf_counter()
    for _ in range(4):
        previous = list(range(len(_REFERENCE_B) + 1))
        for i, char in enumerate(_REFERENCE_A, start=1):
            current = [i] + [0] * len(_REFERENCE_B)
            for j, other in enumerate(_REFERENCE_B, start=1):
                cost = previous[j - 1] + (char != other)
                if previous[j] + 1 < cost:
                    cost = previous[j] + 1
                if current[j - 1] + 1 < cost:
                    cost = current[j - 1] + 1
                current[j] = cost
            previous = current
    seen: dict[str, int] = {}
    for _ in range(3):
        for label in _REFERENCE_LABELS:
            key = " ".join(_PUNCTUATION.sub(" ", label.casefold()).split())
            seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


# Time of the reference loop on an uncontended core of the 2 GHz Xeon vCPU the
# bounds were set on; scaled timings read as seconds at that speed.
REFERENCE_S = 0.0035


def timed(action) -> tuple[object, float]:
    """Run ``action``; return its result and its wall time at reference speed.

    The machine this benchmark was tuned on shares its cores: the same work
    ran up to twice as fast or as slow from one second to the next, and a
    run's medians moved by a quarter from one run to the next.  The
    reference loop, timed just before and just after the action, slows down
    with it, so the wall time is scaled by ``REFERENCE_S / reference loop
    time``.  The scaled time leaves out changes in machine speed, not
    changes in the program.
    """
    before = _reference_loop()
    start = time.perf_counter()
    result = action()
    elapsed = time.perf_counter() - start
    after = _reference_loop()
    return result, elapsed * REFERENCE_S * 2.0 / (before + after)


def _timed_setups(workload: str, seed: int, workspace: Path, repeats: int) -> list[float]:
    """Build the workspace ``repeats`` times, each in a fresh interpreter.

    The child may run on another core than this process, so it times the
    reference loop itself, once before importing anything and once when the
    workspace is ready; its wall time, less those two loops, is scaled by them.
    """
    times = []
    for _ in range(repeats):
        shutil.rmtree(workspace, ignore_errors=True)
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-into", str(workspace)],
            check=True, timeout=170, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        probes = json.loads(child.stdout.splitlines()[-1])["reference_s"]
        times.append((wall - sum(probes)) * REFERENCE_S * len(probes) / sum(probes))
    return times


class Checker:
    """Knows what each command must print and leave behind on one workspace."""

    def __init__(self, expect: dict) -> None:
        self.expect = expect
        self.cold_bytes: bytes | None = None

    def check(self, command: str, code: int, out: str, out_dir: Path,
              sends: int | None) -> str | None:
        """None when the command's output is right, else what is wrong."""
        e = self.expect
        lines = out.splitlines()
        if command in ("analyze", "resume"):
            if code != 0:
                return f"exit {code}"
            summary = (f"analysis complete: {e['codes']} codes, {e['emerging']} emerging labels, "
                       f"{e['themes']} themes")
            if summary not in lines:
                return f"missing {summary!r}"
            artifact = (out_dir / "analysis.json").read_bytes()
            if command == "analyze":
                self.cold_bytes = artifact
                results = json.loads(artifact)["trace"]["results"]
                levels = {level: 0 for level in e["trace"]}
                for result in results:
                    levels[result["level"]] += 1
                if levels != e["trace"]:
                    return f"artifact trace levels {levels}, expected {e['trace']}"
            else:
                if artifact != self.cold_bytes:
                    return "resumed analysis.json differs from the cold run's"
                if sends is not None and sends != e["resume_missing"]:
                    return f"resume sent {sends} requests, {e['resume_missing']} were missing"
            return None
        if command == "verify":
            failed = e["trace"]["Failed"]
            wanted = 3 if failed else 0
            if code != wanted:
                return f"exit {code}, expected {wanted}"
            summary = "trace summary: " + ", ".join(f"{k} {v}" for k, v in e["trace"].items())
            if summary not in lines:
                return f"missing {summary!r}"
            listed = sum(1 for line in lines if line.startswith("FAILED: "))
            return None if listed == failed else f"{listed} FAILED lines, expected {failed}"
        if code != 0:
            return f"exit {code}"
        wanted = [
            f"compared {e['similar']} human codes with {e['codes']} model codes: "
            f"difference {e['difference']}%",
            f"merged codebook: {e['merged']} codes ({e['similar']} similar counted once)",
            *(f"note: {note}" for note in e["notes"]),
        ]
        for text in wanted:
            if not any(line.startswith(text) for line in lines):
                return f"missing {text!r}"
        return None


def _output_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


def _command_lines(cold: Path, resumed: Path, compare_extra: list[str]) -> dict[str, list[str]]:
    base = ["--config", "run_config.json", "--output-dir"]
    return {
        "analyze": base + [str(cold), "analyze"],
        "resume": base + [str(resumed), "analyze"],
        "verify": base + [str(cold), "verify"],
        "compare": base + [str(cold), "compare", "--human", "coder1.csv",
                           "--human", "coder2.csv", *compare_extra],
    }


def _invoke(workloads, argv: list[str], tracer, command: str, iteration: int):
    if tracer is None:
        return workloads.run_cli(argv)
    with tracer.root(command, iteration):
        return workloads.run_cli(argv)


def _run(args, workloads, tracer_module) -> dict:
    workspace = WORK / args.workload
    WORK.mkdir(exist_ok=True)
    setup_times = _timed_setups(args.workload, args.seed, workspace,
                                1 if args.trace else SETUP_REPEATS)

    # Log lines (for example the note that coder CSVs carry no quotes) would
    # reach the benchmark's own stderr and count as written bytes; the
    # commands' printed output is what gets checked.
    logging.basicConfig(handlers=[logging.NullHandler()])
    tracer = tracer_module.Tracer() if args.trace else None
    expect = json.loads((workspace / "expect.json").read_text(encoding="utf-8"))
    checker = Checker(expect)
    compare_extra = ["--paper-reference", "paper_reference.json"] \
        if (workspace / "paper_reference.json").exists() else []

    times = {command: [] for command in COMMANDS}
    writes = {"analyze": [], "resume": []}
    walls = {False: [], True: []}
    contexts = {}
    failures: Counter = Counter()
    attempted = 0
    started = time.perf_counter()
    iteration = 0
    with workloads.inside(workspace):
        while True:
            traced = bool(args.trace) and iteration % 2 == 1
            here = Path(f"iteration-{iteration}")
            cold, resumed = here / "cold", here / "resume"
            shutil.copytree("snapshot", resumed)
            argvs = _command_lines(cold, resumed, compare_extra)
            if traced:
                tracer.install()
            wall = 0.0
            context = {"labels_compared": expect["labels_compared"],
                       "analyze_written": 0, "analyze_output": 0}
            for command in COMMANDS:
                attempted += 1
                written = _written_bytes()
                try:
                    (code, out, _), elapsed = timed(lambda: _invoke(
                        workloads, argvs[command], tracer if traced else None, command, iteration))
                except Exception as exc:  # a crash is a failed command, not a failed run
                    failures[command, f"{type(exc).__name__}: {exc}"] += 1
                    continue
                written = _written_bytes() - written
                out_dir = cold if command != "resume" else resumed
                sends = None
                if traced and command == "resume":
                    sends = tracer.count("gateway.send", command, iteration)
                problem = checker.check(command, code, out, out_dir, sends)
                if problem is not None:
                    failures[command, problem] += 1
                    continue
                wall += elapsed
                if command == "analyze":
                    context["analyze_written"] = written
                    context["analyze_output"] = _output_bytes(cold)
                if not traced:
                    times[command].append(elapsed)
                    if command in writes:
                        writes[command].append(written)
            if traced:
                tracer.remove()
                contexts[iteration] = context
            walls[traced].append(wall)
            shutil.rmtree(here)
            iteration += 1
            enough = not args.trace or (walls[True] and walls[False])
            if enough and time.perf_counter() - started >= args.seconds:
                break

    for (command, cause), count in sorted(failures.items()):
        print(f"perfbench: {args.workload}: {command} failed {count} time(s): {cause}",
              file=sys.stderr)
    failed = sum(failures.values())
    if args.trace:
        tracer.dump(workspace / "spans.json")
        traced_iterations = sorted(contexts)
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics = tracer_module.layer_metrics(tracer, traced_iterations, contexts, overhead)
    else:
        missing = [command for command in COMMANDS if not times[command]]
        if missing:
            print(f"perfbench: no successful {', '.join(missing)} to time", file=sys.stderr)
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            **{f"{command}_s": (statistics.median(times[command]), "s") for command in COMMANDS},
            "analyze_write_mb": (statistics.median(writes["analyze"]) / _MB, "MB"),
            "resume_write_mb": (statistics.median(writes["resume"]) / _MB, "MB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "op_success_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "thematica" / "__init__.py").is_file():
        print(f"perfbench: no thematica sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    probe = _reference_loop() if args.setup_into is not None else None
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs the source path)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        workloads.build_workspace(args.workload, args.seed, args.setup_into.resolve())
        print(json.dumps({"reference_s": [probe, _reference_loop()]}))
        return 0
    import tracer  # noqa: E402

    result = _run(args, workloads, tracer)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
