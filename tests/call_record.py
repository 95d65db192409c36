"""List the public functions of ``src/repro`` that no entry point runs.

Run from the repository root (about four minutes on a 2-vCPU VM)::

    PYTHONPATH=src python tests/call_record.py

With ``sys.setprofile`` recording every Python call, this process runs
each entry point of the repository from a temporary directory:

* every CLI subcommand, with ``--observe`` where it exists, plus
  ``trace --ascii`` and ``analyze`` in all three formats and with
  ``--against``;
* every block of the experiments runner;
* the traced run of each ``perf/`` workload (one untraced and one traced
  pass over its traced blocks, checks included);
* the seven ``examples/``.

Then it runs, under bash and unrecorded, every CI workflow step that
feeds an inline ``python - <<'EOF'`` script, so that deleting a function
one of those scripts still calls fails here and not only in CI.  Last
it prints each public function or method defined in ``src/repro``
whose code never ran, as ``path:line qualified.name``.  Public means
defined at module level or in a class body, with a name that does not
start with ``_`` (dunder methods count), in a class whose name does not
either.  Work done in worker processes is not recorded, so every entry
point runs with one worker.  The file name keeps pytest from collecting
it.

The record is a gate: it exits 1 when a CI script fails, when a
function that never ran is missing from :data:`JUSTIFIED`, or when an
entry there now runs or is gone (a stale reason), and 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PERF = ROOT / "perf"
EXAMPLES = ROOT / "examples"
WORKFLOWS = ROOT / ".github" / "workflows"

#: (file, first line) of every code object that started running.
Key = Tuple[str, int]

#: ``path qualified.name`` of each public function that no entry point
#: runs and that stays anyway -> the one-line reason it stays.  A
#: function that no entry point runs otherwise belongs in a pinned runner
#: block, in ``tests/oracles/`` or nowhere.
JUSTIFIED: Dict[str, str] = {}


def public_functions() -> Dict[Key, str]:
    """(file, first line) -> qualified name of each public function.

    The first line of a decorated function's code object is its first
    decorator's line, so the key uses the same.
    """
    found: Dict[Key, str] = {}

    def visit(body: List[ast.stmt], path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    continue
                first = min([node.lineno] + [decorator.lineno for decorator
                                             in node.decorator_list])
                found[(path, first)] = prefix + name

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, str(path), "")
    return found


@contextlib.contextmanager
def recording(seen: Set[Key]) -> Iterator[None]:
    """Add the code of every Python call in this process to ``seen``."""

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def cli_runs(out: Path) -> List[List[str]]:
    """Every CLI subcommand, ``trace --ascii`` and ``analyze``."""
    trace = str(out / "schedule" / "trace.json")
    perfetto = str(out / "critical.json")
    runs = [
        [],
        ["simulate"],
        ["compare"],
        ["experiments", "Table 3", "--workers", "1"],
        ["dse", "--limit", "8", "--workers", "1", "--batch", "8",
         "--seq-len", "128", "--observe", str(out / "dse")],
        ["binding"],
        ["embed", "MKTAYIAKQRQISFVKSHFSRQ", "MEYQ"],
        ["embed", "MKTAYIAKQRQISFVKSHFSRQ", "--functional"],
        ["zoo"],
        ["reliability", "--observe", str(out / "reliability")],
        ["reliability", "--sweep", "--workers", "1",
         "--observe", str(out / "sweep")],
        ["fleet", "--list"],
        ["fleet", "--scenario", "all", "--tiny", "--workers", "1"],
        ["fleet", "--tiny", "--observe", str(out / "fleet")],
        ["fleet", "--tiny", "--heterogeneous", "--per-instance",
         "--breaker-failures", "1", "--racks", "2", "--hosts-per-rack",
         "1", "--instances-per-host", "3"],
        ["trace", "--observe", str(out / "schedule")],
        ["trace", "--workload", "all", "--ascii",
         "--observe", str(out / "all")],
    ]
    for form in ("ascii", "json"):
        runs.append(["analyze", "--trace", trace, "--format", form,
                     "--out", str(out / f"analysis.{form}")])
    runs.append(["analyze", "--trace", trace, "--format", "perfetto",
                 "--out", perfetto])
    runs.append(["analyze", "--trace", perfetto, "--against", trace])
    runs.append(["analyze", "--trace", perfetto, "--against", trace,
                 "--format", "json", "--out", str(out / "diff.json")])
    runs.append(["analyze", "--trace", str(out / "fleet" / "trace.json")])
    return runs


def run_cli() -> None:
    from repro.cli import main

    for argv in cli_runs(Path.cwd()):
        main(argv)


def run_experiments() -> None:
    from repro.experiments.runner import EXPERIMENTS

    for _exp_id, _title, run_fn, format_fn in EXPERIMENTS:
        format_fn(run_fn())


def run_perf() -> None:
    sys.path.insert(0, str(PERF))
    import run
    from workloads import WORKLOADS

    golden = run.load_golden()
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(1, golden)
        workload.setup()
        tally, _probe, _untraced = run.traced_phase(workload)
        if tally.failed:
            raise SystemExit(f"perf workload {name}: {tally.failed} "
                             f"op(s) failed")


def run_examples() -> None:
    for path in sorted(EXAMPLES.glob("*.py")):
        argv, sys.argv = sys.argv, [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


def ci_scripts() -> List[Tuple[str, str]]:
    """(step name, bash script) of each workflow step with inline Python.

    Read line by line (the job installs no YAML parser): a step's script
    is the block under its ``run: |`` key.
    """
    steps: List[Tuple[str, str]] = []
    for path in sorted(WORKFLOWS.glob("*.yml")):
        lines = path.read_text(encoding="utf-8").splitlines()
        name = ""
        for index, line in enumerate(lines):
            text = line.strip()
            if text.startswith("- name:"):
                name = text[len("- name:"):].strip()
            if text != "run: |":
                continue
            indent = len(line) - len(line.lstrip())
            body = []
            for follow in lines[index + 1:]:
                if follow.strip() and len(follow) - len(follow.lstrip()) \
                        <= indent:
                    break
                body.append(follow)
            script = textwrap.dedent("\n".join(body))
            if "python - <<'EOF'" in script:
                steps.append((name, script))
    return steps


def run_ci_scripts(workdir: Path) -> int:
    """Run each :func:`ci_scripts` step as CI does; 1 if any fails."""
    (workdir / "src").symlink_to(ROOT / "src")
    runner_temp = workdir / "runner_temp"
    runner_temp.mkdir()
    env = dict(os.environ, GITHUB_WORKSPACE=str(ROOT),
               RUNNER_TEMP=str(runner_temp),
               PATH=os.pathsep.join([os.path.dirname(sys.executable),
                                     os.environ.get("PATH", "")]))
    for name, script in ci_scripts():
        done = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
             script], cwd=workdir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"CI step failed: {name}\n{done.stdout}{done.stderr}")
            return 1
    return 0


def main() -> int:
    seen: Set[Key] = set()
    stages = (("cli", run_cli), ("experiments", run_experiments),
              ("perf", run_perf), ("examples", run_examples))
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for label, stage in stages:
                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        recording(seen):
                    stage()
                print(f"ran {label} in {time.perf_counter() - started:.1f} s",
                      file=sys.stderr)
            started = time.perf_counter()
            failed = run_ci_scripts(Path(workdir))
            print(f"ran ci scripts in {time.perf_counter() - started:.1f} s",
                  file=sys.stderr)
        finally:
            os.chdir(cwd)

    functions = public_functions()
    never = sorted(key for key in functions if key not in seen)
    names = set()
    for path, line in never:
        relative = os.path.relpath(path, ROOT)
        name = f"{relative} {functions[(path, line)]}"
        names.add(name)
        reason = JUSTIFIED.get(name, "NOT JUSTIFIED")
        print(f"{relative}:{line} {functions[(path, line)]}  # {reason}")
    print(f"{len(never)} of {len(functions)} public functions never ran")
    missing = sorted(names - set(JUSTIFIED))
    stale = sorted(set(JUSTIFIED) - names)
    for name in stale:
        print(f"stale JUSTIFIED entry (it runs or is gone): {name}")
    if missing or stale:
        print(f"{len(missing)} unjustified, {len(stale)} stale")
        return 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
