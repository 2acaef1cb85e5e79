#!/usr/bin/env python3
"""Doc lint: keep README.md / docs/ / EXPERIMENTS.md consistent with the tree.

Three checks, all hard failures:

  1. Dead intra-repo links.  Every relative markdown link target
     (``[text](path)``) and every inline-code reference to a repo path
     (`` `src/...` ``, `` `docs/...` ``, ...) must exist in the checkout.

  2. Deleted-symbol references.  Symbols that completed their deprecation
     cycle must not be presented as current API.  A line may still *mention*
     them when it is describing the removal (contains "removed", "retired",
     or "deprecat"), which is how docs/API.md records the history.

  3. Shell-block smoke run.  Fenced ``sh``/``bash`` blocks are split into
     commands; the build-free ones (no ./build artifacts, binary on the
     allowlist) are executed from the repo root and must exit 0.  Commands
     that need compiled binaries are exercised by the CI build jobs, not
     here, so they are skipped (listed with --verbose).

Usage:  python3 tools/check_docs.py [--verbose]

Exits non-zero listing every violation; run it from anywhere (paths are
resolved against the repo root, the parent of this script's directory).
"""

import argparse
import pathlib
import re
import shlex
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "DESIGN.md",
    *sorted(p.relative_to(REPO).as_posix() for p in (REPO / "docs").glob("*.md")),
]

# Markdown link targets: [text](target).  Skip absolute URLs and
# pure-anchor links; strip a trailing #anchor from relative ones.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# Inline code that names a repo path: `src/fgq/vm/vm.cc`, `tests/regress/`,
# `docs/SEMIRINGS.md` ...  Only top-level dirs that exist in-tree count, so
# prose like `a/b` placeholders never false-positives.
PATH_DIRS = ("src/", "docs/", "tests/", "examples/", "bench/", "tools/",
             ".github/")
CODE_PATH_RE = re.compile(
    r"`((?:%s)[A-Za-z0-9_./-]+)`" % "|".join(re.escape(d) for d in PATH_DIRS))

# API removed from the tree (after a [[deprecated]] cycle, or deleted
# with the interpreter tier, the field DP, the VM count stream and the
# second join-tree DP).  Docs may describe the
# removal but must not present these as callable.
DELETED_SYMBOLS = [
    "QueryService::TrySubmit",
    "QueryService::Call",
    "TrySubmit(",
    "ExecTier",
    "default_tier",
    "MakePlanEnumerator",
    "PlanCursorEnumerator",
    "WeightedCountAcq0",
    "QueryResult",
    "--tier",
    "Database::version",
    "db_version",
    "MaterializeAcqComponents",
    "MergeAcqViews",
    "vm::RunCount",
    "PlanKey::semiring",
    "RandomBinaryDatabase",
    "count_code",
    "kCountSpan",
    "kCountProbeAll",
    "RunCountStream",
    "CountProbeGather",
    "SemiringSumAcq0",
    "SharedColumnOrder",
    "CountAcqDp",
]
REMOVAL_CONTEXT_RE = re.compile(r"removed|retired|deprecat", re.IGNORECASE)

# Binaries a doc shell block may invoke without a build tree.
BUILD_FREE_BINARIES = {"python3", "ls", "cat", "grep", "head", "tail", "wc",
                       "diff", "echo", "find"}
# Never execute these even though they are build-free: they mutate state or
# run long.  The CI build jobs cover them.
SKIP_BINARIES = {"cmake", "ctest", "git", "nc", "kill", "curl"}

FENCE_RE = re.compile(r"^```(\w*)\s*$")


def rel(path: pathlib.Path) -> str:
    return path.relative_to(REPO).as_posix()


def check_links(doc: pathlib.Path, text: str, errors: list):
    base = doc.parent
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            if not (base / target).exists():
                errors.append(f"{rel(doc)}:{lineno}: dead link -> {target}")
        for m in CODE_PATH_RE.finditer(line):
            target = m.group(1).rstrip("/")
            # `path:123` line references and glob mentions are fine to skip.
            if "*" in target:
                continue
            target = target.split(":", 1)[0]
            # Accept binary-name references (`tests/vm_test`) whose source
            # file exists with a C++ extension.
            candidates = [target] + [target + ext
                                     for ext in (".cc", ".cpp", ".h")]
            if not any((REPO / c).exists() for c in candidates):
                errors.append(
                    f"{rel(doc)}:{lineno}: references missing path {target}")


def check_deleted_symbols(doc: pathlib.Path, text: str, errors: list):
    lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        for sym in DELETED_SYMBOLS:
            if sym not in line:
                continue
            # Removal context may sit on an adjacent line of the same
            # sentence; scan a +/-2 line window.
            window = "\n".join(lines[max(0, lineno - 3):lineno + 2])
            if not REMOVAL_CONTEXT_RE.search(window):
                errors.append(
                    f"{rel(doc)}:{lineno}: presents deleted symbol {sym!r} "
                    "as current API (no removal context nearby)")


def shell_blocks(text: str):
    """Yield (first_lineno, language, [lines]) for each fenced code block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = FENCE_RE.match(lines[i])
        if not m:
            i += 1
            continue
        lang = m.group(1)
        start = i + 1
        j = start
        while j < len(lines) and not lines[j].startswith("```"):
            j += 1
        yield start + 1, lang, lines[start:j]
        i = j + 1


def extract_commands(block_lines):
    """Split a shell block into runnable commands (joining \\ continuations)."""
    commands, buf = [], ""
    for raw in block_lines:
        line = raw.strip()
        if line.startswith("$ "):  # prompt-style transcripts
            line = line[2:]
        if not line or line.startswith("#"):
            continue
        if line.endswith("\\"):
            buf += line[:-1] + " "
            continue
        commands.append((buf + line).strip())
        buf = ""
    if buf:
        commands.append(buf.strip())
    return commands


def smoke_run(doc: pathlib.Path, text: str, errors: list, verbose: bool):
    for lineno, lang, block in shell_blocks(text):
        if lang not in ("sh", "bash", "shell", "console"):
            continue
        for cmd in extract_commands(block):
            where = f"{rel(doc)}:{lineno}"
            try:
                argv = shlex.split(cmd)
            except ValueError:
                continue
            if not argv:
                continue
            binary = pathlib.PurePosixPath(argv[0]).name
            needs_build = any(tok.startswith(("./build", "build/"))
                              for tok in argv)
            if needs_build or binary in SKIP_BINARIES or cmd.endswith("&"):
                if verbose:
                    print(f"  skip  {where}: {cmd}")
                continue
            if binary not in BUILD_FREE_BINARIES:
                if verbose:
                    print(f"  skip  {where}: {cmd} (not build-free)")
                continue
            try:
                proc = subprocess.run(
                    cmd, shell=True, cwd=REPO, timeout=120,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                errors.append(f"{where}: timed out: {cmd}")
                continue
            if proc.returncode != 0:
                tail = proc.stdout.decode(errors="replace").strip()
                tail = tail.splitlines()[-1] if tail else ""
                errors.append(
                    f"{where}: exit {proc.returncode}: {cmd}  [{tail}]")
            elif verbose:
                print(f"  ran   {where}: {cmd}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--verbose", action="store_true",
                    help="list every command run or skipped")
    args = ap.parse_args()

    errors = []
    checked = 0
    for name in DOC_FILES:
        doc = REPO / name
        if not doc.exists():
            continue
        checked += 1
        text = doc.read_text(encoding="utf-8")
        check_links(doc, text, errors)
        check_deleted_symbols(doc, text, errors)
        smoke_run(doc, text, errors, args.verbose)

    if errors:
        print(f"check_docs: {len(errors)} problem(s) across {checked} file(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_docs: OK ({checked} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
