#!/usr/bin/env python3
"""Documentation consistency checks, run by .github/workflows/docs.yml.

1. Every intra-repo markdown link in tracked *.md files resolves to an
   existing file (external http(s)/mailto links and pure anchors are
   skipped; an optional #fragment is stripped before checking).
2. docs/ARCHITECTURE.md mentions every component directory under src/
   (a directory guide that silently omits a component goes stale first).
3. Every metric family and error-code name the contract docs commit to in
   backticks (docs/QOS.md: tenant_*_total counters, the Backpressure code;
   docs/OBSERVABILITY.md: the margo_* runtime metrics) exists verbatim in
   the source tree — placeholder segments like `<id>` are split out and
   the literal fragments around them are grepped for, so renaming a
   metric in src/ without updating its doc fails CI.

Exits non-zero listing every violation.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — good enough for the hand-written markdown in this repo;
# skips fenced code blocks so JSON/C++ snippets can't produce false links.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def tracked_markdown():
    # -c -o --exclude-standard: tracked plus new-but-not-ignored files, so
    # a doc added in the same change is checked before it is ever staged.
    out = subprocess.run(
        ["git", "ls-files", "-c", "-o", "--exclude-standard", "*.md"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout
    # Skip index entries whose file is gone (staged deletions).
    return [REPO / line for line in out.splitlines()
            if line and (REPO / line).exists()]


def iter_links(path):
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def check_links(md_files):
    errors = []
    for path in md_files:
        for lineno, target in iter_links(path):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                rel = path.relative_to(REPO)
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def check_architecture_mentions_every_component():
    doc = REPO / "docs" / "ARCHITECTURE.md"
    if not doc.exists():
        return ["docs/ARCHITECTURE.md is missing"]
    text = doc.read_text()
    errors = []
    for entry in sorted((REPO / "src").iterdir()):
        if not entry.is_dir():
            continue
        if f"src/{entry.name}/" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: no mention of src/{entry.name}/")
    return errors


# Backticked names each contract doc commits to, which must exist in src/:
# metric families (snake_case ending in a unit or _total) and error-code
# identifiers.
DOC_NAME_RES = {
    "QOS.md": [re.compile(r"`(tenant_[A-Za-z0-9_<>]*_total)`"),
               re.compile(r"`(Backpressure|backpressure)`")],
    "OBSERVABILITY.md": [re.compile(r"`(margo_[A-Za-z0-9_<>]*)`")],
}


def check_doc_names_exist_in_source():
    sources = []
    for pattern in ("*.cpp", "*.hpp"):
        sources.extend((REPO / "src").rglob(pattern))
    blob = "\n".join(p.read_text() for p in sources)

    errors = []
    for doc_name, regexes in DOC_NAME_RES.items():
        doc = REPO / "docs" / doc_name
        if not doc.exists():
            errors.append(f"docs/{doc_name} is missing")
            continue
        text = doc.read_text()
        names = set()
        for regex in regexes:
            names |= set(regex.findall(text))
        if not names:
            errors.append(f"docs/{doc_name}: no backticked metric/error names "
                          "found (the contract must name its observables)")
        for name in sorted(names):
            # `tenant_<id>_ops_total` documents a family: every literal
            # fragment around the <...> placeholders must appear in source
            # (the code builds the name by concatenating those fragments).
            fragments = [f for f in re.split(r"<[^>]*>", name) if f]
            missing = [f for f in fragments if f not in blob]
            if missing:
                errors.append(
                    f"docs/{doc_name}: `{name}` not found in src/ "
                    f"(missing fragment(s): {', '.join(missing)})")
    return errors


def main():
    errors = check_links(tracked_markdown())
    errors += check_architecture_mentions_every_component()
    errors += check_doc_names_exist_in_source()
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"\n{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
