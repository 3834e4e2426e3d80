#!/usr/bin/env python3
"""Verify that relative markdown links and Rust item paths in the doc
layer resolve.

Usage: check_doc_links.py [ROOT]

Scans README.md, DESIGN.md and docs/*.md (relative to ROOT, default the
repository root inferred from this script's location) for:

* inline markdown links `[text](target)`. Every relative target must
  exist on disk, resolved against the file the link appears in;
  `#anchors` are stripped first. Absolute URLs (http/https/mailto) and
  pure in-page anchors are skipped.
* backticked item paths `privateer*::a::b` (a trailing `()` and
  `{x, y}` groups allowed). Every segment after the crate must be
  defined in that crate's sources (`crates/<crate>/src`, where the
  crate `privateer` is `crates/core` and `privateer_x` is `crates/x`)
  as a `fn`, `struct`, `enum`, `trait`, `mod`, `const`, `type` or
  `static`, or re-exported by a `pub use`.
"""

import pathlib
import re
import sys

# Inline links only; reference-style links are not used in this repo.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

ITEM_PATH = re.compile(r"`(privateer\w*)((?:::\w+)*(?:::\{[\w\s,]+\})?)(?:\(\))?`")
DEFINITION = re.compile(r"\b(?:fn|struct|enum|trait|mod|const|type|static)\s+(\w+)")
PUB_USE = re.compile(r"\bpub use\s+([^;]+);")


def doc_files(root: pathlib.Path):
    for name in ("README.md", "DESIGN.md"):
        p = root / name
        if p.exists():
            yield p
    yield from sorted((root / "docs").glob("*.md"))


def crate_names(root: pathlib.Path, crate: str, cache: dict):
    """Every item name defined or `pub use`d in `crate`'s sources, or
    None when the crate has no source directory."""
    if crate not in cache:
        sub = "core" if crate == "privateer" else crate.removeprefix("privateer_")
        src = root / "crates" / sub / "src"
        names = None
        if src.is_dir():
            names = set()
            for rs in src.rglob("*.rs"):
                text = rs.read_text()
                names.update(DEFINITION.findall(text))
                for used in PUB_USE.findall(text):
                    # `a::{B, C as D}` and `a::B as C` export their last
                    # segment or their alias.
                    for leaf in re.split(r"[{},]", used):
                        words = leaf.strip().split()
                        if words:
                            names.add(words[-1].split("::")[-1])
        cache[crate] = names
    return cache[crate]


def unresolved(root: pathlib.Path, crate: str, rest: str, cache: dict):
    """The segments of `crate` + `rest` that no source defines."""
    names = crate_names(root, crate, cache)
    if names is None:
        return [crate]
    segments = re.split(r"::|[{},\s]+", rest)
    return [s for s in segments if s and s not in names]


def main():
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent
    )
    links = 0
    paths = 0
    broken = []
    cache = {}
    for md in doc_files(root):
        for lineno, line in enumerate(md.read_text().splitlines(), start=1):
            where = f"{md.relative_to(root)}:{lineno}"
            for target in LINK.findall(line):
                if target.startswith(SKIP_PREFIXES):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                links += 1
                if not (md.parent / rel).exists():
                    broken.append(f"{where}: {target}")
            for crate, rest in ITEM_PATH.findall(line):
                if not rest:
                    continue
                paths += 1
                missing = unresolved(root, crate, rest, cache)
                if missing:
                    broken.append(
                        f"{where}: `{crate}{rest}` ({', '.join(missing)} not defined)"
                    )
    if broken:
        sys.exit("error: broken links or item paths:\n  " + "\n  ".join(broken))
    print(f"ok: {links} relative links and {paths} item paths resolve")


if __name__ == "__main__":
    main()
