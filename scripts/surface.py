#!/usr/bin/env python3
"""Size and public surface of the library crates.

    python3 scripts/surface.py lines      # non-test lines per crate, and the total
    python3 scripts/surface.py uncalled   # exit 1 if a `pub fn` has no outside caller

Non-test code is each `src/**/*.rs` up to its first top-level `#[cfg(test)]`;
a file declared as `#[cfg(test)] mod name;` in its parent is test code whole.

`uncalled` lists every `pub fn` in the non-test code of a library crate whose
name appears in no other `.rs` file of the repository (comment lines do not
count), minus the entries of `scripts/surface_exceptions.txt` (`<file>::<fn>`,
then a one-line reason). It is a name search: a same-named word elsewhere
hides an uncalled function, so the compiler stays the exhaustive audit (on a
scratch copy, mark every `pub fn` of one crate `#[deprecated]` and `cargo check`
every target: each warning is a use site).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARIES = ["lp", "mcf", "simnet", "topology", "schedule", "obs", "baselines", "core", "fft"]
COUNTED = ["lp", "mcf", "simnet", "topology", "schedule", "obs", "baselines", "bench", "core", "fft"]
TEST_ATTR = re.compile(r"^#\[cfg\(test\)\]")
PUB_FN = re.compile(r"^\s*pub (?:const )?fn (\w+)")
EXCEPTIONS = ROOT / "scripts" / "surface_exceptions.txt"


def is_test_module(path):
    """True if the parent module declares `path` behind `#[cfg(test)]`."""
    parent = path.parent
    for decl in (parent.with_suffix(".rs"), parent / "mod.rs", parent / "lib.rs"):
        if decl == path or not decl.exists():
            continue
        lines = decl.read_text().splitlines()
        for attr, item in zip(lines, lines[1:]):
            if TEST_ATTR.match(attr) and re.match(rf"^(pub(\(\w+\))? )?mod {path.stem};", item):
                return True
    return False


def non_test_lines(path):
    """The lines of `path` before its first top-level `#[cfg(test)]`."""
    if is_test_module(path):
        return []
    out = []
    for line in path.read_text().splitlines():
        if TEST_ATTR.match(line):
            break
        out.append(line)
    return out


def sources(crate):
    return sorted((ROOT / "crates" / crate / "src").rglob("*.rs"))


def lines():
    total = 0
    for crate in COUNTED:
        n = sum(len(non_test_lines(f)) for f in sources(crate))
        total += n
        print(f"{crate} {n:,}")
    print(f"total {total:,}")


def public_fns(path):
    """`pub fn` names in the non-test code of `path`, skipping `#[cfg(test)]` items."""
    body = non_test_lines(path)
    for i, line in enumerate(body):
        m = PUB_FN.match(line)
        if not m:
            continue
        j = i - 1
        gated = False
        while j >= 0 and body[j].strip().startswith(("#[", "///")):
            gated |= body[j].strip() == "#[cfg(test)]"
            j -= 1
        if not gated:
            yield m.group(1)


def uncalled():
    corpus = {}
    for f in ROOT.rglob("*.rs"):
        rel = f.relative_to(ROOT)
        if "target" in rel.parts or rel.parts[0].startswith("."):
            continue
        code = "\n".join(l for l in f.read_text().splitlines() if not l.strip().startswith("//"))
        corpus[rel] = set(re.findall(r"\w+", code))
    allowed = set()
    for line in EXCEPTIONS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            allowed.add(line.split()[0])
    found = []
    for crate in LIBRARIES:
        for f in sources(crate):
            rel = f.relative_to(ROOT)
            for name in public_fns(f):
                key = f"{rel}::{name}"
                if key in allowed:
                    allowed.discard(key)
                    continue
                if not any(name in words for other, words in corpus.items() if other != rel):
                    found.append(key)
    for key in found:
        print(f"uncalled: {key}")
    for key in sorted(allowed):
        print(f"stale exception: {key}")
    return 1 if found or allowed else 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "lines":
        lines()
    elif mode == "uncalled":
        sys.exit(uncalled())
    else:
        sys.exit(__doc__)
