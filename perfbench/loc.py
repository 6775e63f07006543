#!/usr/bin/env python3
"""Non-test lines of Rust code per crate (informational, not gated).

Counts lines of `src/**/*.rs` that are neither blank nor comment-only,
skipping `#[cfg(test)]` modules; `tests/`, `benches/` and `examples/`
are not counted. Run from the repository root: `python3 perfbench/loc.py`.
"""

import pathlib


def count_file(path):
    n = 0
    skip_depth = None  # brace depth at which a #[cfg(test)] module ends
    depth = 0
    pending_test = False
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if skip_depth is None and line == "#[cfg(test)]":
            pending_test = True
            continue
        if pending_test and line.startswith("mod ") and line.endswith("{"):
            skip_depth = depth
        pending_test = False
        depth += line.count("{") - line.count("}")
        if skip_depth is not None:
            if depth <= skip_depth:
                skip_depth = None
            continue
        if line and not line.startswith("//"):
            n += 1
    return n


def main():
    root = pathlib.Path(".")
    crates = [("dlflow (root)", root)]
    crates += [(p.name, p) for p in sorted(root.glob("crates/*")) if p.is_dir()]
    crates += [(p.name, p) for p in sorted(root.glob("perfbench")) if p.is_dir()]
    total = 0
    for name, path in crates:
        n = sum(count_file(f) for f in sorted((path / "src").rglob("*.rs")))
        total += n
        print(f"{name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")


if __name__ == "__main__":
    main()
