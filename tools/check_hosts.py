#!/usr/bin/env python3
"""Fail when a library header has no host outside its own .cpp and tests.

Every ``src/**/*.hpp`` must be ``#include``d by at least one file under
``src/``, ``bench/``, ``benchmark/`` or ``examples/`` other than its own
``.cpp``. A header only tests include is a module that no node, fleet,
bench or example runs: give it a host or delete it.

Usage:
    check_hosts.py [--root REPO]

Exit code: 0 when every header has a host, 1 otherwise (each orphan named).
The tool only reads files.
"""

import argparse
import os
import re
import sys

HOST_DIRS = ("src", "bench", "benchmark", "examples")
SOURCE_EXTS = (".hpp", ".h", ".cpp", ".cc")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def sources(root, top):
    for dirpath, _, files in os.walk(os.path.join(root, top)):
        for name in files:
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def included_headers(root, path):
    """Resolve each quoted include against the file's directory, then src/."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    for inc in INCLUDE.findall(text):
        for base in (os.path.dirname(path), os.path.join(root, "src")):
            cand = os.path.normpath(os.path.join(base, inc))
            if os.path.isfile(cand):
                yield cand
                break


def orphans(root):
    root = os.path.abspath(root)
    headers = sorted(p for p in sources(root, "src") if p.endswith(".hpp"))
    hosted = set()
    for top in HOST_DIRS:
        for path in sources(root, top):
            own_header = os.path.splitext(path)[0] + ".hpp" if path.endswith(".cpp") else None
            for hdr in included_headers(root, path):
                if hdr != own_header:
                    hosted.add(hdr)
    return [os.path.relpath(h, os.path.join(root, "src")) for h in headers if h not in hosted]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                   os.pardir),
                    help="repository root (default: this script's parent)")
    args = ap.parse_args()
    found = orphans(args.root)
    for rel in found:
        print(f"ORPHAN  src/{rel}: no include from {', '.join(HOST_DIRS)} "
              f"outside its own .cpp")
    if found:
        print(f"\n{len(found)} header(s) without a host")
        return 1
    print("every src header has a host")
    return 0


if __name__ == "__main__":
    sys.exit(main())
