#!/usr/bin/env python3
"""Lists the library functions that no non-test binary keeps, and checks them
against the committed keep-list.

Usage:
  tools/reachability.py --build DIR --perfbench EXE [--keep FILE]

DIR must be a build of this repository made at -O0 with
-ffunction-sections, -fkeep-inline-functions and -Wl,--gc-sections (and
tests off), so that every inline function a library file sees is emitted,
the linker drops every function a binary does not reach and no call is
hidden by inlining; EXE is icn_perfbench built the same way from perfbench/:

  cmake -B DIR -S . -DCMAKE_BUILD_TYPE=Debug -DICN_BUILD_TESTS=OFF \\
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fkeep-inline-functions" \\
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build DIR -j
  cmake -S perfbench -B PB -DCMAKE_BUILD_TYPE=Debug \\
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fkeep-inline-functions" \\
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build PB -j --target icn_perfbench

Defined: the global text symbols (nm type T) of DIR/src/*/*.a, plus their
weak symbols (W) that are functions defined inline in this repository's
headers: the qualified name (the demangled text before the parameter list)
starts with icn::, holds no std:: and no space (a template instantiation
prints its return type first), and names neither a constructor, a
destructor nor an assignment operator (operator=), which the compiler
writes for most types and no source line defines. A comparison declared
"= default" counts like any other function, since its declaration is a
line one can delete. Kept: every symbol of type T, t, W or w in an executable under
DIR/examples, DIR/bench or DIR/tools, or in EXE. A defined function that
no executable keeps is unreached. Names are compared demangled, with
[abi:...] tags stripped, so a constructor counts as kept when any of its
variants is.

Out of reach: function templates (util::parallel_reduce,
util::pick_kernel), whose instantiations print a return type first; an
inline function in a header no library file includes; and a comparison
declared "= default" that no library file uses, since the compiler writes
one only where something compares.

The keep-list holds one unreached function per line, as
"<demangled signature>  # <why it stays>"; blank lines and lines starting
with '#' are ignored. Exits 1, naming each one, when an unreached function
is missing from the keep-list or a keep-list entry is no longer unreached
(stale).
"""
import argparse
import os
import re
import subprocess
import sys

ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
NM_LINE = re.compile(r"^[0-9a-fA-F]+ ([A-Za-z]) (.+)$")
QUALIFIERS = re.compile(r"( const| volatile| &&| &)+$")
SEPARATOR = "  # "


def symbols(paths, types):
    """Demangled names of the defined symbols of the given types."""
    out = subprocess.run(["nm", "--defined-only", "-C", *paths],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m and m.group(1) in types:
            names.add(ABI_TAG.sub("", m.group(2)))
    return names


def qualified_name(signature):
    """The text before the parameter list: "a::B::operator()" for
    "a::B::operator()(int) const"."""
    head = QUALIFIERS.sub("", signature)
    if not head.endswith(")"):
        return head
    depth = 0
    for i in range(len(head) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(head[i], 0)
        if depth == 0:
            return head[:i]
    return head


def is_header_inline(signature):
    """A weak library symbol that is a function written in a header here."""
    name = qualified_name(signature)
    if not name.startswith("icn::") or "std::" in name or " " in name:
        return False
    parts = name.split("::")
    last = parts[-1]
    return not (last.startswith("~") or last == "operator="
                or last == parts[-2].split("<")[0])


def is_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(build):
    found = []
    for sub in ("examples", "bench", "tools"):
        for root, dirs, files in os.walk(os.path.join(build, sub)):
            dirs[:] = [d for d in dirs if d != "CMakeFiles"]
            found += [os.path.join(root, f) for f in files
                      if is_executable(os.path.join(root, f))]
    return sorted(found)


def archives(build):
    src = os.path.join(build, "src")
    found = []
    for lib in sorted(os.listdir(src)):
        d = os.path.join(src, lib)
        if os.path.isdir(d):
            found += [os.path.join(d, f) for f in sorted(os.listdir(d))
                      if f.endswith(".a")]
    return found


def read_keep_list(path):
    entries = {}
    errors = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            name, sep, reason = line.partition(SEPARATOR)
            if not sep or not reason.strip():
                errors.append(f"{path}:{number}: entry without a reason")
                continue
            if name in entries:
                errors.append(f"{path}:{number}: duplicate entry {name}")
            entries[name] = reason.strip()
    return entries, errors


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--build", required=True,
                        help="-O0 section-GC build directory")
    parser.add_argument("--perfbench", required=True,
                        help="icn_perfbench built the same way")
    parser.add_argument("--keep",
                        default=os.path.join(here, "reachability_keep.txt"),
                        help="keep-list (default: %(default)s)")
    args = parser.parse_args()

    libs = archives(args.build)
    bins = executables(args.build) + [args.perfbench]
    if not libs:
        sys.exit(f"no src/*/*.a under {args.build}")
    if not is_executable(args.perfbench):
        sys.exit(f"not an executable: {args.perfbench}")
    defined = symbols(libs, "T") | {
        name for name in symbols(libs, "W") if is_header_inline(name)}
    unreached = defined - symbols(bins, "TtWw")
    keep, errors = read_keep_list(args.keep)
    errors += [f"unreached, not in the keep-list: {name}"
               for name in sorted(unreached - keep.keys())]
    errors += [f"stale keep-list entry (reached or gone): {name}"
               for name in sorted(keep.keys() - unreached)]
    print(f"{len(bins)} executables, {len(libs)} libraries: "
          f"{len(unreached)} unreached functions, {len(keep)} kept on purpose")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
