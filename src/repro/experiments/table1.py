"""Table 1: how little of the stack NCache touches (transparency audit).

The paper's Table 1 lists the kernel components NCache modifies: the
NFS/Web daemon and the buffer cache are untouched; the iSCSI initiator's
two socket-invoking functions and the TCP/IP socket interfaces are
slightly extended; everything else lives in the standalone module.

In this codebase the same claim is *checkable*: the NCache implementation
is ``repro.core`` plus a wiring function, and nothing in the daemon,
buffer cache, or protocol substrate imports it.  This experiment walks the
import graph of the installed sources (via ``ast``) and reports, per
component, which modules reference ``repro.core`` — regenerating Table 1
as a property of the code rather than a claim.
"""

from __future__ import annotations

import ast
from importlib.util import resolve_name
from pathlib import Path
from typing import Dict, Iterator, List

import repro

from .common import Sweep, fixed_note

#: Component -> (modules, paper's "locations modified" entry).
COMPONENTS = {
    "NFS/Web server daemon": (
        ["nfs/server.py", "http/khttpd.py"], "None"),
    "buffer cache": (
        ["fs/buffer_cache.py", "fs/vfs.py"], "None"),
    "iSCSI initiator": (
        ["iscsi/initiator.py"],
        "two functions invoking socket interface changed"),
    "network stack": (
        ["net/stack.py", "net/host.py"],
        "TCP/IP socket interfaces extended"),
    "NCache module (standalone)": (
        ["core/ncache.py", "core/store.py", "core/classifier.py",
         "core/keys.py", "core/chunk.py", "core/resize.py",
         "core/wiring.py"], "loadable module, no kernel edits"),
}


def _imports_of(path: Path) -> List[str]:
    tree = ast.parse(path.read_text())
    names: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            level = node.level
            names.append(("." * level) + module)
    return names


def _references_core(path: Path, package_root: Path) -> bool:
    """True if the module imports repro.core (resolving relative forms)."""
    package = ".".join(("repro",)
                       + path.relative_to(package_root).parts[:-1])
    return any((resolve_name(name, package) if name.startswith(".")
                else name).startswith("repro.core")
               for name in _imports_of(path))


def audit() -> Dict[str, Dict]:
    """Compute the per-component NCache-import report."""
    package_root = Path(repro.__file__).parent
    report: Dict[str, Dict] = {}
    for component, (modules, paper_entry) in COMPONENTS.items():
        touching = []
        for module in modules:
            path = package_root / module
            if _references_core(path, package_root):
                touching.append(module)
        report[component] = {
            "modules": modules,
            "paper": paper_entry,
            "imports_ncache": touching,
        }
    return report


def _rows(cell_rows: list) -> Iterator[Dict[str, str]]:
    """The table's rows: there are no cells to measure, only the audit."""
    for component, info in audit().items():
        expected_clean = component != "NCache module (standalone)"
        touching = info["imports_ncache"]
        yield {
            "component": component,
            "paper_entry": info["paper"],
            "modules_importing_ncache": ", ".join(touching) if touching
            else ("none (verified)" if expected_clean
                  else "(is the module)")}


SWEEP = Sweep(
    "table1", "Table 1: components referencing the NCache module "
              "(import-graph audit)",
    ("component", "paper_entry", "modules_importing_ncache"),
    cells=lambda quick: (), assemble=_rows,
    notes=fixed_note(
        "the daemon, buffer cache, initiator and stack are "
        "NCache-free; integration happens in "
        "servers/testbed.py + core/wiring.py, mirroring the "
        "paper's <150 modified lines"))
