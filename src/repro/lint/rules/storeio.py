"""RPR104 — store write discipline.

The campaign store's durability model holds only if *every* append goes
through the ``repro.store`` package's one engine,
:class:`repro.store.segment.SegmentLog`: one ``write``+``fsync`` to an
``O_APPEND`` fd, under the log's exclusive advisory lock (taken with its
single lock helper, ``SegmentLog.lock()``, which wraps
``repro.store.locks.file_lock``), with multi-writer dedupe.  An
append-mode ``open()`` or raw ``os.write`` done anywhere else can
interleave bytes with a concurrent writer and turn a crash into
unrepairable mid-file corruption — so append-style writes are flagged
everywhere outside the store package's modules, and inside them they must
be lexically under the lock helper.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.astutil import ancestors, call_name
from repro.lint.engine import Finding, LintContext, Rule


def _append_mode(node: ast.Call) -> bool:
    """Is this an ``open(...)`` call with an append mode string?"""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and "a" in mode.value
    )


def _uses_append_flag(node: ast.Call) -> bool:
    """Does an ``os.open(...)`` call pass ``O_APPEND`` in its flags?"""
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Attribute) and sub.attr == "O_APPEND":
                return True
            if isinstance(sub, ast.Name) and sub.id == "O_APPEND":
                return True
    return False


def _under_store_lock(node: ast.AST) -> bool:
    """Is ``node`` lexically inside a ``with <...lock...>():`` block?"""
    for ancestor in ancestors(node):
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                callee = call_name(expr)
                if callee is not None and "lock" in callee.lower():
                    return True
    return False


class StoreWriteDisciplineRule(Rule):
    code = "RPR104"
    name = "store-write-discipline"
    summary = "appends belong in the repro.store package, under a store lock"
    explanation = """\
records.jsonl / segment files (and any append-only artifact) may only be
written through the store package's SegmentLog engine: an append-mode
open()/os.write() elsewhere bypasses the log's advisory lock (one log,
one lock: records.lock in the single-file layout, one per segment in the
sharded layout), the single write+fsync atomicity, and the multi-writer
dedupe — concurrent writers can interleave bytes and a crash becomes
mid-file corruption that torn-tail repair refuses to touch.

Bad (anywhere outside src/repro/store/):
    with open(path, "a") as f: f.write(line)
    os.write(fd, payload)

Inside the store package's modules, appends must additionally sit
lexically inside a `with self.lock():` block — SegmentLog.lock(), the
single lock helper, or `with file_lock(...):` which it wraps.  Only the
two leaves SegmentLog calls with its lock already held (the append write
and the torn-tail repair) carry a suppression naming that contract."""

    def check(self, context: LintContext) -> List[Finding]:
        tail = context.module_tail()
        in_store_module = len(tail) == 2 and tail[0] == "store"
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            label: Optional[str] = None
            if callee in ("open", "io.open") and _append_mode(node):
                label = "append-mode open(...)"
            elif callee == "os.write":
                label = "os.write(...)"
            elif callee == "os.open" and _uses_append_flag(node):
                label = "os.open(..., O_APPEND)"
            if label is None:
                continue
            if in_store_module:
                if not _under_store_lock(node):
                    findings.append(
                        self.finding(
                            context,
                            node,
                            f"{label} outside a `with ..._lock():` block; "
                            "store appends must hold the advisory lock",
                        )
                    )
            else:
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"{label} bypasses the campaign store's locked, "
                        "fsynced append path; write through "
                        "repro.store.store instead",
                    )
                )
        return findings
