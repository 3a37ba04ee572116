"""Deterministic run reports for the command line.

A Report collects what a subcommand did: the flags it saw, the checks it
made, and any witness literals it produced. Serialization is canonical,
so the same invocation (including seed) yields byte-identical output; the
JSON form also names the package version.
Timings are the one nondeterministic field; they stay None unless the
caller asks for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from . import __version__


@dataclass(frozen=True)
class Check:
    """One named pass/fail line with an optional human detail."""
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    command: str
    params: dict[str, str] = field(default_factory=dict)
    verdicts: list[Check] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)
    seed: int | None = None
    timings_ms: dict[str, float] | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.verdicts.append(Check(name, bool(ok), detail))
        return bool(ok)

    def extend(self, checks: Iterable[tuple[str, bool, str]]) -> None:
        for name, ok, detail in checks:
            self.check(name, ok, detail)

    def witness(self, literal: str) -> None:
        self.witnesses.append(literal)

    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_payload(self) -> dict:
        timings = None
        if self.timings_ms is not None:
            timings = {k: round(v, 3) for k, v in sorted(self.timings_ms.items())}
        return {
            "command": self.command,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
            "timings_ms": timings,
            "verdicts": [{"detail": v.detail, "name": v.name, "ok": v.ok}
                         for v in self.verdicts],
            "version": __version__,
            "witnesses": list(self.witnesses),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k, v in sorted(self.params.items()):
            lines.append(f"param {k} = {v}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for v in self.verdicts:
            mark = "PASS" if v.ok else "FAIL"
            tail = f"  ({v.detail})" if v.detail else ""
            lines.append(f"check {v.name}: {mark}{tail}")
        for w in self.witnesses:
            lines.append(f"witness: {w}")
        if self.timings_ms is not None:
            for k, v in sorted(self.timings_ms.items()):
                lines.append(f"timing {k}: {round(v, 3)} ms")
        lines.append(f"overall: {'PASS' if self.passed() else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")
