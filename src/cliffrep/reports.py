"""Structured check reports.

A Report is a stable-ordered list of per-check records plus an overall
verdict.  The canonical JSON form embeds the seed and budgets so any
randomized verdict can be replayed; wall-clock timings are kept out of it so
replays are byte-identical (they appear only in the human rendering).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

TOOL_NAME = "cliffrep"
TOOL_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
SKIPPED = "skipped"

_EXIT_FOR_STATUS = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}


@dataclass
class CheckRecord:
    name: str
    status: str
    witness: object = None      # JSON-serializable payload
    timing_ms: float | None = None

    def to_payload(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass
class Report:
    subject: str
    records: list[CheckRecord] = field(default_factory=list)
    verdict: str = PASS
    input_digest: str | None = None
    seed: int | None = None
    budgets: dict = field(default_factory=dict)

    def add(self, name: str, status: str, witness: object = None,
            timing_ms: float | None = None) -> CheckRecord:
        record = CheckRecord(name, status, witness, timing_ms)
        self.records.append(record)
        return record

    def finalize(self) -> "Report":
        """Overall verdict: fail beats inconclusive beats pass; skips ignored."""
        statuses = {r.status for r in self.records}
        if FAIL in statuses:
            self.verdict = FAIL
        elif INCONCLUSIVE in statuses:
            self.verdict = INCONCLUSIVE
        else:
            self.verdict = PASS
        return self

    @property
    def exit_code(self) -> int:
        return _EXIT_FOR_STATUS.get(self.verdict, 2)

    def to_json(self) -> str:
        payload = {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "subject": self.subject,
            "input_digest": self.input_digest,
            "seed": self.seed,
            "budgets": self.budgets,
            "checks": [r.to_payload() for r in self.records],
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{TOOL_NAME} {TOOL_VERSION} :: {self.subject}"]
        if self.input_digest:
            lines.append(f"input sha256: {self.input_digest}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for r in self.records:
            timing = f" [{r.timing_ms:.1f} ms]" if r.timing_ms is not None else ""
            lines.append(f"  [{r.status.upper():12s}] {r.name}{timing}")
            if r.witness not in (None, {}):
                text = json.dumps(r.witness, sort_keys=True, default=str)
                if len(text) > 240:
                    text = text[:237] + "..."
                lines.append(f"      {text}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
