"""Plot-ready tabular datasets shared by the compare harness and the CLI.

CSV uses '.' decimals, comma delimiters and '#'-prefixed metadata lines;
floats are serialized with 17 significant digits so either format
round-trips bit-exactly.  Missing values (annihilation points in scans)
serialize as empty CSV cells / JSON nulls.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass
class Dataset:
    meta: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [f"# {k} = {_format_value(v)}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "columns": self.columns,
            "rows": self.rows,
        }
        return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")

    @staticmethod
    def from_json(text: str) -> "Dataset":
        payload = json.loads(text)
        return Dataset(payload["meta"], payload["columns"],
                       [tuple(r) for r in payload["rows"]])
