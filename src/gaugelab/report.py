"""Report rendering: versioned JSON documents and CSV tables.

Rationals render exactly ("p/q", dyadics as "p/2^k"); square-root style
quantities carry their enclosure plus a decimal with an explicit error bound.
With sorted keys and no timestamp the bytes are a pure function of the
payload, which is what makes deterministic reruns comparable.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from datetime import datetime, timezone
from fractions import Fraction

from .exact import Dyadic, Interval, Region, format_region
from .gauges import SCHEMA, Gauge, TaggedPartition, partition_payload
from .integrands import IntegrandFn
from .spaces import Enclosure, ValueSpace, VectorValue


def fraction_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def jsonable(obj):
    """Recursive conversion to JSON-encodable structures, exact where the
    value is exact and enclosure-plus-decimal where it is not."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, Dyadic):
        return str(obj)
    if isinstance(obj, Enclosure):
        mid = (obj.lo + obj.hi) / 2
        return {
            "lo": fraction_str(obj.lo),
            "hi": fraction_str(obj.hi),
            "decimal": float(mid),
            "err": float(obj.hi - obj.lo),
        }
    if isinstance(obj, VectorValue):
        if obj.space.is_step:
            breaks, levels = obj.data
            return {
                "space": obj.space.describe(),
                "breaks": [str(b) for b in breaks],
                "levels": [fraction_str(v) for v in levels],
            }
        return {
            "space": obj.space.describe(),
            "coords": [fraction_str(c) for c in obj.data],
        }
    if isinstance(obj, ValueSpace):
        return obj.describe()
    if isinstance(obj, Interval):
        return [str(obj.lo), str(obj.hi)]
    if isinstance(obj, Region):
        return format_region(obj)
    if isinstance(obj, TaggedPartition):
        return partition_payload(obj)
    if isinstance(obj, IntegrandFn):
        return {
            "label": obj.label,
            "class": obj.klass,
            "space": obj.space.describe(),
            "n_cells": len(obj.values) if obj.values is not None else None,
        }
    if isinstance(obj, Gauge):
        return obj.descriptor
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(x) for x in seq]
    return str(obj)


def build_report(command: str, config: dict, result, deterministic: bool = False) -> dict:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "config": jsonable(config),
        "result": jsonable(result),
    }
    if not deterministic:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return doc


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_report(doc: dict, path: str | None) -> str:
    text = dumps_report(doc)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def rows_to_csv(rows) -> str:
    """Stringify a list of flat dicts; column order follows the first row,
    extra keys from later rows append in sorted order."""
    rows = [
        {k: _csv_cell(v) for k, v in (jsonable(r) or {}).items()} for r in rows
    ]
    if not rows:
        return ""
    fields = list(rows[0].keys())
    seen = set(fields)
    extra = sorted({k for r in rows[1:] for k in r} - seen)
    fields += extra
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return v


def write_csv(rows, path: str | None) -> str:
    text = rows_to_csv(rows)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def validate_report(doc: dict) -> list[str]:
    """Schema-level problems with an emitted report document."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("command", "config", "result"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    return problems


def digest_row(path: str, doc: dict) -> dict:
    """One summary line for the report aggregator."""
    problems = validate_report(doc)
    row = {
        "file": path,
        "command": doc.get("command", ""),
        "valid": not problems,
        "problems": "; ".join(problems),
    }
    result = doc.get("result")
    if isinstance(result, dict):
        for key in ("pass", "status", "comparison", "gap", "max_residual",
                    "lower_bound", "estimate"):
            if key in result:
                row[key] = result[key]
    return row
