"""The report table: every run-table record, declared once.

A record is a ``@dataclass(slots=True)`` :class:`Record`.  Each JSON
field is declared where the dataclass declares it — :func:`col` gives
its allowed JSON types, rounding on write and nested records,
:func:`derived` a value computed from the others (``ok``, ``summary``),
a class ``SCHEMA`` the versioned ``schema`` field — and that one
declaration drives :meth:`Record.to_json` and :func:`validate` alike (a
run table whose columns are declared once; no third-party schema
dependency).  Every declared field is required, every undeclared one
is rejected at every level, and ``slots`` makes assigning an
undeclared attribute raise: writer and validator cannot drift.  A new
field changes what a schema accepts, so it comes with a new schema
string; a tier-1 test pins each string to its field names.

This module declares the table and :class:`PointResult`, the outcome
of one executed cell (wall time, peak records, diagnosis correctness,
and the knobs and seed that replay it as a single run);
:mod:`repro.experiment.report` declares the documents a run table
writes around it.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Optional


@dataclass(frozen=True)
class Column:
    """One JSON field of a record: allowed types, rounding, nesting."""

    types: tuple[type, ...]
    #: round the value (a dict's values) to this many digits on write
    digits: Optional[int] = None
    #: the value is one record of this type (a dict) or a list of them
    record: Optional[type[Record]] = None
    #: in a list of records, this field numbers them 0..n-1 in order
    ordinal: bool = False

    def encode(self, value: Any) -> Any:
        if self.record is not None:
            if isinstance(value, list):
                return [row.to_json() for row in value]
            return value.to_json()
        if isinstance(value, dict):
            return {k: _round(v, self.digits) for k, v in value.items()}
        if isinstance(value, list):
            return list(value)
        return _round(value, self.digits)

    def check(self, value: Any, path: str) -> list[str]:
        # bool is an int subclass in Python but not in the JSON-schema sense
        if not isinstance(value, self.types) or (
            isinstance(value, bool) and bool not in self.types
        ):
            names = "/".join(
                "null" if t is type(None) else t.__name__ for t in self.types
            )
            return [f"{path} must be {names}"]
        if self.record is None:
            return []
        if isinstance(value, dict):
            return self.record.check(value, path)
        errors = [
            error
            for i, row in enumerate(value)
            for error in self.record.check(row, f"{path}[{i}]")
        ]
        for name, column in self.record.columns().items():
            numbers = [row.get(name) for row in value if isinstance(row, dict)]
            if column.ordinal and numbers != list(range(len(numbers))):
                errors.append(f"{path}[].{name} must be 0..n-1 in order")
        return errors


def _round(value: Any, digits: Optional[int]) -> Any:
    return value if digits is None else round(value, digits)


def col(
    *types: Optional[type],
    digits: Optional[int] = None,
    record: Optional[type[Record]] = None,
    ordinal: bool = False,
    default: Any = MISSING,
    factory: Any = MISSING,
) -> Any:
    """Declare a dataclass field as a JSON column (``None`` = null)."""
    column = Column(
        tuple(type(None) if t is None else t for t in types),
        digits=digits,
        record=record,
        ordinal=ordinal,
    )
    if factory is not MISSING:
        return field(default_factory=factory, metadata={"column": column})
    return field(default=default, metadata={"column": column})


class _Derived(property):
    column: Column


def derived(*types: type) -> Callable[[Callable[[Any], Any]], property]:
    """Declare a read-only JSON field computed from the record's others."""

    def declare(fget: Callable[[Any], Any]) -> property:
        prop = _Derived(fget)
        prop.column = Column(types)
        return prop

    return declare


class Record:
    """Base of the report records: JSON writer and checker from the table."""

    __slots__ = ()
    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]
    #: the versioned ``schema`` field of a top-level document
    SCHEMA: ClassVar[Optional[str]] = None

    @property
    def schema(self) -> Optional[str]:
        return self.SCHEMA

    @classmethod
    def columns(cls) -> dict[str, Column]:
        """Every JSON field this record writes and accepts, by name."""
        table = {"schema": Column((str,))} if cls.SCHEMA else {}
        for f in fields(cls):
            if "column" in f.metadata:
                table[f.name] = f.metadata["column"]
        for name, attr in vars(cls).items():
            if isinstance(attr, _Derived):
                table[name] = attr.column
        return table

    def to_json(self) -> dict[str, Any]:
        return {
            name: column.encode(getattr(self, name))
            for name, column in self.columns().items()
        }

    @classmethod
    def check(cls, doc: Any, where: str) -> list[str]:
        """Problems with ``doc`` as this record at path ``where``
        ("" for a whole document)."""
        if not isinstance(doc, dict):
            return [f"{where or 'document'} must be an object"]
        table = cls.columns()
        errors = []
        for name, column in table.items():
            path = f"{where}.{name}" if where else name
            if name in doc:
                errors.extend(column.check(doc[name], path))
            else:
                errors.append(f"missing field {path!r}")
        for name in doc:
            # a typo in a hand-edited document must not pass silently
            if name not in table:
                path = f"{where}.{name}" if where else name
                allowed = ", ".join(sorted(table))
                errors.append(f"unknown field {path!r} (allowed: {allowed})")
        return errors


def validate(record: type[Record], doc: Any) -> list[str]:
    """Check one report document against ``record``; [] means valid.

    Beyond the table, a report's grid axes must be non-empty lists and
    its summary must count each of its record lists.
    """
    if not isinstance(doc, dict):
        return [f"report must be an object, got {type(doc).__name__}"]
    schema = doc.get("schema")
    if schema != record.SCHEMA:
        return [f"unknown schema {schema!r} (expected {record.SCHEMA!r})"]
    errors = record.check(doc, "")
    grid = doc.get("grid")
    if isinstance(grid, dict):
        for axis, values in grid.items():
            if not isinstance(values, list) or not values:
                errors.append(f"grid axis {axis!r} must be a non-empty list")
    summary = doc.get("summary")
    for name, column in record.columns().items():
        if column.record is None or not isinstance(doc.get(name), list):
            continue
        count = summary.get(name) if isinstance(summary, dict) else None
        problems = Column((int,)).check(count, f"summary.{name}")
        if not problems and count != len(doc[name]):
            problems = [f"summary.{name} disagrees with len({name})"]
        errors.extend(problems)
    return errors


def write_json(path: Path, doc: dict[str, Any]) -> None:
    """Write-then-rename, so an interrupted write never leaves half a
    document where a reader (or a resume scan) would trust it."""
    tmp = path.with_suffix(".tmp")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_report(path: Path, report: Record) -> list[str]:
    """Validate ``report``'s document, then write it atomically.

    Returns the schema problems; a report with any is never written —
    a structurally invalid report is a bug, not a result.
    """
    doc = report.to_json()
    problems = validate(type(report), doc)
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(path, doc)
    return problems


@dataclass(slots=True)
class PointResult(Record):
    """Outcome of one cell (one scenario execution)."""

    index: int = col(int)
    params: dict[str, Any] = col(dict)
    knobs: dict[str, Any] = col(dict)
    seed: int = col(int)
    diagnosis_ok: bool = col(bool, default=False)
    problems: list[str] = col(list, factory=list)
    suspects: list[str] = col(list, factory=list)
    wall_time_s: float = col(int, float, digits=6, default=0.0)
    phase_s: dict[str, float] = col(dict, digits=6, factory=dict)
    sim_time_s: float = col(int, float, digits=9, default=0.0)
    diagnosis_latency_sim_s: float = col(int, float, digits=9, default=0.0)
    freshness: int = col(int, default=0)
    flow_count: int = col(int, default=0)
    peak_records: int = col(int, default=0)
    total_records: int = col(int, default=0)
    evicted_records: int = col(int, default=0)
    ingest_records_per_s: float = col(int, float, digits=3, default=0.0)
    measurements: dict[str, Any] = col(dict, factory=dict)
    error: Optional[str] = col(str, None, default=None)

    @derived(bool)
    def ok(self) -> bool:
        """Cell verdict: ran to completion and diagnosed correctly."""
        return self.error is None and self.diagnosis_ok
