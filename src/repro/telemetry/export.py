"""Export telemetry as a ``repro.metrics/v1`` document or Prometheus text.

The JSON document is self-describing: a ``schema`` tag, a ``run``
context block, and the payload. ``validate_metrics_document`` is
dependency-free and returns a list of human-readable problems
(empty == valid), so CI smoke jobs can gate on it without extra
packages.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.telemetry.metrics import MetricsRegistry
from repro.util.atomicio import atomic_write_json

METRICS_SCHEMA = "repro.metrics/v1"

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_PREFIX = "repro_"


def build_metrics_document(
    registry: MetricsRegistry,
    run: Optional[Mapping] = None,
    spans: Optional[Sequence[Mapping]] = None,
) -> Dict:
    """Assemble the ``repro.metrics/v1`` JSON document."""
    return {
        "schema": METRICS_SCHEMA,
        "run": dict(run) if run else {},
        "metrics": registry.snapshot(),
        "spans": [dict(s) for s in spans] if spans else [],
    }


def validate_metrics_document(doc: object) -> List[str]:
    """Validate a metrics document; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}"
        )
    if not isinstance(doc.get("run"), dict):
        problems.append("run section missing or not an object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics section missing or not an object")
        metrics = {}
    counters = metrics.get("counters", {})
    if not isinstance(counters, dict):
        problems.append("metrics.counters is not an object")
    else:
        for name, value in counters.items():
            if not isinstance(value, int):
                problems.append(f"counter {name!r} value is not an integer")
    gauges = metrics.get("gauges", {})
    if not isinstance(gauges, dict):
        problems.append("metrics.gauges is not an object")
    else:
        for name, value in gauges.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"gauge {name!r} value is not numeric")
    histograms = metrics.get("histograms", {})
    if not isinstance(histograms, dict):
        problems.append("metrics.histograms is not an object")
    else:
        for name, payload in histograms.items():
            if not isinstance(payload, dict):
                problems.append(f"histogram {name!r} is not an object")
                continue
            buckets = payload.get("buckets")
            counts = payload.get("counts")
            if not isinstance(buckets, list) or not buckets:
                problems.append(f"histogram {name!r} has no buckets")
                continue
            if not isinstance(counts, list) or len(counts) != len(buckets) + 1:
                problems.append(
                    f"histogram {name!r} counts must have "
                    f"len(buckets)+1 entries"
                )
            if sorted(buckets) != buckets:
                problems.append(f"histogram {name!r} buckets not sorted")
            if isinstance(counts, list):
                total = payload.get("count")
                if isinstance(total, int) and sum(
                    c for c in counts if isinstance(c, int)
                ) != total:
                    problems.append(
                        f"histogram {name!r} count does not match "
                        f"sum of bucket counts"
                    )
    spans = doc.get("spans")
    if not isinstance(spans, list):
        problems.append("spans section missing or not a list")
    else:
        for i, span in enumerate(spans):
            if not isinstance(span, dict):
                problems.append(f"span[{i}] is not an object")
                continue
            for key in ("id", "name", "start_s", "duration_s"):
                if key not in span:
                    problems.append(f"span[{i}] missing {key!r}")
    return problems


def _prom_name(name: str) -> str:
    return _PROM_PREFIX + _NAME_SANITIZER.sub("_", name)


def _prom_number(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: Mapping[str, Mapping]) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_number(value)}")
    for name in sorted(snapshot.get("histograms", {})):
        payload = snapshot["histograms"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(payload["buckets"], payload["counts"]):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_number(bound)}"}} {cumulative}'
            )
        cumulative += payload["counts"][-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_number(payload['sum'])}")
        lines.append(f"{prom}_count {payload['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_artifact(
    path: Union[str, Path],
    registry: MetricsRegistry,
    run: Optional[Mapping] = None,
    spans: Optional[Sequence[Mapping]] = None,
) -> Dict:
    """Build, validate, and atomically write the metrics document."""
    doc = build_metrics_document(registry, run=run, spans=spans)
    problems = validate_metrics_document(doc)
    if problems:
        raise ValueError(
            "refusing to write invalid metrics document: "
            + "; ".join(problems)
        )
    atomic_write_json(Path(path), doc)
    return doc
