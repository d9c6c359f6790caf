"""Render a :class:`~repro.obs.metrics.MetricsRegistry` for scraping.

Two formats, both pure functions of the registry state:

* :func:`render_text` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, escaped label
  values, cumulative ``_bucket`` series with a ``+Inf`` terminator
  plus ``_sum``/``_count`` for histograms;
* :func:`render_json` — the same samples as one JSON document for
  programmatic consumers (tests, ``?format=json``).

Output ordering is deterministic (metrics by name, series by label
values), so the same registry state always renders the same
``/v1/metrics`` bytes.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import Histogram, HistogramData, MetricsRegistry

__all__ = ["CONTENT_TYPE_TEXT", "render_json", "render_text"]

#: the content type Prometheus scrapers negotiate for
CONTENT_TYPE_TEXT = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_block(
    names: tuple[str, ...],
    values: tuple[str, ...],
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    pairs.extend(
        f'{name}="{_escape_label_value(value)}"' for name, value in extra
    )
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def _histogram_lines(
    metric: Histogram,
    values: tuple[str, ...],
    data: HistogramData,
) -> list[str]:
    lines: list[str] = []
    cumulative = 0
    for bound, count in zip(metric.buckets, data.bucket_counts):
        cumulative += count
        block = _label_block(
            metric.label_names, values, (("le", _format_value(bound)),)
        )
        lines.append(f"{metric.name}_bucket{block} {cumulative}")
    block = _label_block(metric.label_names, values, (("le", "+Inf"),))
    lines.append(f"{metric.name}_bucket{block} {data.total}")
    plain = _label_block(metric.label_names, values)
    lines.append(f"{metric.name}_sum{plain} {_format_value(data.sum)}")
    lines.append(f"{metric.name}_count{plain} {data.total}")
    return lines


def render_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for metric in registry:
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for values, value in metric.samples():
            if isinstance(metric, Histogram):
                assert isinstance(value, HistogramData)
                lines.extend(_histogram_lines(metric, values, value))
            else:
                block = _label_block(metric.label_names, values)
                lines.append(
                    f"{metric.name}{block} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def render_json(registry: MetricsRegistry) -> dict[str, Any]:
    """The registry as one JSON-ready document.

    Shape: ``{"format": "repro.metrics", "version": 1, "metrics":
    [{name, kind, help, label_names, samples: [...]}, ...]}`` where a
    counter/gauge sample is ``{labels, value}`` and a histogram
    sample adds per-bound (non-cumulative) ``buckets``, ``sum`` and
    ``count``.
    """
    metrics: list[dict[str, Any]] = []
    for metric in registry:
        samples: list[dict[str, Any]] = []
        for values, value in metric.samples():
            labels = dict(zip(metric.label_names, values))
            if isinstance(metric, Histogram):
                assert isinstance(value, HistogramData)
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [
                            {"le": bound, "count": count}
                            for bound, count in zip(
                                metric.buckets, value.bucket_counts
                            )
                        ]
                        + [
                            {
                                "le": "+Inf",
                                "count": value.bucket_counts[-1],
                            }
                        ],
                        "sum": value.sum,
                        "count": value.total,
                    }
                )
            else:
                samples.append({"labels": labels, "value": value})
        entry: dict[str, Any] = {
            "name": metric.name,
            "kind": metric.kind,
            "help": metric.help,
            "label_names": list(metric.label_names),
            "samples": samples,
        }
        if isinstance(metric, Histogram):
            entry["buckets"] = list(metric.buckets)
        metrics.append(entry)
    return {"format": "repro.metrics", "version": 1, "metrics": metrics}
