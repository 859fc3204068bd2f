"""Plain-text table formatting for experiment results, and Figure 5's
headline averages."""

from __future__ import annotations

#: Benchmarks with an appreciable memory-latency component — the set over
#: which the paper computes its headline averages ("If we disregard bh,
#: bisort, power, tsp and voronoi...", Section 4.2).
MEMORY_BOUND = ("em3d", "health", "mst", "perimeter", "treeadd")


def format_table(rows: list[dict[str, object]], title: str | None = None) -> str:
    """Render a list of dicts as an aligned text table.

    Columns are the union of all rows' keys in first-seen order, so rows
    with extra or missing keys render blanks instead of losing data."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    seen: set[str] = set()
    for r in rows:
        for k in r:
            if k not in seen:
                seen.add(k)
                columns.append(k)
    cells = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in cells))
        for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def normalized_bar(value: float, scale: int = 40) -> str:
    """ASCII bar for normalized execution times (1.0 = full scale)."""
    n = max(0, min(scale * 2, round(value * scale)))
    return "#" * n


def figure5_summary(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """The paper's headline averages over the memory-bound benchmarks."""
    out = []
    for scheme in ("software", "cooperative", "hardware", "dbp"):
        # Degenerate tiny runs can round "normalized" to 0.0 (and error
        # rows carry no metrics at all); both are skipped, not divided by.
        picked = [
            r for r in rows
            if r["scheme"] == scheme and r["benchmark"] in MEMORY_BOUND
            and r.get("normalized")
        ]
        if not picked:
            continue
        speedup = sum(1 / r["normalized"] for r in picked) / len(picked)
        memcut = sum(r["mem_reduction%"] for r in picked) / len(picked)
        out.append({
            "scheme": scheme,
            "avg speedup%": round(100 * (speedup - 1), 1),
            "avg mem stall cut%": round(memcut, 1),
        })
    return out
