"""Deterministic CSV / JSON / SVG emission.

Identical inputs must produce byte-identical outputs.  CSV writes numbers
with 17 significant digits.  JSON sorts keys and writes a float as its
shortest round-trip ``repr`` (``NaN``, ``Infinity``, ``-Infinity`` for the
rest), which rounding to 17 digits never changes.  Text is UTF-8 with LF
line endings; SVG has fixed-precision coordinates and no timestamps or ids.
"""

import json
from functools import cache

__all__ = ["fmt", "write_csv", "to_json", "write_text", "parameter_plot_svg"]


def fmt(x):
    """17 significant digits; enough to round-trip any double."""
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """One line per row, a number per header column written as :func:`fmt`
    writes it; a str cell raises ValueError, so nothing is written."""
    template = ",".join(["{:.17g}"] * len(header))
    lines = [",".join(header), *(template.format(*row) for row in rows)]
    write_text(path, "\n".join(lines) + "\n")


def to_json(obj):
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``; a container of
    scalars is one C-encoder call whose item separator holds the indent."""
    encoder = cache(lambda inner: json.JSONEncoder(
        sort_keys=True, separators=(",\n" + inner, ": ")))

    def emit(value, pad):
        if not isinstance(value, (dict, list, tuple)) or not value:
            return json.dumps(value)
        inner, ends = pad + "  ", "{}" if isinstance(value, dict) else "[]"
        members = value.values() if ends == "{}" else value
        if not any(isinstance(v, (dict, list, tuple)) for v in members):
            body = encoder(inner).encode(value)[1:-1]
        elif ends == "{}":  # k as the encoder writes a key, then ": "
            body = (",\n" + inner).join([
                json.dumps({k: 0})[1:-2] + emit(v, inner)
                for k, v in sorted(value.items())])
        else:
            body = (",\n" + inner).join([emit(v, inner) for v in value])
        return ends[0] + "\n" + inner + body + "\n" + pad + ends[1]

    return emit(obj, "") + "\n"


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def parameter_plot_svg(u_range, v_range, polyline, seed=None):
    """Static 640 x 480 plot of the parameter domain with a traced
    polyline."""
    width, height, margin = 640, 480, 40.0
    u0, u1 = u_range
    v0, v1 = v_range
    su = (width - 2 * margin) / (u1 - u0)
    sv = (height - 2 * margin) / (v1 - v0)

    def px(u, v):
        return (margin + (u - u0) * su,
                height - margin - (v - v0) * sv)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin:.2f}" y="{margin:.2f}" '
        f'width="{width - 2 * margin:.2f}" height="{height - 2 * margin:.2f}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if len(polyline):
        points = " ".join(["{:.4f},{:.4f}"] * len(polyline)).format(
            *(c for u, v in polyline for c in px(u, v)))
        parts.append(f'<polyline points="{points}" fill="none" '
                     'stroke="#1f77b4" stroke-width="1.5"/>')
    if seed is not None:
        x, y = px(seed[0], seed[1])
        parts.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="4" '
                     'fill="#d62728"/>')
    parts.append(
        f'<text x="{margin:.2f}" y="{height - 12:.2f}" font-size="12" '
        f'fill="#444">u: [{fmt(u0)}, {fmt(u1)}]  v: [{fmt(v0)}, {fmt(v1)}]'
        '</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
