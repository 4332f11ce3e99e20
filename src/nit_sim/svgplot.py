"""Self-contained SVG rendering of a single spectrum.

Dispersion (Re<a>) as a solid polyline, absorption (-Im<a>) as a dashed
one, framed axes with tick labels.  No external fonts, styles or scripts;
every float is printed with a fixed format, so identical spectra yield
byte-identical files.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .spectra import Spectrum

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 24, 56
_SOLID = "#1f77b4"
_DASHED = "#d62728"
_DASH = ' stroke-dasharray="6,4"'
_MIDDLE = ' text-anchor="middle"'
_END = ' text-anchor="end"'


def _nice_step(span: float, target: int = 6) -> float:
    """The smallest of 1, 2, 2.5, 5 and 10 times a power of ten that is >=
    span / target, or 0.0 where that power of ten is no positive double."""
    raw = span / target
    if not 0.0 < raw < math.inf:
        return 0.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    if not step:
        raise DomainError(f"plot range [{lo!r}, {hi!r}] is too narrow to tick")
    i0 = math.ceil(lo / step - 1e-9)
    i1 = math.floor(hi / step + 1e-9)
    return [i * step for i in range(i0, i1 + 1) if lo <= i * step <= hi]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _label(v: float) -> str:
    return f"{v:.6g}"


def _line(x1, y1, x2, y2, stroke="black", width=1, dash="") -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"{dash}/>'
    )


def _text(x, y, size, body, attrs="") -> str:
    """One label; ``attrs`` (each with its leading space) follow font-size."""
    return (
        f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"'
        f"{attrs}>{body}</text>"
    )


def emit_svg(spectrum: Spectrum) -> str:
    """Render the spectrum; returns the SVG document as a string.

    A plot range that overflows a double once padded, or is too narrow for
    a tick step, is a DomainError."""
    d = spectrum.detunings
    xlo, xhi = float(d[0]), float(d[-1])
    ylo = min(float(spectrum.a_re.min()), float(spectrum.absorption.min()))
    yhi = max(float(spectrum.a_re.max()), float(spectrum.absorption.max()))
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    if not math.isfinite((yhi + pad) - (ylo - pad)):
        raise DomainError(f"plot range [{ylo!r}, {yhi!r}] overflows once padded by 5%")
    ylo, yhi = ylo - pad, yhi + pad

    px_w = _W - _ML - _MR
    px_h = _H - _MT - _MB
    bottom = _H - _MB

    def sx(x: float) -> float:
        return _ML + (x - xlo) / (xhi - xlo) * px_w

    def sy(y: float) -> float:
        return bottom - (y - ylo) / (yhi - ylo) * px_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{px_w}" height="{px_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(xlo, xhi):
        x = _fmt(sx(t))
        parts += [_line(x, bottom, x, bottom + 5),
                  _text(x, bottom + 18, 11, _label(t), _MIDDLE)]
    for t in _ticks(ylo, yhi):
        y = sy(t)
        parts += [_line(_ML - 5, _fmt(y), _ML, _fmt(y)),
                  _text(_ML - 8, _fmt(y + 4), 11, _label(t), _END)]

    # each trace draws its polyline now and its legend entry after the axis labels
    traces = (
        (spectrum.a_re, _SOLID, "", "dispersion Re⟨a⟩"),
        (spectrum.absorption, _DASHED, _DASH, "absorption −Im⟨a⟩"),
    )
    legend = []
    for i, (values, color, dash, name) in enumerate(traces):
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(d, values))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                     f'{dash} points="{pts}"/>')
        lx, ly = _ML + 12, _MT + 16 + 18 * i
        legend += [_line(lx, ly, lx + 28, ly, color, 1.5, dash),
                   _text(lx + 34, ly + 4, 12, name)]

    mid = _MT + px_h // 2
    rotate = f' transform="rotate(-90 18 {mid})"'
    title = f"{spectrum.backend} backend, {spectrum.n_points} points"
    parts += [
        _text(_ML + px_w // 2, _H - 12, 13, "Δp/κa", _MIDDLE),
        _text(18, mid, 13, "amplitude", _MIDDLE + rotate),
        *legend,
        _text(_W - _MR, _MT - 8, 11, title, _END),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
