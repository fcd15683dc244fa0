"""Scene configuration: named surfaces, curves and pairs from INI text.

The format is flat key-value with named sections:

    [surface cone]
    components = (v*cos(u), v*sin(u), v)
    u_range = 0, 2*pi
    v_range = 0.25, 3

    [curve cone_circle]
    surface = cone
    u = t
    v = 1
    t_range = 0, 2*pi

    [pair catenoid_helicoid]
    source = catenoid
    target = helicoid
    kind = intrinsic

    [options]
    grid = 20x20
    samples = 50
    h = 0.01
    max_steps = 4000

Numeric values go through the same expression grammar as the surfaces
(constants only; ``pi`` is available).  All cross-references are resolved
at load time; unresolved names, and keys that a section does not read, are
load errors.
"""

import configparser
import functools
import io
import math
import re
from dataclasses import dataclass
from types import MappingProxyType

from .errors import ConfigError, DomainError, EvalError, ExpressionError
from .expr import parse_components, parse_constant, parse_expression
from .isometry import INTRINSIC, RIGID_ORIGIN_FIXING, register_pair
from .surface import CurvePath, SurfacePatch

__all__ = ["SceneConfig", "RunOptions", "load_scene", "builtin_scene",
           "parse_count", "parse_grid", "parse_positive",
           "BUILTIN_SCENE_TEXT"]


@dataclass(frozen=True)
class RunOptions:
    grid: tuple = (20, 20)
    samples: int = 50
    h: float = 0.01
    max_steps: int = 4000


@dataclass(frozen=True)
class PairDef:
    source: str
    target: str
    kind: str


@dataclass(frozen=True)
class SceneConfig:
    """A loaded scene: its surfaces, curves and pairs by name, read-only."""

    surfaces: MappingProxyType
    curves: MappingProxyType
    pairs: MappingProxyType
    options: RunOptions = RunOptions()
    path: str = "<builtin>"

    def surface(self, name):
        return _lookup(self.surfaces, "surface", name)

    def curve(self, name):
        return _lookup(self.curves, "curve", name)

    def curve_host(self, name):
        curve = self.curve(name)
        return self.surface(curve.surface), curve

    def pair_def(self, name):
        return _lookup(self.pairs, "pair", name)

    def pair(self, name, grid=None):
        pdef = self.pair_def(name)
        return register_pair(self.surface(pdef.source),
                             self.surface(pdef.target),
                             pdef.kind, grid=grid or self.options.grid)


def _lookup(table, kind, name):
    """``table[name]``; ConfigError "<kind> not found: <name>" otherwise."""
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"{kind} not found: {name}") from None


def _line(text, section, key=None):
    """The line of ``key`` (the text before a line's first = or :) under
    the header ``[section]`` in ``text``, else the header's, else 0:
    configparser keeps no line numbers."""
    lines = text.splitlines()
    top = next((n for n, x in enumerate(lines, 1)
                if x.strip() == f"[{section}]"), 0)
    for n, x in enumerate(lines[top:], top + 1):
        if not top or x.startswith("["):  # the next section
            break
        if re.split("[=:]", x, 1)[0].strip().lower() == key:
            return n
    return top


def _fail(path, text, section, message, key=None):
    raise ConfigError(f"{path}:{_line(text, section, key)}: {message}")


def _range(raw, key):
    """A parameter range ``low, high``: finite, with low < high."""
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ExpressionError(f"expected two comma-separated values: {raw!r}")
    low, high = parse_constant(parts[0]), parse_constant(parts[1])
    if not -math.inf < low < high < math.inf:  # false for NaN too
        raise ConfigError(f"{key} must be finite with low < high, got {raw!r}")
    return low, high


def _named(section):
    """The name of a ``[kind name]`` section."""
    name = section.partition(" ")[2].strip()
    if not name:
        raise ConfigError(f"section [{section}] has no name")
    return name


def parse_count(raw, name, minimum):
    """``raw`` as an integer of at least ``minimum``, for the option
    ``name``; ConfigError otherwise."""
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if count < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {count}")
    return count


def parse_positive(raw, name):
    """``raw``, a constant expression, as a positive finite number for the
    option ``name``; ConfigError otherwise (zero, negative, NaN, inf)."""
    try:
        value = parse_constant(raw)
    except (ExpressionError, EvalError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if not 0.0 < value < math.inf:  # false for NaN too
        raise ConfigError(f"{name} must be positive and finite, got {raw!r}")
    return value


def parse_grid(raw, name="grid"):
    """An ``MxN`` grid spec as (M, N), both at least 1."""
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"{name} expects MxN, got {raw!r}")
    return tuple(parse_count(part.strip(), name, 1) for part in parts)


# How each option is read, by key.
_OPTIONS = {"grid": parse_grid, "h": parse_positive,
            "samples": lambda raw, key: parse_count(raw, key, 2),
            "max_steps": lambda raw, key: parse_count(raw, key, 1)}
# The keys that each kind of section reads; any other is a load error.
_KEYS = {"surface": ("components", "u_range", "v_range"),
         "curve": ("surface", "u", "v", "t_range"),
         "pair": ("source", "target", "kind"), "options": tuple(_OPTIONS)}


def load_scene_text(text, path="<string>"):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text), source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    surfaces, curves, pairs, options = {}, {}, {}, {}
    read = []  # a section's keys as read: an error is on the last one's line

    def value(key):  # each value is parsed before the next key is read
        read.append(key)
        return body[key]

    for section in parser.sections():
        body = parser[section]
        read[:] = [None]
        try:
            for key in body:  # a section of no known kind fails below
                if key not in _KEYS.get(section.partition(" ")[0], body):
                    read.append(key)
                    raise ConfigError(f"unknown key {key!r}")
            if section.startswith("surface "):
                name = _named(section)
                surfaces[name] = SurfacePatch(
                    name, parse_components(value("components"), ("u", "v"),
                                           3),
                    _range(value("u_range"), "u_range"),
                    _range(value("v_range"), "v_range"))
            elif section.startswith("curve "):
                name = _named(section)
                curves[name] = CurvePath(
                    name, parse_expression(value("u"), ("t",)),
                    parse_expression(value("v"), ("t",)),
                    _range(value("t_range"), "t_range"), value("surface"))
            elif section.startswith("pair "):
                name = _named(section)
                kind = value("kind").strip()
                if kind not in (INTRINSIC, RIGID_ORIGIN_FIXING):
                    raise ConfigError(
                        f"kind must be {INTRINSIC} or {RIGID_ORIGIN_FIXING}, "
                        f"got {kind!r}")
                pairs[name] = PairDef(value("source").strip(),
                                      value("target").strip(), kind)
            elif section == "options":
                for key in body:
                    options[key] = _OPTIONS[key](value(key), key)
            else:
                raise ConfigError(f"unknown section kind: {section!r}")
        except KeyError as exc:  # the key is not there: the header's line
            _fail(path, text, section, f"missing key {exc.args[0]!r}")
        except (ConfigError, ExpressionError, EvalError) as exc:
            _fail(path, text, section, str(exc), read[-1])

    # Resolve cross-references and check curve domains now, not at use time.
    for name, curve in curves.items():
        if curve.surface not in surfaces:
            _fail(path, text, f"curve {name}",
                  f"surface not found: {curve.surface}", "surface")
        try:
            curve._check_once_on(surfaces[curve.surface])
        except (DomainError, EvalError) as exc:
            _fail(path, text, f"curve {name}", str(exc))
    for name, pdef in pairs.items():
        for key in ("source", "target"):
            ref = getattr(pdef, key)
            if ref not in surfaces:
                _fail(path, text, f"pair {name}", f"surface not found: {ref}",
                      key)
    return SceneConfig(MappingProxyType(surfaces), MappingProxyType(curves),
                       MappingProxyType(pairs), RunOptions(**options), path)


@functools.cache
def _builtin():
    return load_scene_text(BUILTIN_SCENE_TEXT, "<builtin>")


def load_scene(path=None):
    """Load a scene file, read and parsed on every call, or return the
    built-in scene when no path is given: one read-only instance per
    process, built on first use, so its patches' compiled programs are
    shared by every caller."""
    if path is None:
        return _builtin()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_scene_text(text, str(path))


def builtin_scene():
    """The built-in scene: one shared, read-only instance per process."""
    return load_scene(None)


BUILTIN_SCENE_TEXT = """\
# Built-in verification scene: the standard test surfaces, curves and
# isometric pairs used by the check suite.

[surface plane]
components = (u, v, 0)
u_range = -5, 5
v_range = -5, 5

[surface cone]
components = (v*cos(u), v*sin(u), v)
u_range = 0, 2*pi
v_range = 0.25, 3

[surface sphere]
components = (sin(u)*cos(v), sin(u)*sin(v), cos(u))
u_range = 0.15, pi - 0.15
v_range = 0, 2*pi

[surface offset_sphere]
components = (sin(u)*cos(v), sin(u)*sin(v), 2 + cos(u))
u_range = 0.15, pi - 0.15
v_range = -7, 7

[surface offset_sphere_rot]
components = (sin(u)*cos(v + 0.7), sin(u)*sin(v + 0.7), 2 + cos(u))
u_range = 0.15, pi - 0.15
v_range = -7, 7

[surface catenoid]
components = (cosh(v)*cos(u), cosh(v)*sin(u), v)
u_range = 0, 2*pi
v_range = -1.5, 1.5

[surface helicoid]
components = (sinh(v)*cos(u), sinh(v)*sin(u), u)
u_range = 0, 2*pi
v_range = -1.5, 1.5

[surface cylinder]
components = (cos(u), sin(u), v)
u_range = -5, 5
v_range = -5, 5

[surface paraboloid]
components = (u, v, u^2 + v^2)
u_range = -2, 2
v_range = -2, 2

[curve plane_circle]
surface = plane
u = 2*cos(t)
v = 2*sin(t)
t_range = 0, 2*pi

[curve cone_circle]
surface = cone
u = t
v = 1
t_range = 0, 2*pi

[curve cone_circle_v2]
surface = cone
u = t
v = 2
t_range = 0, 2*pi

[curve cone_ruling]
surface = cone
u = 1
v = t
t_range = 1, 2

[curve sphere_latitude]
surface = sphere
u = 2*pi/3
v = t
t_range = 0, 2*pi

[curve sphere_meridian]
surface = sphere
u = t
v = 0
t_range = 0.2, 2.9

[curve offset_latitude]
surface = offset_sphere
u = 2*pi/3
v = t
t_range = 0, 2*pi

[curve catenoid_line]
surface = catenoid
u = t
v = 0.3
t_range = 0, 2*pi

[curve cylinder_helix]
surface = cylinder
u = t
v = t
t_range = 0, 4

[pair catenoid_helicoid]
source = catenoid
target = helicoid
kind = intrinsic

[pair plane_cylinder]
source = plane
target = cylinder
kind = intrinsic

[pair offset_rotation]
source = offset_sphere
target = offset_sphere_rot
kind = rigid-origin-fixing

[pair identity_catenoid]
source = catenoid
target = catenoid
kind = intrinsic

[options]
grid = 20x20
samples = 50
h = 0.01
max_steps = 4000
"""
