"""Environment knobs: the one module that reads ``REPRO_*`` variables.

Every knob goes through one of four typed readers.  An unset or empty
variable means "use the default"; a malformed or out-of-range value
raises :class:`ValueError` naming the knob and the value, which the CLI
turns into a one-line error and exit code 2.  README.md's knob table
lists every variable.

The four observation layers (audit, trace, metrics, attribution) share
one precedence rule, applied by :func:`layer`:

* a layer the config turns on ignores the environment;
* a layer the config leaves off is turned on by its switch variable
  (any value but ``""`` and ``"0"``);
* a layer the environment turned on also takes its interval and its
  output path (a switch value other than ``1``) from the environment.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional, Tuple


def integer(name: str, default: int, *, minimum: int) -> int:
    """An integer knob no smaller than ``minimum``."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {raw!r}")
    return value


def number(
    name: str, default: Optional[float], *, minimum: float, inclusive: bool = True
) -> Optional[float]:
    """A real-valued knob no smaller than ``minimum`` (strictly greater
    when ``inclusive`` is false)."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    bound = f"{'>=' if inclusive else '>'} {minimum:g}"
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number {bound}, got {raw!r}") from None
    if value < minimum or (value == minimum and not inclusive):
        raise ValueError(f"{name} must be {bound}, got {raw!r}")
    return value


def text(name: str, default: str = "") -> str:
    """A free-form knob (a directory, a file, a plan); empty means unset."""
    return os.environ.get(name) or default


def flag_or_path(name: str) -> Tuple[bool, Optional[str]]:
    """``(on, path)`` for a switch: any value but ``""`` and ``"0"`` turns
    it on, and a value other than ``"1"`` is also an output path."""
    raw = os.environ.get(name, "")
    on = raw not in ("", "0")
    return on, (raw if on and raw != "1" else None)


class Layer(NamedTuple):
    """How one observation layer runs: resolved once per system."""

    on: bool
    interval: int = 0
    path: Optional[str] = None


def layer(
    config_on: bool,
    switch: str,
    interval: int = 0,
    interval_knob: Optional[str] = None,
) -> Layer:
    """Resolve one observation layer under the precedence rule above.

    ``config_on`` and ``interval`` come from the config; ``switch`` and
    ``interval_knob`` name the layer's variables.
    """
    if config_on:
        return Layer(True, interval)
    on, path = flag_or_path(switch)
    if not on:
        return Layer(False, interval)
    if interval_knob is not None:
        interval = integer(interval_knob, interval, minimum=1)
    return Layer(True, interval, path)
