"""Runtime configuration: sweep budgets, the oracle cap, output directory, rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .dimensions import DEFAULT_ORACLE_CAP
from .harness import SWEEPS
from .partitions import _check_int
from .render import PLAIN

RENDER_STYLES = tuple(PLAIN)


def _default_budgets() -> dict[str, int]:
    return {name: sweep.budget for name, sweep in SWEEPS.items()}


@dataclass
class Config:
    budgets: dict[str, int] = field(default_factory=_default_budgets)
    oracle_cap: int = DEFAULT_ORACLE_CAP
    out_dir: Path | None = None
    render: str = "ascii"

    def __post_init__(self) -> None:
        for name, cap in self.budgets.items():
            if name not in SWEEPS:
                raise ValueError(f"unknown budget {name!r}")
            _check_int(name, cap, 1)
        _check_int("oracle_cap", self.oracle_cap, 1)
        if self.render not in RENDER_STYLES:
            raise ValueError(f"render must be one of {RENDER_STYLES}, got {self.render!r}")


# How each scalar key's text becomes its Config field; a budget key, a sweep name, reads as an int.
_SCALARS = {"oracle_cap": int, "out_dir": Path, "render": str}


def load_config(path: Path | str) -> Config:
    """Read a key=value file; # starts a comment, blank lines ignored.

    Budget keys are the sweep names, the keys of harness.SWEEPS; scalar
    keys are those of _SCALARS.
    """
    budgets = _default_budgets()
    scalars: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        into, parse = (budgets, int) if key in SWEEPS else (scalars, _SCALARS.get(key))
        if parse is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            into[key] = parse(text)
        except ValueError:  # only int refuses a text
            raise ValueError(f"config key {key!r} needs an integer, got {text!r}") from None
    return Config(budgets=budgets, **scalars)
