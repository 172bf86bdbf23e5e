"""Runtime configuration: sweep budgets, caps, parallelism, rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .dimensions import DEFAULT_ORACLE_CAP
from .harness import SWEEPS

RENDER_STYLES = ("ascii", "unicode")


def _default_budgets() -> dict[str, int]:
    return {name: sweep.budget for name, sweep in SWEEPS.items()}


@dataclass
class Config:
    budgets: dict[str, int] = field(default_factory=_default_budgets)
    oracle_cap: int = DEFAULT_ORACLE_CAP
    jobs: int = 1
    out_dir: Path | None = None
    render: str = "ascii"

    def __post_init__(self) -> None:
        for name, cap in self.budgets.items():
            if name not in SWEEPS:
                raise ValueError(f"unknown budget {name!r}")
            if not isinstance(cap, int) or cap < 1:
                raise ValueError(f"budget {name} must be a positive integer, got {cap!r}")
        if self.oracle_cap < 1:
            raise ValueError(f"oracle_cap must be positive, got {self.oracle_cap}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.render not in RENDER_STYLES:
            raise ValueError(f"render must be one of {RENDER_STYLES}, got {self.render!r}")


def _parse_value(key: str, text: str):
    if key == "out_dir":
        return Path(text)
    if key == "render":
        return text
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"config key {key!r} needs an integer, got {text!r}") from None


def load_config(path: Path | str) -> Config:
    """Read a key=value file; # starts a comment, blank lines ignored.

    Budget keys are the sweep names, the keys of harness.SWEEPS; scalar
    keys are oracle_cap, jobs, out_dir, and render.
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
        if key in SWEEPS:
            budgets[key] = _parse_value(key, text)
        elif key in ("oracle_cap", "jobs", "out_dir", "render"):
            scalars[key] = _parse_value(key, text)
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    return Config(budgets=budgets, **scalars)
