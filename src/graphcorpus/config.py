"""Pipeline configuration.

A config is a flat JSON object; every key matches a PipelineConfig field.
Command line flags override file values, which override the defaults here.
The generation limits below are constants, not config keys.
"""

from __future__ import annotations

import json
from typing import NamedTuple, get_args, get_origin, get_type_hints

from .errors import InvalidSpecError
from .tasks import TASK_ORDER

DEFAULT_COUNTS = {"train": 3000, "test": 400}
TOKEN_BUDGET = 4096          # rendered-length cap, in estimated tokens
MAX_ATTEMPTS = 600           # draws per slot before generation gives up
REJECTION_ATTEMPTS = 12      # plain draws before constructive transforms
HAMILTON_BUDGET = 100_000    # backtracking expansions before "unknown"
HAMILTON_DP_LIMIT = 12       # largest graph solved by the exact bitmask DP


class PipelineConfig(NamedTuple):
    seed: int = 0
    tasks: list[str] = TASK_ORDER     # shared: read it, never modify it
    split: str = "train"
    count: int | None = None          # None: DEFAULT_COUNTS[split]
    shots: int = 2
    cap: int = 5
    beta: float = 0.1
    jobs: int = 1
    profile: str | None = None
    backend: str = "stub"
    stub_error_rate: float = 0.0
    base_url: str | None = None
    model: str | None = None
    api_key: str | None = None
    max_requests: int | None = None
    cache: str | None = None
    rejection_attempts = REJECTION_ATTEMPTS   # not annotated: not a key

    def resolved_count(self) -> int:
        if self.count is not None:
            return self.count
        return DEFAULT_COUNTS[self.split]


def load_config(path: str | None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InvalidSpecError(f"{path}: config must be a JSON object")
    return apply_overrides(cfg, data)


def has_type(value: object, hint: object) -> bool:
    """Whether value fits the annotation: a bool is not an int, an int is a
    float, and a union takes any of its members."""
    if hint in (None, type(None)):      # None in a table, NoneType in a union
        return value is None
    if hint is bool:
        return isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint in (int, str, dict):
        return isinstance(value, hint) and not isinstance(value, bool)
    if get_origin(hint) is list:
        item, = get_args(hint)
        if isinstance(value, list) and item in (bool, float, int, str):
            value = list({type(v): v for v in value}.values())  # type decides
        return isinstance(value, list) and all(has_type(v, item) for v in value)
    return any(has_type(value, h) for h in get_args(hint))


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> PipelineConfig:
    """A copy of cfg with known fields set, rejecting unknown keys and
    splits, values of the wrong type, an empty task list, a beta that is not
    positive and finite, and a cap below 1; skip Nones."""
    known = {k: t.__forward_arg__    # the annotation's source text
             for k, t in PipelineConfig.__annotations__.items()}
    hints = get_type_hints(PipelineConfig)
    changes = {}
    for key, value in overrides.items():
        if key not in known:
            raise InvalidSpecError(f"unknown config key: {key}")
        if value is None:
            continue
        if key == "split" and value not in list(DEFAULT_COUNTS):
            raise InvalidSpecError(f"unknown split {value!r}; expected one "
                                   f"of {list(DEFAULT_COUNTS)}")
        if key == "tasks" and isinstance(value, str):
            value = [t.strip() for t in value.split(",") if t.strip()]
        if not has_type(value, hints[key]):
            raise InvalidSpecError(f"config key {key} expects {known[key]}, "
                                   f"got {value!r}")
        if key == "tasks" and not value:
            raise InvalidSpecError("tasks names no task")
        if key == "beta" and not 0 < value < float("inf"):
            raise InvalidSpecError("beta must be positive and finite")
        if key == "cap" and value < 1:
            raise InvalidSpecError("cap must be at least 1")
        changes[key] = value
    return cfg._replace(**changes)
