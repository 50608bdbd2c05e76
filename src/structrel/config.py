"""Model and training configuration.

Configs round-trip through a flat ``key = value`` text format; the CLI
mirrors every field as a kebab-case flag.
"""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Optional

from .encoder import Transformation
from .structure import DependencyType

_MODE_DEFAULTS = {
    "none": dict(core=False, query=False, key=False, prior=False),
    "biaffine": dict(core=True, query=False, key=False, prior=True),
    "decomp": dict(core=False, query=True, key=True, prior=True),
}
_TOGGLES = ("bias_core", "bias_query", "bias_key", "bias_prior")


@dataclass
class ModelConfig:
    layers: int = 2
    heads: int = 2
    d_model: int = 32
    ffn_mult: int = 4
    d_dist: int = 8
    max_len: int = 64
    coref_cap: int = 64
    mode: str = "biaffine"
    # None means "take the mode's default"; resolved to bool on construction.
    bias_core: Optional[bool] = None
    bias_query: Optional[bool] = None
    bias_key: Optional[bool] = None
    bias_prior: Optional[bool] = None
    structured_layers: str = "all"
    excluded_deps: str = ""
    schema_path: str = ""
    vocab_min_count: int = 1
    threshold: float = 0.5
    auto_threshold: bool = False
    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 100
    batch_size: int = 4

    def __post_init__(self):
        if self.mode not in _MODE_DEFAULTS:
            raise ValueError(f"unknown transformation mode {self.mode!r}")
        defaults = _MODE_DEFAULTS[self.mode]
        if self.bias_core is None:
            self.bias_core = defaults["core"]
        if self.bias_query is None:
            self.bias_query = defaults["query"]
        if self.bias_key is None:
            self.bias_key = defaults["key"]
        if self.bias_prior is None:
            self.bias_prior = defaults["prior"]
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"d_model {self.d_model} is not divisible by {self.heads} heads"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        self.transformation()             # validates mode/toggle consistency
        self.resolve_structured_layers()  # validates the range spec
        self.excluded_dependency_set()    # validates the exclusion list

    def transformation(self) -> Transformation:
        return Transformation(
            mode=self.mode,
            biaffine_core=bool(self.bias_core),
            query_conditioned=bool(self.bias_query),
            key_conditioned=bool(self.bias_key),
            prior=bool(self.bias_prior),
        )

    def resolve_structured_layers(self) -> frozenset[int]:
        """Parse the structured-layer range: ``all``, ``none``, ``top:K``,
        or an explicit comma list of block indices."""
        spec = self.structured_layers.strip().lower()
        if spec in ("all", ""):
            return frozenset(range(self.layers)) if spec == "all" else frozenset()
        if spec == "none":
            return frozenset()
        if spec.startswith("top:"):
            k = int(spec[4:])
            if not 0 <= k <= self.layers:
                raise ValueError(
                    f"top:{k} exceeds the {self.layers}-layer stack"
                )
            return frozenset(range(self.layers - k, self.layers))
        layers = frozenset(int(part) for part in spec.split(","))
        bad = [l for l in layers if not 0 <= l < self.layers]
        if bad:
            raise ValueError(f"structured layers {bad} outside [0, {self.layers})")
        return layers

    def excluded_dependency_set(self) -> frozenset[DependencyType]:
        out = set()
        for part in self.excluded_deps.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                dep = DependencyType[part.upper()]
            except KeyError:
                raise ValueError(f"unknown dependency type {part!r}")
            if dep == DependencyType.NA:
                raise ValueError("NA cannot be excluded")
            out.add(dep)
        return frozenset(out)

    def replace(self, **changes) -> "ModelConfig":
        """Copy with changes; switching ``mode`` re-defaults the bias-term
        toggles unless they are changed explicitly."""
        return dataclasses.replace(self, **_switch_mode(self.mode, changes))


def _switch_mode(mode: Optional[str], changes: dict) -> dict:
    """``changes``, plus a reset to the new mode's default for every
    bias-term toggle they leave out when they switch away from ``mode``."""
    if "mode" in changes and changes["mode"] != mode:
        return {**dict.fromkeys(_TOGGLES), **changes}
    return changes


def field_types() -> dict[str, type]:
    """Concrete type per config field, read off the dataclass annotations;
    ``Optional[X]`` gives ``X``."""
    hints = typing.get_type_hints(ModelConfig)
    out = {}
    for f in dataclasses.fields(ModelConfig):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        out[f.name] = args[0] if args else hints[f.name]
    return out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_value(text: str, ftype) -> object:
    text = text.strip()
    if ftype is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if ftype is int:
        return int(text)
    if ftype is float:
        return float(text)
    return text


def save_config(cfg: ModelConfig, path) -> None:
    lines = [
        f"{f.name} = {_format_value(getattr(cfg, f.name))}"
        for f in dataclasses.fields(ModelConfig)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path, overrides: Optional[dict] = None) -> ModelConfig:
    """Read a flat ``key = value`` file; ``overrides`` (already typed)
    take precedence."""
    types = field_types()
    kwargs: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kwargs[key] = _parse_value(value, types[key])
    if overrides:
        for key in overrides:
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
        kwargs.update(_switch_mode(kwargs.get("mode"), overrides))
    return ModelConfig(**kwargs)

