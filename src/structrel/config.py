"""Model and training configuration.

:class:`ModelConfig` is the only config type: the encoder, the model and
the training loop all read it, and its ``__post_init__`` is the one
validator.  The bias-term defaults of each transformation mode are stated
once, in ``_MODE_DEFAULTS``.  Configs round-trip through a flat
``key = value`` text format; the CLI mirrors every field as a kebab-case
flag.
"""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Optional

from .corpus import read_text
from .structure import DependencyType

#: Per transformation mode, the value each bias-term toggle takes when it
#: is left unset.  Biaffine is the bilinear core ``q A_s k`` plus a prior
#: ``b_s``; decomp is the query- and key-conditioned terms plus the prior.
_MODE_DEFAULTS = {
    "none": dict(bias_core=False, bias_query=False, bias_key=False,
                 bias_prior=False),
    "biaffine": dict(bias_core=True, bias_query=False, bias_key=False,
                     bias_prior=True),
    "decomp": dict(bias_core=False, bias_query=True, bias_key=True,
                   bias_prior=True),
}
TOGGLES = tuple(_MODE_DEFAULTS["none"])

#: The least value of each size, count and limit.
_MINIMUMS = dict(layers=0, heads=1, d_model=1, ffn_mult=0, d_dist=0,
                 max_len=1, coref_cap=0, vocab_min_count=0, epochs=0,
                 batch_size=1)


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
        for name, default in _MODE_DEFAULTS[self.mode].items():
            if getattr(self, name) is None:
                setattr(self, name, default)
        if self.mode == "none" and any(getattr(self, t) for t in TOGGLES):
            raise ValueError("mode 'none' admits no bias terms")
        if self.mode == "biaffine" and (self.bias_query or self.bias_key):
            raise ValueError(
                "query/key conditioned terms belong to decomp mode"
            )
        if self.mode == "decomp" and self.bias_core:
            raise ValueError("the bilinear core belongs to biaffine mode")
        for name, least in _MINIMUMS.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got "
                                 f"{getattr(self, name)}")
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"d_model {self.d_model} is not divisible by {self.heads} heads"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        self.resolve_structured_layers()  # validates the range spec
        self.excluded_dependency_set()    # validates the exclusion list

    def resolve_structured_layers(self) -> frozenset[int]:
        """Parse the structured-layer range: ``all``, ``none``, ``top:K``,
        or an explicit comma list of block indices."""
        spec = self.structured_layers.strip().lower()
        if spec in ("all", ""):
            return frozenset(range(self.layers)) if spec == "all" else frozenset()
        if spec == "none":
            return frozenset()

        def number(text: str) -> int:
            try:
                return int(text)
            except ValueError:
                raise ValueError(f"structured_layers: malformed spec "
                                 f"{self.structured_layers!r}") from None

        if spec.startswith("top:"):
            k = number(spec[4:])
            if not 0 <= k <= self.layers:
                raise ValueError(f"structured_layers: top:{k} exceeds the "
                                 f"{self.layers}-layer stack")
            return frozenset(range(self.layers - k, self.layers))
        layers = frozenset(number(part) for part in spec.split(","))
        bad = sorted(l for l in layers if not 0 <= l < self.layers)
        if bad:
            raise ValueError(f"structured_layers: {bad} outside "
                             f"[0, {self.layers})")
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
                raise ValueError(f"excluded_deps: unknown dependency type "
                                 f"{part!r}") from None
            if dep == DependencyType.NA:
                raise ValueError("excluded_deps: NA cannot be excluded")
            out.add(dep)
        return frozenset(out)

    def replace(self, **changes) -> "ModelConfig":
        """Copy with changes; switching ``mode`` re-defaults the bias-term
        toggles unless they are changed explicitly."""
        return dataclasses.replace(self, **_switch_mode(self.mode, changes))


def _switch_mode(mode: str, changes: dict) -> dict:
    """``changes``, plus a reset to the new mode's default for every
    bias-term toggle they leave out when they switch away from ``mode``."""
    if "mode" in changes and changes["mode"] != mode:
        return {**dict.fromkeys(TOGGLES), **changes}
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
    take precedence.  An overriding ``mode`` switches away from the file's
    mode, or from the default mode when the file names none."""
    types = field_types()
    kwargs: dict = {}
    first: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line "
                             f"{first[key]}")
        first[key] = lineno
        try:
            kwargs[key] = _parse_value(value, types[key])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    if overrides:
        for key in overrides:
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
        kwargs.update(_switch_mode(kwargs.get("mode", ModelConfig.mode),
                                   overrides))
    try:
        return ModelConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

