"""Run-config parsing: INI-style sections with strict unknown-key rejection
and range validation, so hyperparameter typos fail loudly instead of running
a silently wrong experiment.

`_TABLE` names every key once. A range rule lives in the dataclass that
consumes the value (EncoderConfig, PretrainConfig, SplitSpec); the parsers
here check only the values no such dataclass owns.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import make_dataclass

from .augment import DEFAULT_RATIO, KINDS, MAX_ALPHA, AugmentationPool, AugmentationSpec, default_pool
from .contrastive import PretrainConfig
from .graphs import CATEGORIES
from .model import EncoderConfig
from .pipelines import SplitSpec


class ConfigError(Exception):
    """Invalid run configuration (parse error, unknown key, range violation)."""


# Parsers turn one raw value into a field value; a ValueError they raise
# completes the sentence "[section] key: ...".

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    if raw.strip().lower() not in _BOOL:
        raise ValueError(f"must be a boolean, got {raw!r}")
    return _BOOL[raw.strip().lower()]


def _rule(parse, ok, requirement: str):
    """A parser that reads with `parse` and then requires ok(value)."""

    def parse_checked(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"must {requirement}, got {value!r}")
        return value

    return parse_checked


_seed = _rule(_int, lambda v: v >= 0, "be >= 0")
_positive_int = _rule(_int, lambda v: v > 0, "be positive")
_positive_float = _rule(_float, lambda v: v > 0.0, "be positive")
_category = _rule(str.strip, lambda v: v in CATEGORIES, f"be one of {CATEGORIES}")
_kind = _rule(str.strip, lambda v: v in KINDS, f"be one of {KINDS}")
_sweep_ratio = _rule(_float, lambda v: 0.0 <= v <= 0.5, "lie in [0, 0.5]")
_aug_ratio = _rule(_float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_alpha = _rule(_float, lambda v: abs(v) <= MAX_ALPHA, f"lie in [-{MAX_ALPHA:g}, {MAX_ALPHA:g}]")


def _pair(raw: str) -> tuple[str, str]:
    sides = [s.strip() for s in raw.split("+")]
    if len(sides) != 2 or any(s not in KINDS for s in sides):
        raise ValueError(f"bad pair {raw.strip()!r}; expected Kind+Kind")
    return sides[0], sides[1]


def _list(parse):
    def parse_list(raw: str) -> list:
        return [parse(item) for item in raw.split(",") if item.strip()]

    return parse_list


# section -> key -> (RunConfig field, parser, default text). A None default
# leaves the field unset; unset fields are left out of the config echo.
_TABLE = {
    "run": {
        "seed": ("seed", _seed, "0"),
        "output": ("output", str.strip, None),
        "workers": ("workers", _positive_int, "1"),
    },
    "dataset": {
        "path": ("dataset_path", str.strip, None),
        "name": ("dataset_name", str.strip, None),
        "category": ("category", _category, None),
    },
    "encoder": {
        "arch": ("arch", str.strip, "gcn"),
        "num_layers": ("num_layers", _int, "3"),
        "hidden_dim": ("hidden_dim", _int, "32"),
        "readout": ("readout", str.strip, "mean"),
        "gin_eps": ("gin_eps", _float, "0.0"),
    },
    "pretrain": {
        "batch_size": ("batch_size", _int, "128"),
        "temperature": ("temperature", _float, "0.5"),
        "epochs": ("pretrain_epochs", _int, "20"),
        "learning_rate": ("pretrain_lr", _float, "0.001"),
        "loss_variant": ("loss_variant", str.strip, "exclusive"),
        "symmetric": ("symmetric", _bool, "false"),
        "pool_i": ("pool_i", str.strip, "default"),
        "pool_j": ("pool_j", str.strip, "default"),
    },
    "split": {
        "label_rate": ("label_rate", _float, "0.1"),
        "folds": ("folds", _int, "5"),
        "stratified": ("stratified", _bool, "true"),
    },
    "finetune": {
        "epochs": ("finetune_epochs", _positive_int, "30"),
        "learning_rate": ("finetune_lr", _positive_float, "0.001"),
        "batch_size": ("finetune_batch", _positive_int, "32"),
    },
    "sweep": {
        "kinds": ("sweep_kinds", _list(_kind), "NodeDrop,EdgePerturb,AttrMask,Subgraph"),
        "kind": ("sweep_kind", _kind, "EdgePerturb"),
        "ratios": ("sweep_ratios", _list(_sweep_ratio), "0.05,0.1,0.2,0.3"),
        "alphas": ("sweep_alphas", _list(_alpha), "-2,-1,0,1,2"),
        "pairs": ("sweep_pairs", _list(_pair), "AttrMask+AttrMask,AttrMask+NodeDrop"),
        "seeds": ("sweep_seeds", _list(_seed), ""),
        "ratio": ("sweep_ratio", _aug_ratio, str(DEFAULT_RATIO)),
    },
}


def _text(value) -> str:
    """A field value written back as the text its parser reads."""
    if isinstance(value, list):
        return ",".join("+".join(v) if isinstance(v, tuple) else str(v) for v in value)
    return str(value)


class _RunConfigBase:
    """What a RunConfig's values build: the consuming dataclasses and the config echo."""

    @property
    def encoder(self) -> EncoderConfig:
        return EncoderConfig(self.arch, self.num_layers, self.hidden_dim, self.readout, self.gin_eps)

    def split(self) -> SplitSpec:
        return SplitSpec(self.label_rate, self.folds, self.stratified, self.seed)

    def pretrain_config(self, category: str) -> PretrainConfig:
        pools = resolve_pool(self.pool_i, category), resolve_pool(self.pool_j, category)
        return PretrainConfig(self.batch_size, self.temperature, self.pretrain_epochs, self.pretrain_lr, *pools,
                              self.seed, self.loss_variant, self.symmetric)

    def effective_ini(self) -> str:
        """Render the fully-defaulted config back out (the reproducibility echo).

        Parsing the echo gives back an equal RunConfig."""
        out = io.StringIO()
        for section, keys in _TABLE.items():
            out.write(f"[{section}]\n")
            for key, (name, _, _) in keys.items():
                value = getattr(self, name)
                if value is not None:
                    out.write(f"{key} = {_text(value)}\n")
            out.write("\n")
        return out.getvalue()


# Every knob of a run, one field per key of `_TABLE`, in table order.
RunConfig = make_dataclass("RunConfig", [name for keys in _TABLE.values() for name, _, _ in keys.values()],
                           bases=(_RunConfigBase,), namespace={"__module__": __name__})


def parse_pool_spec(text: str) -> AugmentationPool:
    """Parse 'Kind[:ratio[:alpha]]' items separated by commas."""
    specs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) > 3:
            raise ConfigError(f"bad pool entry {item!r}: too many ':' fields")
        if parts[0] == "Identity" and len(parts) > 1:  # it would run at no strength whatever the fields say
            raise ConfigError(f"bad pool entry {item!r}: Identity takes no ratio or alpha")
        try:  # the fields left out take AugmentationSpec's defaults
            specs.append(AugmentationSpec(parts[0], *map(_float, parts[1:])))
        except ValueError as err:
            raise ConfigError(f"bad pool entry {item!r}: {err}") from None
    if not specs:
        raise ConfigError(f"pool {text!r} is empty")
    return AugmentationPool(specs=tuple(specs))


def resolve_pool(text: str, category: str) -> AugmentationPool:
    if text.strip().lower() == "default":
        return default_pool(category)
    return parse_pool_spec(text)


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file; unknown sections/keys are rejected."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    return parse_config_text(text, source=path)


def default_config() -> RunConfig:
    """The all-defaults config (used by commands that need no dataset)."""
    return parse_config_text("", source="<defaults>")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from None

    for section in parser.sections():
        if section not in _TABLE:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _TABLE[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values = {}
    for section, keys in _TABLE.items():
        for key, (name, parse, default) in keys.items():
            raw = parser.get(section, key, fallback=default)
            try:
                values[name] = None if raw is None else parse(raw)
            except ValueError as err:
                raise ConfigError(f"[{section}] {key}: {err}") from None
    cfg = RunConfig(**values)

    # The consuming dataclasses check the ranges; their messages name the key.
    # "default" pools resolve for every category, so when none is set any
    # category will do to check the pretrain values and the pool text.
    checks = {
        "encoder": lambda: cfg.encoder,
        "split": cfg.split,
        "pretrain": lambda: cfg.pretrain_config(cfg.category or CATEGORIES[0]),
    }
    for section, build in checks.items():
        try:
            build()
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"[{section}] {err}") from None
    return cfg
