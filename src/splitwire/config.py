"""Experiment configuration: one JSON document reproduces any run."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .errors import ArgumentError, RangeError, check_seed, load_json
from .latency import ChannelModel, ExecutionProfile, PayloadSizes
from .netspec import NetworkSpec, get_builtin_spec, spec_from_dict
from .pipeline.filtergate import FilterModel

__all__ = ["Config", "load_config", "reference_config_path", "load_reference_config"]

_TOP_KEYS = {"name", "derivation", "seed", "profile", "channel", "sizes",
             "filter", "netspecs"}


@dataclass(frozen=True)
class Config:
    profile: ExecutionProfile
    channel: ChannelModel
    sizes: PayloadSizes
    filter: FilterModel
    netspecs: dict[str, NetworkSpec] = field(default_factory=dict)
    seed: int = 0
    name: str = ""

    def get_netspec(self, name: str) -> NetworkSpec:
        """Config-defined specs first, then the built-in fixtures."""
        if name in self.netspecs:
            return self.netspecs[name]
        return get_builtin_spec(name)


def _section(doc: dict, key: str, default: dict | None = None) -> dict:
    section = doc.get(key, default)
    if section is None:
        raise ArgumentError(f"config is missing the {key!r} section")
    if not isinstance(section, dict):
        raise ArgumentError(f"config section {key!r} must be an object")
    return section


def config_from_dict(doc: dict) -> Config:
    if not isinstance(doc, dict):
        raise ArgumentError("config document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ArgumentError(f"unknown config keys {sorted(unknown)}")
    try:
        profile = ExecutionProfile(**_section(doc, "profile"))
        channel = ChannelModel(**_section(doc, "channel"))
        sizes = PayloadSizes(**_section(doc, "sizes"))
        fm = FilterModel(**_section(doc, "filter"))
    except (TypeError, RangeError) as exc:
        raise ArgumentError(f"invalid config: {exc}") from exc
    netspecs = {name: spec_from_dict({"name": name, "layers": layers})
                for name, layers in _section(doc, "netspecs", {}).items()}
    return Config(profile, channel, sizes, fm, netspecs,
                  seed=check_seed("config seed", doc.get("seed", 0)), name=doc.get("name", ""))


def load_config(path: str) -> Config:
    return config_from_dict(load_json(path, "config"))


def reference_config_path() -> str:
    """Path of the shipped keypoint RN-50 reference configuration."""
    return str(resources.files("splitwire").joinpath("configs/keypoint_rn50.json"))


def load_reference_config() -> Config:
    return load_config(reference_config_path())
