"""Run configuration: a JSON document with fixed sections, strict key
checking, defaults, and a canonical hash stamped into every output
file.

Sections: ``data`` (either a dataset path or a synthetic-data spec),
``fbcsp``, ``model``, ``blend``, ``train``, ``protocol``, plus the
top-level ``seed`` and ``output_dir``.  Unknown keys anywhere are
rejected rather than ignored, so typos cannot silently fall back to
defaults.

:class:`~specblend.trainer.TrainConfig` and
:class:`~specblend.trialdata.SynthSpec` own the defaults and range checks
of their settings.  This module only says where each of their fields
sits in the document (``_TRAIN_FIELDS``, ``_SYNTH_KEYS``); the accepted
keys, the resolved document and the hash are derived from that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from .filterbank import DEFAULT_BANDS, DEFAULT_ORDER, make_filter_bank
from .trainer import TrainConfig
from .trialdata import (
    SPLIT_KINDS,
    SynthSpec,
    TrialSet,
    generate_synthetic,
    load_trialset,
)


class ConfigError(ValueError):
    """Invalid run configuration (maps to CLI exit code 2)."""


_SYNTH_SPECS = {f.name: f for f in fields(SynthSpec)}

# Document place (section, key) of every TrainConfig field; section None
# is the top level.
_TRAIN_FIELDS = {
    (None, "seed"): "seed",
    ("fbcsp", "u"): "u",
    ("model", "latent"): "latent",
    ("model", "margin"): "margin",
    ("blend", "warmup_epochs"): "warmup_epochs",
    ("blend", "window"): "blend_window",
    ("blend", "exponent"): "blend_exponent",
    **{("train", key): key for key in (
        "lr_init", "lr_min", "lr_factor", "lr_patience",
        "early_stop_patience", "batch_size", "max_epochs", "monitor")},
}
_TRAIN_SPECS = {f.name: f for f in fields(TrainConfig)}
# JSON types accepted per annotation; floats also take JSON integers.
_JSON_TYPES = {"int": int, "Optional[int]": int, "float": (int, float),
               "str": str, "tuple": (list, tuple)}

_SECTIONS = {"data": {"path", "synth"}, "fbcsp": {"bands", "order"},
             "model": set(), "blend": set(), "train": set(),
             "protocol": {"kind", "k"}}
# Accepted keys per section: its own plus the TrainConfig fields it holds.
_KEYS = {section: own | {k for s, k in _TRAIN_FIELDS if s == section}
         for section, own in [(None, {"output_dir", *_SECTIONS}),
                              *_SECTIONS.items()]}

# batch_size default for leave-one-subject-out; all others are TrainConfig's.
_LOSO_BATCH_SIZE = 100


def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _typed(value, types, where: str):
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where} has invalid type")
    return value


def _get(section: dict, key: str, default, types, where: str):
    value = section.get(key, default)
    if value is None and default is None:
        return None
    return _typed(value, types, f"{where}.{key}")


def _floats(values, where: str) -> tuple:
    """JSON numbers (not booleans) as a tuple of floats."""
    return tuple(float(_typed(v, _JSON_TYPES["float"], f"{where}[{i}]"))
                 for i, v in enumerate(values))


def parse_synth_doc(doc: dict, where: str = "data.synth") -> SynthSpec:
    """Build a SynthSpec from a JSON object, rejecting unknown keys and
    values of the wrong JSON type."""
    _check_keys(doc, _SYNTH_SPECS, where)
    kwargs = {key: _get(doc, key, spec.default, _JSON_TYPES[spec.type], where)
              for key, spec in _SYNTH_SPECS.items()}
    kwargs["class_freqs"] = _floats(kwargs["class_freqs"], f"{where}.class_freqs")
    try:
        return SynthSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} invalid: {exc}") from exc


def synth_resolved(spec: SynthSpec) -> dict:
    """Canonical JSON form of a synthetic-data spec."""
    doc = {key: getattr(spec, key) for key in _SYNTH_SPECS}
    doc["class_freqs"] = list(spec.class_freqs)
    return doc


def _parse_train(sections: dict, protocol_kind: str) -> TrainConfig:
    kwargs = {}
    for (section, key), name in _TRAIN_FIELDS.items():
        spec = _TRAIN_SPECS[name]
        default = spec.default
        if name == "batch_size" and protocol_kind == "subject_independent":
            default = _LOSO_BATCH_SIZE
        value = _get(sections[section], key, default, _JSON_TYPES[spec.type],
                     section or "top level")
        kwargs[name] = float(value) if spec.type == "float" else value
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """A parsed document: data source, filter bank and protocol, plus the
    :class:`TrainConfig` that every fold trains with (it carries the
    top-level seed too)."""

    output_dir: str
    data_path: Optional[str]
    synth: Optional[SynthSpec]
    bands: Tuple[Tuple[float, float], ...]
    order: int
    protocol_kind: str
    protocol_k: int
    train: TrainConfig

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _check_keys(doc, _KEYS[None], "top level")
        sections = {name: doc.get(name, {}) for name in _SECTIONS}
        for name, section in sections.items():
            _check_keys(section, _KEYS[name], name)
        sections[None] = doc
        output_dir = _get(doc, "output_dir", "runs", str, "top level")

        data = sections["data"]
        if "path" in data and "synth" in data:
            raise ConfigError("data takes either path or synth, not both")
        if "path" in data:  # a null path is an invalid type, not "absent"
            data_path, synth = _get(data, "path", "", str, "data"), None
        else:
            data_path, synth = None, parse_synth_doc(data.get("synth", {}))

        fbcsp = sections["fbcsp"]
        order = _get(fbcsp, "order", DEFAULT_ORDER, int, "fbcsp")
        raw_bands = fbcsp.get("bands", [list(b) for b in DEFAULT_BANDS])
        if (not isinstance(raw_bands, (list, tuple)) or not raw_bands
                or not all(isinstance(b, (list, tuple)) and len(b) == 2
                           for b in raw_bands)):
            raise ConfigError("fbcsp.bands must be a list of [low, high]")
        bands = tuple(_floats(b, f"fbcsp.bands[{i}]")
                      for i, b in enumerate(raw_bands))

        protocol = sections["protocol"]
        protocol_kind = _get(protocol, "kind", "subject_dependent", str,
                             "protocol")
        if protocol_kind not in SPLIT_KINDS:
            raise ConfigError(
                f"protocol.kind must be one of {sorted(SPLIT_KINDS)}")
        protocol_k = _get(protocol, "k", 5, int, "protocol")
        if protocol_k < 2:
            raise ConfigError(f"protocol.k must be >= 2, got {protocol_k}")

        return cls(output_dir=output_dir, data_path=data_path, synth=synth,
                   bands=bands, order=order, protocol_kind=protocol_kind,
                   protocol_k=protocol_k,
                   train=_parse_train(sections, protocol_kind))

    def resolved(self) -> dict:
        """Canonical fully-defaulted document (hash input)."""
        data = ({"path": self.data_path} if self.data_path is not None
                else {"synth": synth_resolved(self.synth)})
        doc = {
            "output_dir": self.output_dir, "data": data,
            "fbcsp": {"bands": [list(b) for b in self.bands],
                      "order": self.order},
            "model": {}, "blend": {}, "train": {},
            "protocol": {"kind": self.protocol_kind, "k": self.protocol_k},
        }
        for (section, key), name in _TRAIN_FIELDS.items():
            (doc[section] if section else doc)[key] = getattr(self.train, name)
        return doc

    def config_hash(self) -> str:
        """Hash of everything that determines the numbers.  The output
        directory is deliberately excluded so relocated but otherwise
        identical runs share a hash."""
        doc = self.resolved()
        doc.pop("output_dir")
        return canonical_hash(doc)

    def make_bank(self, fs: float):
        return make_filter_bank(fs, bands=self.bands, order=self.order)

    def load_dataset(self) -> TrialSet:
        if self.data_path is not None:
            try:
                return load_trialset(self.data_path)
            except ValueError as exc:   # BlobFormatError among them
                raise ConfigError(f"data.path: {exc}") from exc
        return generate_synthetic(self.synth)


def canonical_hash(doc: dict) -> str:
    """First 16 hex digits of the SHA-256 of ``doc`` as sorted, compact
    JSON: the hash stamped into every output file."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def read_json_object(path, what: str, short: str) -> dict:
    """The JSON object in the file ``path``; ``what`` names it in the
    error messages, ``short`` when the file cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {short} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return doc


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_json_object(path, "config", "config"))
