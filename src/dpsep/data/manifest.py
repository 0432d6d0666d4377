"""Line-oriented dataset manifests.

One record per line: `split<TAB>spec1<TAB>spec2<TAB>snr_db`, where a spec is
either `wav:<path>` or `synth:<kind>:<seed>`. Splits are train/valid/test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import InputError
from .synth import SOURCE_KINDS

SPLITS = ("train", "valid", "test")


class ManifestError(InputError):
    """Raised for unparseable or unresolvable manifest records."""


@dataclass
class SourceSpec:
    kind: str  # "wav" or "synth"
    path: str = ""
    synth_kind: str = ""
    seed: int = 0

    @classmethod
    def parse(cls, text, context):
        head, _, rest = text.partition(":")
        if head == "wav":
            if not rest:
                raise ManifestError(f"{context}: wav spec needs a path, got {text!r}")
            return cls(kind="wav", path=rest)
        if head == "synth":
            kind, sep, seed_text = rest.partition(":")
            if not sep or kind not in SOURCE_KINDS:
                raise ManifestError(
                    f"{context}: synth spec must be synth:<kind>:<seed> with kind in "
                    f"{SOURCE_KINDS}, got {text!r}"
                )
            try:
                seed = int(seed_text)
            except ValueError:
                raise ManifestError(f"{context}: bad synth seed {seed_text!r}") from None
            if seed < 0:
                raise ManifestError(f"{context}: synth seed must be non-negative, got {seed}")
            return cls(kind="synth", synth_kind=kind, seed=seed)
        raise ManifestError(f"{context}: unknown source spec {text!r} (wav: or synth:)")


@dataclass
class ManifestRecord:
    split: str
    spec1: SourceSpec
    spec2: SourceSpec
    snr_db: float
    line_no: int


def parse_manifest(path):
    """Parse a manifest file into records, validating every line."""
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ManifestError(f"cannot read manifest {path}: {err}") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        context = f"{path}:{line_no}"
        fields = line.split("\t")
        if len(fields) != 4:
            raise ManifestError(
                f"{context}: expected split<TAB>spec1<TAB>spec2<TAB>snr_db, "
                f"got {len(fields)} fields in {line!r}"
            )
        split, spec1_text, spec2_text, snr_text = fields
        if split not in SPLITS:
            raise ManifestError(f"{context}: unknown split {split!r} (have {SPLITS})")
        try:
            snr_db = float(snr_text)
        except ValueError:
            raise ManifestError(f"{context}: bad snr_db {snr_text!r}") from None
        if not -5.0 <= snr_db <= 5.0:
            raise ManifestError(f"{context}: snr_db {snr_db} outside [-5, 5]")
        records.append(
            ManifestRecord(
                split=split,
                spec1=SourceSpec.parse(spec1_text, context),
                spec2=SourceSpec.parse(spec2_text, context),
                snr_db=snr_db,
                line_no=line_no,
            )
        )
    return records


def split_records(records, split):
    if split not in SPLITS:
        raise ManifestError(f"unknown split {split!r} (have {SPLITS})")
    return [r for r in records if r.split == split]
