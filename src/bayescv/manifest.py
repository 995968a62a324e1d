"""Run manifests: a key=value provenance record next to every output.

Each command writes one manifest capturing the sub-command, all effective
parameter values, SHA-256 digests of the input files, the seed, the
toolkit version, and a UTC timestamp. Data outputs carry a reference back
to the manifest path (a comment line, a JSON key, or a metadata entry,
depending on the format), and every command prints the manifest path to
standard output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

__all__ = ["RunManifest", "file_digest", "write_manifest", "write_kv", "read_kv"]


@dataclass(frozen=True)
class RunManifest:
    command: str
    seed: int | None
    params: dict[str, str] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    version: str = __version__
    created_utc: str = ""

    @classmethod
    def collect(
        cls,
        command: str,
        seed: int | None,
        params: dict[str, object],
        input_paths: list[str | Path],
        digests: dict[str, str] | None = None,
    ) -> "RunManifest":
        """Digest the inputs and stamp the current time.

        ``digests`` maps input paths already hashed to their digests,
        which are taken as they are.
        """
        known = digests or {}
        inputs = {str(p): known.get(str(p)) or file_digest(p) for p in input_paths}
        stamped = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        return cls(
            command=command,
            seed=seed,
            params={k: str(v) for k, v in params.items()},
            inputs=inputs,
            created_utc=stamped,
        )


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    lines = {
        "command": manifest.command,
        "created_utc": manifest.created_utc,
        "version": manifest.version,
    }
    if manifest.seed is not None:
        lines["seed"] = str(manifest.seed)
    for key, value in manifest.params.items():
        lines[f"param[{key}]"] = value
    for name, digest in manifest.inputs.items():
        lines[f"input[{name}]"] = f"sha256:{digest}"
    write_kv(path, lines)


def write_kv(path: str | Path, values: dict[str, str]) -> None:
    """Write one ``key=value`` line per entry, sorted by key.

    A key or value with a line break would add a line of its own, so it
    is a ValueError, raised before the file is opened.
    """
    for key, value in values.items():
        if "\n" in key + value or "\r" in key + value:
            raise ValueError(f"line break in {key}={value!r}, which {path} cannot hold")
    with Path(path).open("w", encoding="utf-8") as handle:
        for key in sorted(values):
            handle.write(f"{key}={values[key]}\n")


def read_kv(path: str | Path) -> dict[str, str]:
    """Inverse of write_kv; blank lines are skipped, a repeated key is a ValueError."""
    out: dict[str, str] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = value
    return out
