"""Campaign manifests: a small JSON file describing one matrix.

Example::

    {
      "name": "fig5-slice",
      "apps": ["gcc", "bwaves"],
      "policies": ["at-commit", "spb"],
      "sb_sizes": [14, 56],
      "prefetchers": ["stream"],
      "length": 30000,
      "seed": 1,
      "warmup": 0
    }

Only ``apps`` is required; everything else falls back to the
:meth:`Campaign.matrix` defaults.  A multicore manifest adds
``"workload_kind": "parsec"`` and ``"threads": 4`` to make every cell one
coherent N-core run.  Unknown keys are rejected so typos (``sb_size``)
fail loudly instead of silently running the default.
"""

from __future__ import annotations

import json

from repro.campaign.job import Campaign

_REQUIRED = {"apps"}
_OPTIONAL = {"name", "policies", "sb_sizes", "prefetchers", "length", "seed",
             "warmup", "workload_kind", "threads"}


class ManifestError(ValueError):
    """The manifest file is malformed."""


def campaign_from_manifest(data: dict) -> Campaign:
    """Build a :class:`Campaign` from already-parsed manifest data."""
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    unknown = set(data) - _REQUIRED - _OPTIONAL
    if unknown:
        raise ManifestError(
            f"unknown manifest key(s) {sorted(unknown)}; "
            f"allowed: {sorted(_REQUIRED | _OPTIONAL)}"
        )
    missing = _REQUIRED - set(data)
    if missing:
        raise ManifestError(f"manifest missing required key(s) {sorted(missing)}")
    apps = data["apps"]
    if not isinstance(apps, list) or not apps:
        raise ManifestError("'apps' must be a non-empty list of workload names")
    kwargs = {key: data[key] for key in _OPTIONAL & set(data)}
    try:
        return Campaign.matrix(apps, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"invalid manifest value: {exc}") from exc


def load_manifest(path: str) -> Campaign:
    """Read and validate a manifest file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    return campaign_from_manifest(data)
