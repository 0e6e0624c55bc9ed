"""Shared type aliases used across the package."""

from __future__ import annotations

from typing import Any, Dict

#: JSON-serialisable checkpoint payload, the currency of every
#: ``state_dict``/``load_state_dict``/``from_state_dict`` in the engine.
StateDict = Dict[str, Any]
