"""RP005 fixture: config schemas with a dead field on each class."""

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    chunk_size: int = 512
    stale_engine_knob: int = 0  # line 9: seeded violation, read nowhere


@dataclass(frozen=True)
class CuTSConfig(EngineConfig):
    workers: int = 1
    phantom_knob: float = 0.5  # line 15: seeded violation, read nowhere
