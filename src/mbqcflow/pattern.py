"""Measurement planes and per-vertex measurement patterns."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

from .graph import json_number, json_object, json_vertex, parse_json


class Plane(str, Enum):
    """Equatorial measurement plane of a single qubit."""

    XY = "XY"
    XZ = "XZ"
    YZ = "YZ"


@dataclass(frozen=True)
class MeasurementPattern:
    """Measurement angle (radians) and plane for every measured vertex."""

    angles: dict[int, float]
    planes: dict[int, Plane] = field(default_factory=dict)

    def __post_init__(self) -> None:
        planes = dict(self.planes)
        for v in self.angles:
            planes.setdefault(v, Plane.XY)
        if set(planes) != set(self.angles):
            raise ValueError("planes defined for vertices without angles")
        for v, angle in self.angles.items():
            if not math.isfinite(angle):
                raise ValueError(f"angle for vertex {v} is not finite")
        object.__setattr__(self, "angles", dict(self.angles))
        object.__setattr__(self, "planes", planes)

    def angle(self, v: int) -> float:
        return self.angles[v]

    def plane(self, v: int) -> Plane:
        return self.planes[v]

    def to_json_dict(self) -> dict:
        return {
            "angles": {str(v): a for v, a in sorted(self.angles.items())},
            "planes": {str(v): p.value for v, p in sorted(self.planes.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> MeasurementPattern:
        try:
            angles = {
                json_vertex(v, "angles"): json_number(a, f"angle of vertex {v}")
                for v, a in json_object(data["angles"], "angles").items()
            }
            planes = {
                json_vertex(v, "planes"): Plane(p)
                for v, p in json_object(data.get("planes", {}), "planes").items()
            }
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed pattern JSON: {exc}") from exc
        return cls(angles=angles, planes=planes)

    @classmethod
    def from_json(cls, text: str) -> MeasurementPattern:
        return cls.from_json_dict(parse_json(text))
