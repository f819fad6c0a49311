"""Measurement planes and per-vertex measurement patterns."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .graph import JsonText, json_number, json_object, json_vertex


class Plane(str, Enum):
    """Equatorial measurement plane of a single qubit."""

    XY = "XY"
    XZ = "XZ"
    YZ = "YZ"


@dataclass(frozen=True)
class MeasurementPattern(JsonText):
    """Measurement angle (radians) and plane for every measured vertex.

    Planes are coerced with ``Plane(p)`` as in :class:`~.flow.GFlow`, so an
    unknown plane raises ValueError; a vertex without a plane is measured in XY.
    """

    angles: dict[int, float]
    planes: dict[int, Plane] = field(default_factory=dict)

    def __post_init__(self) -> None:
        planes = {v: Plane(p) for v, p in self.planes.items()}
        for v in self.angles:
            planes.setdefault(v, Plane.XY)
        if set(planes) != set(self.angles):
            raise ValueError("planes defined for vertices without angles")
        for v, angle in self.angles.items():
            if not math.isfinite(angle):
                raise ValueError(f"angle for vertex {v} is not finite")
        object.__setattr__(self, "angles", dict(self.angles))
        object.__setattr__(self, "planes", planes)

    def to_json_dict(self) -> dict:
        return {
            "angles": {str(v): a for v, a in sorted(self.angles.items())},
            "planes": {str(v): p.value for v, p in sorted(self.planes.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> MeasurementPattern:
        data = json_object(data, "pattern")
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
