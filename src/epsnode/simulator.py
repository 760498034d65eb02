"""Planar UWB propagation model.

Synthesizes channel impulse responses (CIRs) and noisy range estimates for a
tag anywhere in a rectangular room with axis-aligned obstacles. The model is
deliberately simple but produces the effects that matter for novelty
detection:

* direct-path attenuation and excess delay through occluding obstacles
  (NLoS), so range bias emerges from first-path detection rather than being
  injected,
* first-order specular reflections off room walls and obstacle faces via the
  image method, giving obstacle-dependent multipath structure.

All randomness is driven by explicit integer seeds; every function is pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import json

import numpy as np

from .dataset import CIR_LENGTH, AnchorReading, GridMap, Measurement, MeasurementSet

# Propagation speed in m/ns (speed of light).
SPEED_OF_LIGHT = 0.2998

Point = tuple[float, float]


class Material(str, Enum):
    METAL = "metal"
    WOOD = "wood"
    WALL = "wall"


# material -> (reflectivity, transmissivity)
MATERIAL_DEFAULTS: dict[Material, tuple[float, float]] = {
    Material.METAL: (0.9, 0.05),
    Material.WOOD: (0.4, 0.5),
    Material.WALL: (0.5, 0.0),
}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (meters)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("rectangle must have positive area")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def contains(self, p: Point) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def distance_to(self, p: Point) -> float:
        """Euclidean distance from a point to the rectangle (0 inside)."""
        dx = max(self.xmin - p[0], 0.0, p[0] - self.xmax)
        dy = max(self.ymin - p[1], 0.0, p[1] - self.ymax)
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class Anchor:
    id: int
    position: Point


@dataclass(frozen=True)
class Obstacle:
    footprint: Rect
    material: Material
    reflectivity: float
    transmissivity: float

    def __post_init__(self):
        if not (0.0 <= self.reflectivity <= 1.0 and 0.0 <= self.transmissivity <= 1.0):
            raise ValueError("reflectivity and transmissivity must be in [0, 1]")
        if self.reflectivity + self.transmissivity > 1.0:
            raise ValueError("reflectivity + transmissivity must be <= 1")

    @classmethod
    def of(cls, footprint: Rect, material: Material | str) -> "Obstacle":
        material = Material(material)
        refl, trans = MATERIAL_DEFAULTS[material]
        return cls(footprint, material, refl, trans)


@dataclass(frozen=True)
class Environment:
    room: Rect
    anchors: tuple[Anchor, ...]
    obstacles: tuple[Obstacle, ...] = ()
    wall_reflectivity: float = MATERIAL_DEFAULTS[Material.WALL][0]

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if len(self.anchors) < 3:
            raise ValueError("environment needs at least 3 anchors")
        ids = sorted(a.id for a in self.anchors)
        if ids != list(range(len(self.anchors))):
            raise ValueError("anchor ids must be unique and contiguous from 0")
        for a in self.anchors:
            if not self.room.contains(a.position):
                raise ValueError(f"anchor {a.id} lies outside the room")

    @property
    def n_anchors(self) -> int:
        return len(self.anchors)

    def anchors_by_id(self) -> tuple[Anchor, ...]:
        return tuple(sorted(self.anchors, key=lambda a: a.id))


@dataclass(frozen=True)
class ChannelParams:
    """Radio/physics stand-in parameters; all configurable."""

    c: float = SPEED_OF_LIGHT          # m/ns
    sample_period: float = 1.0         # ns per CIR bin
    pulse_sigma: float = 1.0           # Gaussian pulse std, in samples
    noise_sigma: float = 0.005         # additive white noise amplitude
    detect_frac: float = 0.2           # first-path detection threshold fraction
    range_jitter_sigma: float = 0.03   # m
    nlos_excess_delay: float = 0.5     # ns per blocking obstacle

    def __post_init__(self):
        if min(self.c, self.sample_period, self.pulse_sigma) <= 0:
            raise ValueError("c, sample_period, pulse_sigma must be positive")
        if self.noise_sigma < 0 or self.range_jitter_sigma < 0 or self.nlos_excess_delay < 0:
            raise ValueError("noise/jitter/delay parameters must be non-negative")
        if not (0.0 < self.detect_frac < 1.0):
            raise ValueError("detect_frac must be in (0, 1)")


@dataclass(frozen=True)
class PropagationPath:
    delay_ns: float
    amplitude: float
    kind: str  # "direct" | "reflection"


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _segment_crosses_interior(a: Point, b: Point, rect: Rect) -> bool:
    """True iff the open segment (a, b) intersects the OPEN rectangle
    interior. Touching an edge or corner tangentially does not count."""
    t0, t1 = 0.0, 1.0
    for p, d, lo, hi in (
        (a[0], b[0] - a[0], rect.xmin, rect.xmax),
        (a[1], b[1] - a[1], rect.ymin, rect.ymax),
    ):
        if d == 0.0:
            if not (lo < p < hi):
                return False
        else:
            ta = (lo - p) / d
            tb = (hi - p) / d
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 >= t1:
                return False
    return t0 < t1


def line_of_sight(env: Environment, a: Point, b: Point) -> bool:
    """True iff no obstacle footprint blocks the open segment (a, b).

    Grazing a footprint corner or edge counts as line of sight; an endpoint
    strictly inside a footprint does not.
    """
    for p in (a, b):
        if not env.room.contains(p):
            raise ValueError(f"point {p} outside room")
    return not _blocking_obstacles(env, a, b)


def _blocking_obstacles(env: Environment, a: Point, b: Point) -> list[Obstacle]:
    return [o for o in env.obstacles if _segment_crosses_interior(a, b, o.footprint)]


@dataclass(frozen=True)
class _Face:
    """Axis-aligned reflecting segment: axis 'x' means the vertical line
    x == coord spanning lo..hi in y (and vice versa for 'y')."""

    axis: str
    coord: float
    lo: float
    hi: float
    reflectivity: float


def _faces(env: Environment) -> list[_Face]:
    room = env.room
    wr = env.wall_reflectivity
    faces = [
        _Face("x", room.xmin, room.ymin, room.ymax, wr),
        _Face("x", room.xmax, room.ymin, room.ymax, wr),
        _Face("y", room.ymin, room.xmin, room.xmax, wr),
        _Face("y", room.ymax, room.xmin, room.xmax, wr),
    ]
    for o in env.obstacles:
        fp = o.footprint
        r = o.reflectivity
        faces.extend(
            [
                _Face("x", fp.xmin, fp.ymin, fp.ymax, r),
                _Face("x", fp.xmax, fp.ymin, fp.ymax, r),
                _Face("y", fp.ymin, fp.xmin, fp.xmax, r),
                _Face("y", fp.ymax, fp.xmin, fp.xmax, r),
            ]
        )
    return faces


def _mirror(p: Point, face: _Face) -> Point:
    if face.axis == "x":
        return (2.0 * face.coord - p[0], p[1])
    return (p[0], 2.0 * face.coord - p[1])


def _reflection_point(tag: Point, image: Point, face: _Face) -> Point | None:
    """Intersection of segment tag->image with the face segment, or None."""
    if face.axis == "x":
        denom = image[0] - tag[0]
        if denom == 0.0:
            return None
        t = (face.coord - tag[0]) / denom
        if not (0.0 < t < 1.0):
            return None
        y = tag[1] + t * (image[1] - tag[1])
        if not (face.lo <= y <= face.hi):
            return None
        return (face.coord, y)
    denom = image[1] - tag[1]
    if denom == 0.0:
        return None
    t = (face.coord - tag[1]) / denom
    if not (0.0 < t < 1.0):
        return None
    x = tag[0] + t * (image[0] - tag[0])
    if not (face.lo <= x <= face.hi):
        return None
    return (x, face.coord)


# ---------------------------------------------------------------------------
# channel model
# ---------------------------------------------------------------------------

def propagation_paths(
    env: Environment, tag: Point, anchor: Anchor, params: ChannelParams
) -> list[PropagationPath]:
    """Direct path plus first-order specular reflections reaching the anchor."""
    paths: list[PropagationPath] = []
    apos = anchor.position

    d = math.dist(tag, apos)
    blockers = _blocking_obstacles(env, tag, apos)
    amp = 1.0 / max(d, 0.1)
    for o in blockers:
        amp *= o.transmissivity
    if amp > 0.0:
        delay = d / params.c + params.nlos_excess_delay * len(blockers)
        paths.append(PropagationPath(delay, amp, "direct"))

    for face in _faces(env):
        image = _mirror(apos, face)
        ref = _reflection_point(tag, image, face)
        if ref is None:
            continue
        if not env.room.contains(ref):
            continue
        if _blocking_obstacles(env, tag, ref) or _blocking_obstacles(env, ref, apos):
            continue
        d_total = math.dist(tag, image)
        amp = face.reflectivity / max(d_total, 0.1)
        if amp <= 0.0:
            continue
        paths.append(PropagationPath(d_total / params.c, amp, "reflection"))

    return paths


def synthesize_cir(
    env: Environment,
    tag: Point,
    anchor: Anchor,
    params: ChannelParams,
    rng_seed: int,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Render the (152,) CIR seen at ``anchor`` for a transmitter at ``tag``.

    Each propagation path deposits a Gaussian pulse (std ``pulse_sigma``
    samples) at its delay; white Gaussian noise is added on top. Paths whose
    delay falls beyond the last bin are dropped (counted in ``diagnostics``
    under "dropped_paths" when a dict is passed).
    """
    if not env.room.contains(tag):
        raise ValueError(f"tag {tag} outside room")
    samples = np.zeros(CIR_LENGTH)
    bins = np.arange(CIR_LENGTH, dtype=float)
    dropped = 0
    for path in propagation_paths(env, tag, anchor, params):
        tau = path.delay_ns / params.sample_period
        if round(tau) > CIR_LENGTH - 1:
            dropped += 1
            continue
        samples += path.amplitude * np.exp(
            -((bins - tau) ** 2) / (2.0 * params.pulse_sigma**2)
        )
    if params.noise_sigma > 0.0:
        rng = np.random.default_rng(rng_seed)
        samples += rng.normal(0.0, params.noise_sigma, CIR_LENGTH)
    if diagnostics is not None:
        diagnostics["dropped_paths"] = diagnostics.get("dropped_paths", 0) + dropped
    return samples


def estimate_range(samples: np.ndarray, params: ChannelParams, rng_seed: int) -> float:
    """Leading-edge range estimate: first bin whose magnitude reaches
    ``detect_frac`` of the CIR maximum, plus Gaussian jitter.

    When the direct path is attenuated below the threshold the first detected
    path is a reflection, yielding a positive range bias.
    """
    mag = np.abs(samples)
    peak = mag.max()
    if peak == 0.0:
        raise ValueError("no detectable path: CIR is all zero")
    idx = int(np.argmax(mag >= params.detect_frac * peak))
    r = params.c * idx * params.sample_period
    if params.range_jitter_sigma > 0.0:
        rng = np.random.default_rng(rng_seed)
        r += rng.normal(0.0, params.range_jitter_sigma)
    return float(r)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

_ROOM = Rect(0.0, 0.0, 6.0, 5.0)
_CORNER_ANCHORS = (
    Anchor(0, (0.0, 0.0)),
    Anchor(1, (6.0, 0.0)),
    Anchor(2, (6.0, 5.0)),
    Anchor(3, (0.0, 5.0)),
)

PRESET_NAMES = ("nominal", "A", "B", "C")


def default_grid() -> GridMap:
    """8 x 5 grid of 0.5 m cells centered in the default room."""
    return GridMap(origin=(1.0, 1.25), nx=8, ny=5, cell_size=0.5)


def scenario(name: str) -> Environment:
    """Scenario presets: nominal room plus perturbed variants A/B/C.

    A: metal plate just outside the top-right grid edge.
    B: the plate moved inside the top-right grid corner, plus a wooden
       bridge spanning the two cells next to it.
    C: one metal and one wooden 0.5 x 0.5 m obstacle at distinct interior
       grid cells.
    """
    if name == "nominal":
        obstacles: tuple[Obstacle, ...] = ()
    elif name == "A":
        obstacles = (Obstacle.of(Rect(5.05, 3.15, 5.15, 3.75), Material.METAL),)
    elif name == "B":
        obstacles = (
            Obstacle.of(Rect(4.60, 2.90, 4.70, 3.50), Material.METAL),
            Obstacle.of(Rect(4.00, 2.75, 4.50, 3.75), Material.WOOD),
        )
    elif name == "C":
        obstacles = (
            Obstacle.of(Rect(3.50, 2.25, 4.00, 2.75), Material.METAL),
            Obstacle.of(Rect(4.00, 1.75, 4.50, 2.25), Material.WOOD),
        )
    else:
        raise ValueError(f"unknown scenario {name!r}; presets are {', '.join(PRESET_NAMES)}")
    return Environment(room=_ROOM, anchors=_CORNER_ANCHORS, obstacles=obstacles)


def save_environment(env: Environment, path: str | Path) -> None:
    obj = {
        "room": [env.room.xmin, env.room.ymin, env.room.xmax, env.room.ymax],
        "wall_reflectivity": env.wall_reflectivity,
        "anchors": [{"id": a.id, "position": list(a.position)} for a in env.anchors],
        "obstacles": [
            {
                "footprint": [o.footprint.xmin, o.footprint.ymin, o.footprint.xmax, o.footprint.ymax],
                "material": o.material.value,
                "reflectivity": o.reflectivity,
                "transmissivity": o.transmissivity,
            }
            for o in env.obstacles
        ],
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def load_environment(path: str | Path) -> Environment:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    room = Rect(*[float(v) for v in obj["room"]])
    anchors = tuple(
        Anchor(int(a["id"]), (float(a["position"][0]), float(a["position"][1])))
        for a in obj["anchors"]
    )
    obstacles = tuple(
        Obstacle(
            Rect(*[float(v) for v in o["footprint"]]),
            Material(o["material"]),
            float(o["reflectivity"]),
            float(o["transmissivity"]),
        )
        for o in obj.get("obstacles", [])
    )
    wall_refl = float(obj.get("wall_reflectivity", MATERIAL_DEFAULTS[Material.WALL][0]))
    return Environment(room=room, anchors=anchors, obstacles=obstacles, wall_reflectivity=wall_refl)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def check_grid_in_room(env: Environment, grid: GridMap) -> None:
    """Raise ``ValueError`` unless the grid's whole extent lies inside the room."""
    xmin, ymin, xmax, ymax = grid.extent
    if not (env.room.contains((xmin, ymin)) and env.room.contains((xmax, ymax))):
        raise ValueError(f"grid extent {grid.extent} does not fit the room {env.room}")


def _sample_seeds(base_seed: int, pass_id: int, i: int, j: int, s: int, anchor_id: int):
    """Two independent integer seeds (CIR noise, range jitter) derived from
    the base seed and sample coordinates; schedule-independent by design."""
    ss = np.random.SeedSequence((base_seed, pass_id, i, j, s, anchor_id))
    state = ss.generate_state(2)
    return int(state[0]), int(state[1])


def generate_dataset(
    env: Environment,
    grid: GridMap,
    passes: int,
    samples_per_cell: int,
    seed: int,
    params: ChannelParams | None = None,
    scenario_name: str = "custom",
) -> MeasurementSet:
    """Simulate ``samples_per_cell`` measurements at every grid-cell center
    for every pass; deterministic for a fixed seed."""
    if passes < 1 or samples_per_cell < 1:
        raise ValueError("passes and samples_per_cell must be >= 1")
    check_grid_in_room(env, grid)
    if params is None:
        params = ChannelParams()

    anchors = env.anchors_by_id()
    measurements: list[Measurement] = []
    for pass_id in range(passes):
        for i, j in ((i, j) for j in range(grid.ny) for i in range(grid.nx)):
            tag = grid.cell_center(i, j)
            for s in range(samples_per_cell):
                readings = []
                for anchor in anchors:
                    cir_seed, jitter_seed = _sample_seeds(seed, pass_id, i, j, s, anchor.id)
                    cir = synthesize_cir(env, tag, anchor, params, cir_seed)
                    r = estimate_range(cir, params, jitter_seed)
                    readings.append(AnchorReading(anchor.id, r, cir))
                measurements.append(Measurement((i, j), pass_id, tuple(readings)))
    return MeasurementSet(scenario_name, grid, measurements, seed)
