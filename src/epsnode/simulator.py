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

All randomness comes from explicit seeds: ``generate_dataset`` derives every
sample's random streams from its base seed, and the per-sample functions draw
from the ``Generator`` they are given.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import (CIR_LENGTH, AnchorReading, GridMap, Measurement, MeasurementSet, json_field,
                      json_integer, json_number, json_pair, read_json_object, reading)

# The fixed channel: propagation speed in m/ns (speed of light), CIR bin
# width, Gaussian pulse std in bins, first-path detection threshold as a
# fraction of the CIR peak, and excess delay per blocking obstacle.
SPEED_OF_LIGHT = 0.2998
SAMPLE_PERIOD_NS = 1.0
PULSE_SIGMA = 1.0
DETECT_FRAC = 0.2
NLOS_EXCESS_DELAY_NS = 0.5

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
        for name in ("xmin", "ymin", "xmax", "ymax"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"rectangle {name} must be finite, got {value}")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("rectangle must have positive area")

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
    """A room, its anchors in id order (the order of every reading) and its
    obstacles; ``faces`` holds the room's reflecting faces, then each obstacle's."""

    room: Rect
    anchors: tuple[Anchor, ...]
    obstacles: tuple[Obstacle, ...] = ()
    wall_reflectivity: float = MATERIAL_DEFAULTS[Material.WALL][0]
    faces: tuple[_Face, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(sorted(self.anchors, key=lambda a: a.id)))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if len(self.anchors) < 3:
            raise ValueError("environment needs at least 3 anchors")
        if [a.id for a in self.anchors] != list(range(len(self.anchors))):
            raise ValueError("anchor ids must be unique and contiguous from 0")
        for a in self.anchors:
            if not self.room.contains(a.position):
                raise ValueError(f"anchor {a.id} lies outside the room")
        if not 0.0 <= self.wall_reflectivity <= 1.0:  # NaN fails too
            raise ValueError(
                f"wall_reflectivity must be finite and in [0, 1], got {self.wall_reflectivity}")
        faces = _rect_faces(self.room, self.wall_reflectivity)
        for o in self.obstacles:
            faces += _rect_faces(o.footprint, o.reflectivity)
        object.__setattr__(self, "faces", tuple(faces))


@dataclass(frozen=True)
class ChannelParams:
    """The per-sample noise of the channel; the rest of it is fixed."""

    noise_sigma: float = 0.005         # additive white noise amplitude
    range_jitter_sigma: float = 0.03   # m

    def __post_init__(self):
        for name in ("noise_sigma", "range_jitter_sigma"):
            if not (math.isfinite(value := getattr(self, name)) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class PropagationPath:
    delay_ns: float
    amplitude: float


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _segment_crosses_interior(a: Point, b: Point, rect: Rect) -> bool:
    """True iff the open segment (a, b) intersects the OPEN rectangle
    interior. Touching an edge or corner tangentially does not count. The
    endpoints are taken in sorted order, so (a, b) and (b, a) round alike."""
    a, b = sorted((a, b))
    t0, t1 = 0.0, 1.0
    for p, d, lo, hi in (
        (a[0], b[0] - a[0], rect.xmin, rect.xmax),
        (a[1], b[1] - a[1], rect.ymin, rect.ymax),
    ):
        if d == 0.0:
            if not (lo < p < hi):
                return False
        else:
            ta, tb = sorted(((lo - p) / d, (hi - p) / d))
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 >= t1:
                return False
    return t0 < t1


def _blocking_obstacles(env: Environment, a: Point, b: Point) -> list[Obstacle]:
    """The obstacles whose footprint the open segment (a, b) crosses; grazing
    a corner or sliding along an edge blocks nothing."""
    return [o for o in env.obstacles if _segment_crosses_interior(a, b, o.footprint)]


@dataclass(frozen=True)
class _Face:
    """Axis-aligned reflecting segment: the line where coordinate ``axis``
    (0 for x, 1 for y) equals ``coord``, spanning lo..hi along the other."""

    axis: int
    coord: float
    lo: float
    hi: float
    reflectivity: float


def _rect_faces(rect: Rect, reflectivity: float) -> list[_Face]:
    """The faces x == xmin, x == xmax, y == ymin, y == ymax, in that order
    (the order paths, and so CIR sums, are built in)."""
    lo, hi = (rect.xmin, rect.ymin), (rect.xmax, rect.ymax)
    return [
        _Face(axis, corner[axis], lo[1 - axis], hi[1 - axis], reflectivity)
        for axis in (0, 1)
        for corner in (lo, hi)
    ]


def _point(axis: int, coord: float, other: float) -> Point:
    """The point with ``coord`` on coordinate ``axis`` and ``other`` on the other."""
    return (coord, other) if axis == 0 else (other, coord)


def _mirror(p: Point, face: _Face) -> Point:
    return _point(face.axis, 2.0 * face.coord - p[face.axis], p[1 - face.axis])


def _reflection_point(tag: Point, image: Point, face: _Face) -> Point | None:
    """Intersection of segment tag->image with the face segment, or None."""
    a, b = face.axis, 1 - face.axis
    denom = image[a] - tag[a]
    if denom == 0.0:
        return None
    t = (face.coord - tag[a]) / denom
    if not (0.0 < t < 1.0):
        return None
    along = tag[b] + t * (image[b] - tag[b])
    if not (face.lo <= along <= face.hi):
        return None
    return _point(a, face.coord, along)


# ---------------------------------------------------------------------------
# channel model
# ---------------------------------------------------------------------------

def propagation_paths(env: Environment, tag: Point, anchor: Anchor) -> list[PropagationPath]:
    """Direct path plus first-order specular reflections reaching the anchor."""
    paths: list[PropagationPath] = []
    apos = anchor.position

    d = math.dist(tag, apos)
    blockers = _blocking_obstacles(env, tag, apos)
    amp = 1.0 / max(d, 0.1)
    for o in blockers:
        amp *= o.transmissivity
    if amp > 0.0:
        delay = d / SPEED_OF_LIGHT + NLOS_EXCESS_DELAY_NS * len(blockers)
        paths.append(PropagationPath(delay, amp))

    for face in env.faces:
        image = _mirror(apos, face)
        ref = _reflection_point(tag, image, face)
        if ref is None or not env.room.contains(ref):
            continue
        if _blocking_obstacles(env, tag, ref) or _blocking_obstacles(env, ref, apos):
            continue
        d_total = math.dist(tag, image)
        amp = face.reflectivity / max(d_total, 0.1)
        if amp > 0.0:
            paths.append(PropagationPath(d_total / SPEED_OF_LIGHT, amp))

    return paths


def noise_free_cir(env: Environment, tag: Point, anchor: Anchor) -> np.ndarray:
    """The (152,) CIR seen at ``anchor`` for a transmitter at ``tag``, before
    noise: each propagation path, in order, deposits a Gaussian pulse (std
    ``PULSE_SIGMA`` samples) at its delay. Paths whose delay rounds past the
    last bin are dropped."""
    if not env.room.contains(tag):
        raise ValueError(f"tag {tag} outside room")
    samples = np.zeros(CIR_LENGTH)
    bins = np.arange(CIR_LENGTH, dtype=float)
    for path in propagation_paths(env, tag, anchor):
        tau = path.delay_ns / SAMPLE_PERIOD_NS
        if round(tau) <= CIR_LENGTH - 1:
            samples += path.amplitude * np.exp(-((bins - tau) ** 2) / (2.0 * PULSE_SIGMA**2))
    return samples


def add_noise(clean: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """A new array: ``clean`` plus white Gaussian noise of std
    ``noise_sigma`` drawn from ``rng`` (a plain copy when it is 0)."""
    samples = clean.copy()
    if params.noise_sigma > 0.0:
        samples += rng.normal(0.0, params.noise_sigma, CIR_LENGTH)
    return samples


def estimate_range(samples: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> float:
    """Leading-edge range estimate: first bin whose magnitude reaches
    ``DETECT_FRAC`` of the CIR maximum, plus Gaussian jitter.

    When the direct path is attenuated below the threshold the first detected
    path is a reflection, yielding a positive range bias.
    """
    mag = np.abs(samples)
    peak = mag.max()
    if peak == 0.0:
        raise ValueError("no detectable path: CIR is all zero")
    idx = int((mag >= DETECT_FRAC * peak).argmax())
    r = SPEED_OF_LIGHT * idx * SAMPLE_PERIOD_NS
    if params.range_jitter_sigma > 0.0:
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

# Each preset's obstacles in the default room, whose corners hold the anchors.
# A: metal plate just outside the top-right grid edge.
# B: the plate moved inside the top-right grid corner, plus a wooden bridge
#    spanning the two cells next to it.
# C: one metal and one wooden 0.5 x 0.5 m obstacle at distinct interior
#    grid cells.
_PRESETS: dict[str, tuple[Obstacle, ...]] = {
    "nominal": (),
    "A": (Obstacle.of(Rect(5.05, 3.15, 5.15, 3.75), Material.METAL),),
    "B": (
        Obstacle.of(Rect(4.60, 2.90, 4.70, 3.50), Material.METAL),
        Obstacle.of(Rect(4.00, 2.75, 4.50, 3.75), Material.WOOD),
    ),
    "C": (
        Obstacle.of(Rect(3.50, 2.25, 4.00, 2.75), Material.METAL),
        Obstacle.of(Rect(4.00, 1.75, 4.50, 2.25), Material.WOOD),
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def default_grid() -> GridMap:
    """8 x 5 grid of 0.5 m cells centered in the default room."""
    return GridMap(origin=(1.0, 1.25), nx=8, ny=5, cell_size=0.5)


def scenario(name: str) -> Environment:
    """The preset ``name``: the nominal room, or one of its perturbed variants A/B/C."""
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; presets are {', '.join(PRESET_NAMES)}")
    return Environment(room=_ROOM, anchors=_CORNER_ANCHORS, obstacles=_PRESETS[name])


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
    """Read an environment file; raises ``dataset.InputFileError`` naming the
    file when it is missing, not a JSON object, misses a key, holds a value
    of the wrong JSON type (an anchor ``id`` is an integer, and every
    coordinate and coefficient a number) or describes an invalid environment."""

    def numbers(value) -> list[float]:
        return [json_number(v) for v in value]

    with reading(path, "environment file"):
        obj = read_json_object(path)
        room = Rect(*json_field(obj, "room", numbers))
        anchors = tuple(
            Anchor(json_field(a, "id", json_integer), json_field(a, "position", json_pair(json_number)))
            for a in obj["anchors"]
        )
        obstacles = tuple(
            Obstacle(
                Rect(*json_field(o, "footprint", numbers)),
                Material(o["material"]),
                json_field(o, "reflectivity", json_number),
                json_field(o, "transmissivity", json_number),
            )
            for o in obj.get("obstacles", [])
        )
        wall_refl = json_field({"wall_reflectivity": Environment.wall_reflectivity} | obj,
                               "wall_reflectivity", json_number)
        return Environment(room=room, anchors=anchors, obstacles=obstacles, wall_reflectivity=wall_refl)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def check_grid_in_room(env: Environment, grid: GridMap) -> None:
    """Raise ``ValueError`` unless the grid's whole extent lies inside the room."""
    xmin, ymin, xmax, ymax = grid.extent
    if not (env.room.contains((xmin, ymin)) and env.room.contains((xmax, ymax))):
        raise ValueError(f"grid extent {grid.extent} does not fit the room {env.room}")


# numpy's SeedSequence (O'Neill's PCG seed_seq): a pool of 4 words and the
# constants of its hash.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every row of the
    (K, L) uint32 array ``entropy``, as a (K, n_words) uint32 array: numpy's
    hash run on whole columns, so no per-row ``SeedSequence`` is built."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pad = [np.zeros(len(entropy), np.uint32)] * (_POOL_SIZE - entropy.shape[1])
    words = list(entropy.T) + pad
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((len(entropy), n_words), np.uint32)
    for k in range(n_words):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> _XSHIFT)
    return state


def _seed_words(seed: int) -> list[int]:
    """The 32-bit words ``SeedSequence`` splits ``seed`` into, least
    significant first; 0 is one word."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _pass_streams(seed: int, pass_id: int, cells: np.ndarray, samples_per_cell: int,
                  n_anchors: int) -> np.ndarray:
    """Sample (i, j, s) of pass ``pass_id`` at anchor ``a`` draws its CIR
    noise and its range jitter from ``default_rng(k)`` of the two seeds ``k``
    in ``SeedSequence((seed, pass_id, i, j, s, a)).generate_state(2)``. For
    every sample of the pass, this is the 4 uint64 words ``default_rng``
    would seed PCG64 with from each of the two, as a (cells, samples,
    anchors, 2, 4) array."""
    c, s, a = np.indices((len(cells), samples_per_cell, n_anchors)).reshape(3, -1)
    entropy = np.column_stack(
        [np.full(len(c), word) for word in _seed_words(seed)]
        + [np.full(len(c), pass_id), cells[c, 0], cells[c, 1], s, a]
    ).astype(np.uint32)
    seeds = _seed_states(entropy, 2)
    # 8 words read as 4 little-endian uint64, as generate_state(4, np.uint64) reads them
    words = _seed_states(seeds.reshape(-1, 1), 8).astype("<u4").view("<u8").astype(np.uint64)
    return words.reshape(len(cells), samples_per_cell, n_anchors, 2, 4)


@functools.cache
def _precomputed_seed() -> type:
    """A ``SeedSequence`` stand-in that hands PCG64 the words
    ``_pass_streams`` computed. Made on first use: importing
    ``numpy.random`` would add about 6 MB to ``import epsnode``."""
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (len(self.words), self.words.dtype):
                raise ValueError(f"holds {len(self.words)} {self.words.dtype} words only")
            return self.words

    return PrecomputedSeed


def _stream(words: np.ndarray) -> np.random.Generator:
    """The generator ``default_rng`` would return for the seed that
    ``_pass_streams`` turned into ``words``."""
    return np.random.Generator(np.random.PCG64(_precomputed_seed()(words)))


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
    for every pass; deterministic for a fixed seed. The noise-free CIR of
    each (cell, anchor) pair is traced once; only the noise and the range
    jitter are drawn per sample, from streams seeded by the sample's
    coordinates (see ``_pass_streams``), so no sample depends on another.
    A pair that no path reaches would read pure noise, so it is refused."""
    for name, value in (("passes", passes), ("samples_per_cell", samples_per_cell)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    check_grid_in_room(env, grid)
    if params is None:
        params = ChannelParams()

    # allocated before any tracing, so a grid too large to hold fails at once
    templates = np.empty((grid.n_cells, len(env.anchors), CIR_LENGTH))
    cells = np.array(list(grid.cells()))
    for (i, j), clean in zip(cells.tolist(), templates):
        clean[...] = [noise_free_cir(env, grid.cell_center(i, j), a) for a in env.anchors]
        if not (reached := clean.any(axis=1)).all():
            unreached = env.anchors[reached.argmin()].id
            raise ValueError(f"no path reaches anchor {unreached} from cell ({i}, {j})")
    measurements: list[Measurement] = []
    for pass_id in range(passes):
        streams = _pass_streams(seed, pass_id, cells, samples_per_cell, len(env.anchors))
        for (i, j), clean, cell_streams in zip(cells.tolist(), templates, streams):
            for sample_streams in cell_streams:
                readings = []
                for anchor, template, (noise, jitter) in zip(env.anchors, clean, sample_streams):
                    cir = add_noise(template, params, _stream(noise))
                    r = estimate_range(cir, params, _stream(jitter))
                    readings.append(AnchorReading(anchor.id, r, cir))
                measurements.append(Measurement((i, j), pass_id, tuple(readings)))
    return MeasurementSet(scenario_name, grid, measurements, seed)
