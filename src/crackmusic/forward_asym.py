"""Leading-order far-field model for small cracks and MSR matrix assembly.

The far-field pattern of a collection of well-separated small sound-soft
cracks is, to leading order in 1/|ln h|,

    u_inf(obs, inc) = -(2*pi / ln(h/2)) * sum_m exp(i k (inc - obs) . z_m).

With the observation convention obs_j = -theta_j (the only one MSR files may
declare) the resulting multistatic response (MSR) matrix is complex symmetric
and factors as c * A A^T with A[n, m] = exp(i k theta_n . z_m).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .scene import DirectionSet, make_directions


@dataclass(frozen=True)
class MsrMatrix:
    entries: np.ndarray          # (N, N) complex
    directions: DirectionSet
    wavenumber: float
    provenance: str = "asymptotic"   # asymptotic | bie
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        e = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("MSR matrix must be square")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix has non-finite entries")
        if self.directions.n != e.shape[0]:
            raise ValueError(f"{self.directions.n} directions for a matrix of dimension "
                             f"{e.shape[0]}")
        object.__setattr__(self, "entries", e)

    @property
    def n(self):
        return self.entries.shape[0]


def assemble_msr(scene, h, dirs):
    """K[j, l] = u_inf(-theta_j, theta_l) of the model above, built as c * A A^T."""
    if not (0.0 < h < 2.0):
        raise ValueError("half-length h must lie in (0, 2): ln(h/2) degenerates otherwise")
    z = scene.centers()
    th = dirs.vectors()
    a = np.exp(1j * scene.wavenumber * (th @ z.T))
    c = -2.0 * np.pi / np.log(h / 2.0)
    entries = c * (a @ a.T)
    return MsrMatrix(entries=entries, directions=dirs, wavenumber=scene.wavenumber,
                     provenance="asymptotic")


# --- MSR file format: the complex matrix viewed as interleaved re,im float64
# columns, one CSV row of repr floats per matrix row, + JSON sidecar ---

CONVENTION = "obs=-inc"
_SIDECAR = {     # key: (test of its JSON value, what it must be); type(): a JSON true is a bool
    "convention": (lambda v: v == CONVENTION, repr(CONVENTION)),
    "n": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    "wavenumber": (lambda v: type(v) in (int, float), "a number"),
    "provenance": (lambda v: v in ("asymptotic", "bie"), "'asymptotic' or 'bie'"),
    "direction_mode": (lambda v: v == "closed", "'closed'"),
}


def save_msr(msr, csv_path, sidecar_path):
    with open(csv_path, "w", newline="") as f:   # the bytes csv.writer writes
        f.writelines(",".join(map(repr, row)) + "\r\n"
                     for row in msr.entries.view(np.float64).tolist())
    meta = {
        "n": msr.n,
        "wavenumber": msr.wavenumber,
        "convention": CONVENTION,
        "provenance": msr.provenance,
        "direction_mode": "closed",
        **msr.extra,
    }
    with open(sidecar_path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def load_msr(csv_path, sidecar_path):
    """Read an MSR file pair; ValueError names what disagrees with the format."""
    with open(sidecar_path) as f:
        meta = json.load(f)
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar_path} is a JSON {type(meta).__name__}, not an object")
    for key, (ok, want) in _SIDECAR.items():
        if key not in meta:
            raise ValueError(f"sidecar {sidecar_path} lacks the key {key!r}")
        if not ok(meta[key]):
            raise ValueError(f"sidecar {sidecar_path}: {key!r} must be {want}, not {meta[key]!r}")
    n = meta["n"]
    with open(csv_path, newline="") as f:
        vals = np.array([[float(v) for v in line.split(",")] for line in f.read().splitlines()])
    if vals.shape != (n, 2 * n):
        raise ValueError(f"floats of shape {vals.shape} do not match sidecar n = {n}, "
                         f"which needs n rows of n re,im pairs, shape {(n, 2 * n)}")
    entries = vals.view(np.complex128)
    return MsrMatrix(entries=entries, directions=make_directions(n),
                     wavenumber=float(meta["wavenumber"]), provenance=meta["provenance"],
                     extra={k: v for k, v in meta.items() if k not in _SIDECAR})
