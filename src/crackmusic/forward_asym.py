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
from pathlib import Path

import numpy as np

from .jsoncheck import check, quote
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


# --- MSR file format: the complex matrix viewed as interleaved re,im float64 columns, one
# CSV row of repr floats per matrix row, + JSON sidecar (schemas/msr_sidecar.schema.json) ---


def save_msr(msr, csv_path):
    """Write the file pair; the sidecar names the closed direction set, the only
    one load_msr builds, so a matrix over other angles is a ValueError."""
    if not np.array_equal(msr.directions.angles, make_directions(msr.n).angles):
        raise ValueError(f"an MSR file names the closed set make_directions({msr.n}), "
                         "but the matrix is over other angles")
    with open(csv_path, "w", newline="") as f:   # the bytes csv.writer writes
        f.writelines(",".join(map(repr, row)) + "\r\n"
                     for row in msr.entries.view(np.float64).tolist())
    meta = {"n": msr.n, "wavenumber": msr.wavenumber, "convention": "obs=-inc",
            "provenance": msr.provenance, "direction_mode": "closed", **msr.extra}
    with open(Path(csv_path).with_suffix(".json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def load_msr(csv_path):
    """Read an MSR file pair; ValueError names what disagrees with the format."""
    sidecar_path = Path(csv_path).with_suffix(".json")
    with open(sidecar_path) as f:
        meta = json.load(f)
    schema = check(meta, "msr_sidecar", f"sidecar {sidecar_path}")
    n = int(meta["n"])   # JSON Schema counts 16.0 as an integer, as the config does
    with open(csv_path, newline="") as f:
        vals = np.array([[float(v) for v in line.split(",")] for line in f.read().splitlines()])
    if vals.shape != (n, 2 * n):
        raise ValueError(f"floats of shape {vals.shape} do not match sidecar n = {quote(n)}, "
                         f"which needs n rows of n re,im pairs, shape {quote((n, 2 * n))}")
    entries = vals.view(np.complex128)
    return MsrMatrix(entries=entries, directions=make_directions(n),
                     wavenumber=float(meta["wavenumber"]), provenance=meta["provenance"],
                     extra={k: v for k, v in meta.items() if k not in schema["properties"]})
