"""SVD of the MSR matrix, signal-space selection, and the imaging functional.

The imaging functional is E(x; eta) = 1 / |P_noise f(x; eta)| with the test
vector f built from plane-wave phases exp(i eta theta_n . x).  f is normalized
to unit Euclidean norm so the functional has baseline 1 on the noise floor.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

EPS_CLAMP = 1e-12
_BLOCK_POINTS = 1 << 15     # grid points per imaging block


@dataclass(frozen=True)
class SignalSpace:
    singular_values: np.ndarray   # descending
    left_vectors: np.ndarray      # (N, N) columns U_m
    m: int = None                 # selected signal dimension
    ambiguous: bool = False

    @property
    def n(self):
        return self.left_vectors.shape[0]


@dataclass(frozen=True)
class ImageGrid:
    x0: float
    x1: float
    y0: float
    y1: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("grid ranges must be nonempty")

    def _axis(self, lo, hi):
        """lo, lo + step, ... up to hi; a step count within 1e-9 of an integer
        counts as that integer, so 0.3/0.1 reaches 0.3 but no point passes hi."""
        return lo + self.step * np.arange(int(np.floor((hi - lo) / self.step + 1e-9)) + 1)

    def xs(self):
        return self._axis(self.x0, self.x1)

    def ys(self):
        return self._axis(self.y0, self.y1)

    def points(self):
        """All grid points, shape (ny*nx, 2), row-major over (y, x)."""
        xx, yy = np.meshgrid(self.xs(), self.ys())
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class ImageMap:
    grid: ImageGrid
    values: np.ndarray            # (ny, nx), values[iy, ix] at (xs[ix], ys[iy])
    eta: float


def svd_msr(msr):
    """Full SVD of the MSR matrix; selected dimension left unset."""
    try:
        u, s, _ = np.linalg.svd(msr.entries)
    except np.linalg.LinAlgError as e:
        raise ArithmeticError(f"SVD of {msr.n}x{msr.n} MSR matrix failed: {e}") from e
    return SignalSpace(singular_values=s, left_vectors=u)


def select_signal_dim(space, method, m=None, tau=None):
    """Pick the signal-space dimension M.

    method "manual" uses m directly; "threshold" counts sigma_m/sigma_1 >= tau;
    "log_gap" takes the argmax of log(sigma_m / sigma_{m+1}) over the first
    N/2 gaps (the tail gaps of a pure-noise spectrum can be arbitrarily large
    since the smallest singular value clusters near zero).  An exact rank drop
    (sigma_m > 0 = sigma_{m+1}) is an infinite gap and wins; 0/0 is no gap.
    The result is ambiguous, with M = N/2, when the largest gap is below 0.1.
    The keywords match the run config's "signal_dim" object, so a config
    passes as **spec.
    """
    s = space.singular_values
    n = space.n
    if method == "manual":
        if m is None or not (0 <= m <= n):
            raise ValueError(f"manual M must lie in [0, {n}]")
        return replace(space, m=int(m), ambiguous=False)
    if method == "threshold":
        if tau is None:
            raise ValueError("threshold method needs tau")
        if s[0] == 0:
            return replace(space, m=0, ambiguous=True)
        return replace(space, m=int(np.sum(s / s[0] >= tau)), ambiguous=False)
    if method == "log_gap":
        bound = n // 2
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.log(s[:bound]) - np.log(s[1:bound + 1])
        gaps = np.where(np.isnan(gaps), -np.inf, gaps)
        if np.max(gaps, initial=-np.inf) < 0.1:
            return replace(space, m=bound, ambiguous=True)
        return replace(space, m=int(np.argmax(gaps)) + 1, ambiguous=False)
    raise ValueError(f"unknown selection method {method!r}")


def imaging_map(space, grid, eta, dirs):
    """E(x; eta) = 1 / max(|P_noise f(x; eta)|, eps) over the grid.

    The steering phases separate, exp(i eta theta.x) = exp(i eta x cos)
    exp(i eta y sin), so only an (nx, N) and an (ny, N) factor are built.
    |P_noise f| is the norm of f against the N - M trailing left singular
    vectors, taken one block of about _BLOCK_POINTS grid points at a time.
    """
    if space.m is None:
        raise ValueError("signal dimension M not selected")
    if not eta > 0:
        raise ValueError("eta must be positive")
    th = dirs.vectors()
    if th.shape[0] != space.n:
        raise ValueError(f"{th.shape[0]} directions for an MSR matrix of dimension {space.n}")
    xs, ys = grid.xs(), grid.ys()
    # with M = 0 the noise space is all of C^N and |f| = 1, so E = 1 exactly
    values = np.ones((ys.size, xs.size))
    if space.m > 0:
        ex = np.exp(1j * eta * np.outer(xs, th[:, 0]))
        ey = np.exp(1j * eta * np.outer(ys, th[:, 1])) / np.sqrt(th.shape[0])
        noise = space.left_vectors[:, space.m:].conj()
        rows = max(1, _BLOCK_POINTS // xs.size)
        for i in range(0, ys.size, rows):
            f = (ey[i:i + rows, None, :] * ex).reshape(-1, th.shape[0])
            p = (f @ noise).view(np.float64)
            r = np.sqrt(np.einsum("ij,ij->i", p, p))
            values[i:i + rows] = 1.0 / np.maximum(r, EPS_CLAMP).reshape(-1, xs.size)
    return ImageMap(grid=grid, values=values, eta=eta)


@dataclass(frozen=True)
class PeakList:
    peaks: tuple        # ((x, y), value) pairs, descending value
    complete: bool      # False when fewer maxima exist than requested


def find_peaks(imap, count):
    """Top `count` strict 8-neighbor local maxima with sub-cell quadratic refinement."""
    if count < 1:
        raise ValueError("count must be >= 1")
    v = imap.values
    ny, nx = v.shape
    c = v[1:-1, 1:-1]
    mask = np.ones_like(c, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            mask &= c > v[1 + dy:ny - 1 + dy, 1 + dx:nx - 1 + dx]
    iy, ix = np.nonzero(mask)
    iy, ix = iy + 1, ix + 1
    order = np.argsort(v[iy, ix])[::-1][:count]
    xs, ys = imap.grid.xs(), imap.grid.ys()
    step = imap.grid.step
    out = []
    for j in order:
        py, px = int(iy[j]), int(ix[j])
        dx = _quad_offset(v[py, px - 1], v[py, px], v[py, px + 1])
        dy = _quad_offset(v[py - 1, px], v[py, px], v[py + 1, px])
        out.append(((float(xs[px] + dx * step), float(ys[py] + dy * step)),
                    float(v[py, px])))
    return PeakList(peaks=tuple(out), complete=len(out) >= count)


def _quad_offset(left, mid, right):
    denom = left - 2.0 * mid + right
    if denom >= 0:
        return 0.0
    return float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))


# --- exports ---

def save_map_csv(imap, path):
    """x,y,value rows of repr floats with CRLF line ends, the bytes csv.writer writes."""
    xs = [repr(x) + "," for x in imap.grid.xs().tolist()]
    with open(path, "w", newline="") as f:
        f.write("x,y,value\r\n")
        for y, row in zip(imap.grid.ys().tolist(), np.asarray(imap.values, dtype=float).tolist()):
            yc = repr(y) + ","
            f.write("".join([x + yc + repr(v) + "\r\n" for x, v in zip(xs, row)]))


def save_map_pgm(imap, path):
    """8-bit binary PGM (P5), min-max normalized, rows top-to-bottom = increasing y."""
    v = imap.values
    lo, hi = float(v.min()), float(v.max())
    scaled = np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)
    pix = np.round(255.0 * scaled).astype(np.uint8)
    ny, nx = v.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n255\n".encode())
        f.write(pix.tobytes())


def save_spectrum_csv(space, path):
    s = space.singular_values
    top = s[0] if s.size and s[0] > 0 else 1.0
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "sigma", "sigma_rel"])
        for i, val in enumerate(s, start=1):
            w.writerow([i, repr(float(val)), repr(float(val / top))])
