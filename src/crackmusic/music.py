"""SVD of the MSR matrix, signal-space selection, and the imaging functional.

The imaging functional is E(x; eta) = 1 / |P_noise f(x; eta)| with the test
vector f built from plane-wave phases exp(i eta theta_n . x).  f is normalized
to unit Euclidean norm so the functional has baseline 1 on the noise floor.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

EPS_CLAMP = 1e-12
_BLOCK_BYTES = 1 << 21      # bytes of one block of grid rows, as every map walks them


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
        spans = ((self.x1 - self.x0) / self.step, (self.y1 - self.y0) / self.step)
        if not (spans[0] + 1) * (spans[1] + 1) <= np.iinfo(np.intp).max:   # inf fails too
            raise ValueError(f"grid (x1 - x0) / step and (y1 - y0) / step are {spans}, "
                             "but the grid's point count must be at most "
                             f"{np.iinfo(np.intp).max}, the largest array size")

    def _axis(self, lo, hi):
        """lo, lo + step, ... up to hi; a step count within 1e-9 of an integer
        counts as that integer, so 0.3/0.1 reaches 0.3 but no point passes hi."""
        return lo + self.step * np.arange(int(np.floor((hi - lo) / self.step + 1e-9)) + 1)

    def xs(self):
        return self._axis(self.x0, self.x1)

    def ys(self):
        return self._axis(self.y0, self.y1)

    def row_blocks(self, bytes_per_row):
        """Slices of whole grid rows, each holding at most _BLOCK_BYTES at
        bytes_per_row (at least one row): the one block size of every map."""
        rows = max(1, _BLOCK_BYTES // bytes_per_row)
        return [slice(i, i + rows) for i in range(0, self.ys().size, rows)]


@dataclass(frozen=True)
class ImageMap:
    grid: ImageGrid
    values: np.ndarray            # (ny, nx), values[iy, ix] at (xs[ix], ys[iy])


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
    vectors.  The y factor is folded into those vectors, and directions of
    equal cos theta (theta and 2 pi - theta) share one x factor, so their
    folded rows are summed first: a grid row is one (nx, G) by (G, N - M)
    product, G the number of distinct cos theta, and no steering vector is
    formed.  A block of grid rows holds at most ImageGrid.row_blocks' budget
    of what its rows build, so the kernel's temporaries stay a few MB whatever
    the grid size.
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
        order, starts = _mirror_groups(th[:, 0])
        ex = np.exp(1j * eta * np.outer(xs, th[order[starts], 0]))
        ey = np.exp(1j * eta * np.outer(ys, th[order, 1])) / np.sqrt(th.shape[0])
        noise = space.left_vectors[order, space.m:].conj()
        # a row builds complex (N, N - M), (G, N - M) and (nx, N - M) stacks and three (nx) norms
        row_bytes = 16 * noise.shape[1] * (th.shape[0] + starts.size + xs.size) + 24 * xs.size
        for rows in grid.row_blocks(row_bytes):
            # C order, (rows, G, N - M): each group's rows of ey * noise summed
            w = np.add.reduceat(ey[rows, :, None] * noise, starts, axis=1)
            p = np.matmul(ex, w).view(np.float64)   # one (nx, G) @ (G, N - M) per row
            r = np.sqrt(np.einsum("rij,rij->ri", p, p))
            values[rows] = 1.0 / np.maximum(r, EPS_CLAMP)
            del w, p, r                             # freed before the next block's stacks
    return ImageMap(grid=grid, values=values)


def _mirror_groups(cos):
    """The directions grouped by cos theta: an order that lists each group's
    members together, in index order, and the group starts within it.  cos
    values at most 4 ulps of 1 apart form one group: theta and 2 pi - theta,
    whose cosines the angle arithmetic leaves a few ulps apart, and the
    repeated 0 and 2 pi."""
    by_cos = np.argsort(cos, kind="stable")
    new = np.diff(cos[by_cos]) > 4 * np.finfo(float).eps
    group = np.empty(cos.size, dtype=int)
    group[by_cos] = np.concatenate([[0], np.cumsum(new)])
    order = np.argsort(group, kind="stable")
    return order, np.flatnonzero(np.diff(group[order], prepend=-1))


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
#
# A map CSV holds repr floats.  _value_chars gives repr's characters for a
# whole array at once.  For 1 <= v < 1e16, which holds every imaging and
# theory map value (each is 1 / a norm <= 1), it finds the shortest decimal
# that reads back as v, the nearer one where there are two, with exact
# arithmetic only: y = v 10^k in [1e16, 1e17) as a double-double, the
# half-width of v's rounding interval in y units, and int64 remainders.  Other
# values go through repr, once per distinct value, and so do the few that the
# exact arithmetic leaves to a rounding rule: an interval end within 1e-12 of
# an integer, or y halfway between two candidates.

_POW10_INT = np.array([10 ** j for j in range(18)], dtype=np.int64)
_POW10 = np.array([float(10 ** j) for j in range(17)])   # exact
_SPLIT = 134217729.0                                    # 2^27 + 1, Veltkamp's splitter
_POW10_HI = np.array([_SPLIT * p - (_SPLIT * p - p) for p in _POW10.tolist()])
_POW10_LO = _POW10 - _POW10_HI
# for v in [2^(e-1), 2^e), e = 1..54: 16 - floor(log10 v) or one more, and half an ulp of v
_SCALE_OF_EXP = np.array([17 - len(str(2 ** max(e - 1, 0))) for e in range(55)])
_HALF_ULP = np.array([2.0 ** (e - 54) for e in range(55)])
_LEAD, _TRAIL, _ZERO_FRACTION = 10000, 20000, 30000
_POINT = np.frombuffer(b"\0\0\0.", np.uint32)[0]
_CSV_BYTES_PER_POINT = 256     # the most save_map_csv holds per value of a block


def _scaled(v, k):
    """(n, frac): v 10^k = n + frac exactly, with n an int64 and 0 <= frac < 1,
    for v 10^k in [2^53, 2^63)."""
    hi = v * _POW10[k]                              # an integer, being >= 2^53
    vh = _SPLIT * v                                 # Dekker's TwoProduct: lo = v 10^k - hi
    vh -= vh - v
    vl = v - vh
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = vh * ph - hi
    lo += vh * pl
    lo += vl * ph
    lo += vl * pl
    fl = np.floor(lo)
    return hi.astype(np.int64) + fl.astype(np.int64), lo - fl


def _interval(n0, frac, half):
    """(top, width, ends) for the interval y -+ half, y = n0 + frac: the
    integers strictly inside are top - width ... top, and ends holds
    (indices, integer) for ends within 1e-12 of an integer (frac -+ half is exact)."""
    lower, upper = frac - half, frac + half
    first, last = np.floor(lower) + 1, np.ceil(upper) - 1
    ends = []
    for end in (lower, upper):
        on = np.flatnonzero(np.abs(end - np.round(end)) <= 1e-12 * half)
        ends.append((on, n0[on] + np.round(end[on]).astype(np.int64)))
    return n0 + last.astype(np.int64), (last - first).astype(np.int64), ends


def _shortest_digits(v):
    """(n, k, j, fast): for fast[i], repr(v[i]) is the decimal n[i] 10^-k[i],
    where n[i] is an int64 in [1e16, 1e17) whose last j[i] digits are zeros."""
    f, e = np.frexp(v)
    fast = (v >= 1.0) & (v < 1e16) & (f != 0.5)     # a power of two has a lopsided interval
    v = np.where(fast, v, 3.0)
    e = np.where(fast, e, 2)
    k = _SCALE_OF_EXP[e]
    k -= v >= _POW10[17 - k]                        # now 1e16 <= y = v 10^k < 1e17
    n0, frac = _scaled(v, k)
    top, width, ends = _interval(n0, frac, _POW10[k] * _HALF_ULP[e])  # half in (0.55, 11.1]
    # the largest j for which a multiple of 10^j lies inside; none for j means none for j + 1
    j = np.zeros_like(k)
    live = np.flatnonzero(fast)
    for level in range(1, 17):
        live = live[top[live] % _POW10_INT[level] <= width[live]]
        if live.size == 0:
            break
        j[live] = level
    # an end on a multiple of 10^(j+1) leaves j to the rule for ends
    for on, end in ends:
        fast[on[end % _POW10_INT[j[on] + 1] == 0]] = False
    # the multiple of 10^j nearest y
    q = _POW10_INT[j]
    r = n0 % q
    down, up = r + frac, (q - r) - frac
    n = n0 - r + q * (down > up)
    fast &= (down != up) & (n < _POW10_INT[17])
    return n, k, j, fast


@functools.cache
def _chunk_table():
    """The four ASCII digits of 0..9999 as one uint32, in four tables (at
    _LEAD, _TRAIL, _ZERO_FRACTION): all digits; leading zeros as NUL; trailing
    zeros as NUL; and the same with 0 as "0".  Built on first use, so an
    import that writes no map pays nothing."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    table = np.empty((4, 10000, 4), np.uint8)
    table[:] = digits + np.uint8(ord("0"))
    table[1][np.maximum.accumulate(digits, axis=1) == 0] = 0
    table[2:, np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] == 0] = 0
    table[3, 0, 0] = ord("0")
    return table.view(np.uint32).ravel()


def _chunks(x, count):
    """The last count 4-digit chunks of the int64 array x, most significant first."""
    out = []
    for _ in range(count):
        out.append(x % 10000)
        x = x // 10000
    return out[::-1]


def _value_chars(v):
    """repr(v[i]) for each i as a bytes ("S") array; NULs inside an item are not
    part of the text."""
    n, k, j, fast = _shortest_digits(v)
    scale = _POW10_INT[k]
    whole = n // scale
    fraction = (n - whole * scale) * _POW10_INT[16 - k]    # its 16 digits, left aligned
    # as many 4-digit chunks as the widest integer part and the longest fraction
    # take: leading zeros of the integer part and trailing zeros of the
    # fraction are NUL, but a zero fraction is ".0"
    wide = (17 - k[fast].min(initial=16) + 3) // 4
    long = (max(1, (k - j)[fast].max(initial=1)) + 3) // 4
    table = _chunk_table()
    words = np.empty((v.size, wide + 1 + long), np.uint32)
    lead = True
    for i, c in enumerate(_chunks(whole, wide)):
        words[:, i] = table[c + _LEAD * lead]
        lead = lead & (c == 0)
    words[:, wide] = _POINT
    trail = True
    for i, c in reversed(list(enumerate(_chunks(fraction // _POW10_INT[16 - 4 * long], long)))):
        words[:, wide + 1 + i] = table[c + (_TRAIL if i else _ZERO_FRACTION) * trail]
        trail = trail & (c == 0)
    chars = words.view(f"S{words.shape[1] * 4}").ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        bits, inverse = np.unique(v[slow].view(np.int64), return_inverse=True)
        text = np.fromiter(map(repr, bits.view(np.float64).tolist()), "S24", bits.size)
        chars = chars.astype(f"S{max(24, chars.itemsize)}")
        chars[slow] = text[inverse]
    return chars


def _csv_lines(xs, ys, values):
    """The lines "x,y,value\\r\\n" of a block of grid rows as one uint8 array:
    x, y and value fields, each NUL-padded to its widest item, with NULs dropped."""
    chars = _value_chars(values.ravel())
    lines = np.empty(values.shape,
                     [("x", xs.dtype), ("y", ys.dtype), ("v", chars.dtype), ("end", "S2")])
    lines["x"], lines["y"], lines["end"] = xs, ys[:, None], b"\r\n"
    lines["v"] = chars.reshape(values.shape)
    del chars                                       # freed before the peak, the compress below
    lines = lines.view(np.uint8)
    return lines[lines != 0]


def save_map_csv(imap, path):
    """x,y,value rows of repr floats with CRLF line ends, the bytes csv.writer writes.

    A block of grid rows is formatted at once (_value_chars), within
    _CSV_BYTES_PER_POINT of temporaries per value."""
    g = imap.grid
    xs = np.array([repr(x) + "," for x in g.xs().tolist()], dtype="S")
    ys = np.array([repr(y) + "," for y in g.ys().tolist()], dtype="S")
    values = np.asarray(imap.values, dtype=float)
    with open(path, "wb") as f:
        f.write(b"x,y,value\r\n")
        for rows in g.row_blocks(_CSV_BYTES_PER_POINT * xs.size):
            f.write(_csv_lines(xs, ys[rows], values[rows]))


def save_map_pgm(imap, path):
    """8-bit binary PGM (P5), min-max normalized, rows top-to-bottom = increasing y,
    scaled and written a block of grid rows at a time."""
    v = imap.values
    lo, hi = float(v.min()), float(v.max())
    ny, nx = v.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n255\n".encode())
        for rows in imap.grid.row_blocks(32 * nx):     # three float64 temporaries a pixel
            scaled = np.zeros_like(v[rows]) if hi == lo else (v[rows] - lo) / (hi - lo)
            f.write(np.round(255.0 * scaled).astype(np.uint8))


def save_spectrum_csv(space, path):
    """index,sigma,sigma_rel rows of repr floats, CRLF line ends: the bytes csv.writer writes."""
    s = space.singular_values
    top = s[0] if s.size and s[0] > 0 else 1.0
    with open(path, "w", newline="") as f:
        f.write("index,sigma,sigma_rel\r\n")
        f.writelines(f"{i},{float(v)!r},{float(v / top)!r}\r\n" for i, v in enumerate(s, start=1))
