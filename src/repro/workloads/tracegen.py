"""Synthetic address-trace generators.

These stand in for running the real applications under Intel PIN: they
produce load/store address streams with the *structural* locality of each
modelled code — streaming sweeps, blocked reuse, stencil neighbourhoods,
pair-interaction slabs — so the profiler of :mod:`repro.profiler` exercises
the paper's §2.4 pipeline end to end (fixed windows → footprint/WSS/reuse →
period detection → input-scaling regression).

The water_nsquared and ocean_cp generators are the subjects of figure 12;
their measured working sets grow sublinearly with input size because a
fixed-size sampling window can only re-touch so much data, which is exactly
the "logarithmic curve" the paper observes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ProfilerError
from ..mem.address import AddressSpace, Region
from ..mem.trace import MemoryTrace, concat_traces

__all__ = [
    "streaming_trace",
    "blocked_trace",
    "water_pp1_trace",
    "water_pp2_trace",
    "ocean_pp1_trace",
    "ocean_pp2_trace",
    "raytrace_trace",
    "volrend_trace",
    "phased_trace",
]

_LINE = 64
_DEFAULT_ACCESSES = 2_000_000


def _stencil(region: Region, center: np.ndarray, row_bytes: int) -> np.ndarray:
    """5-point stencil reads of each 8-byte point, points in row order.

    Per point: centre, north, south, west, east, each neighbour's absolute
    address added straight into its column of the one output array.  The
    callers' centres skip the region's first and last rows, so every
    neighbour lies in the region; that is checked once, from the centre's
    range.
    """
    deltas = (0, -row_bytes, row_bytes, -8, 8)
    if center.size and not (
        0 <= int(center.min()) + min(deltas)
        and int(center.max()) + max(deltas) < region.size
    ):
        raise ProfilerError(f"a stencil neighbour leaves region {region.name!r}")
    out = np.empty(center.shape + (len(deltas),), dtype=np.int64)
    for k, delta in enumerate(deltas):
        np.add(center, region.base + delta, out=out[..., k])
    return out.reshape(-1)


def _rows_needed(n_accesses: int, per_row: int) -> int:
    """Rows of ``per_row`` accesses that cover ``n_accesses`` (the last one cut)."""
    return max(0, -(-n_accesses // per_row))


# ----------------------------------------------------------------------
# generic building blocks (tests, BLAS demos)
# ----------------------------------------------------------------------
def streaming_trace(
    array_bytes: int,
    n_accesses: int = _DEFAULT_ACCESSES,
    stride: int = 8,
    label: str = "stream",
) -> MemoryTrace:
    """Pure streaming: one sequential sweep pattern, no temporal reuse.

    Models BLAS-1: each line is touched ``64/stride`` times in quick
    succession (spatial locality) and never again.
    """
    space = AddressSpace()
    region = space.alloc("stream", max(array_bytes, stride))
    offsets = (np.arange(n_accesses, dtype=np.int64) * stride)
    return MemoryTrace(region.addr(offsets), label=label)


def blocked_trace(
    block_bytes: int,
    n_accesses: int = _DEFAULT_ACCESSES,
    reuse_passes: int = 8,
    label: str = "blocked",
) -> MemoryTrace:
    """Loop-blocked reuse: sweep one block ``reuse_passes`` times, move on.

    Models BLAS-3: within a window the hot set is one block, touched many
    times (high reuse ratio).
    """
    if reuse_passes < 1:
        raise ProfilerError("reuse_passes must be >= 1")
    space = AddressSpace()
    region = space.alloc("blocked", block_bytes * 64)
    per_pass = block_bytes // 8
    sweep = np.arange(per_pass, dtype=np.int64) * 8
    chunks = []
    produced = 0
    block = 0
    while produced < n_accesses:
        base = block * block_bytes
        for _ in range(reuse_passes):
            chunks.append(base + sweep)
        produced += per_pass * reuse_passes
        block += 1
    offsets = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(region.addr(offsets), label=label)


# ----------------------------------------------------------------------
# water_nsquared (figure 12: Wnsq PP1 / PP2)
# ----------------------------------------------------------------------
_MOL_BYTES = 192  # one molecule record: position/velocity/force = 3 lines


def water_pp1_trace(
    n_molecules: int,
    n_accesses: int = _DEFAULT_ACCESSES,
    jmp_layout: Optional[dict] = None,
) -> MemoryTrace:
    """The O(n²) inter-molecular pair sweep (largest progress period).

    Molecules are spatially sorted, so the cutoff-radius partners of row
    ``i`` occupy an index *slab* of width ``w ∝ n^(2/3)`` (a 3-D box's
    cross-section grows with the two-thirds power of its volume).  The
    sweep touches ``mol[i]`` and every ``mol[j]`` in the slab; consecutive
    rows overlap almost entirely, so the slab is the window's hot set.
    """
    if n_molecules < 64:
        raise ProfilerError("need at least 64 molecules")
    space = AddressSpace()
    mol = space.alloc("molecules", n_molecules * _MOL_BYTES)
    # Cutoff-radius partners occupy an index slab that grows sublinearly
    # with the molecule count (the box side grows as the cube root of the
    # volume; the spatially-sorted slab cross-section a touch faster).
    slab = max(64, int(90 * n_molecules**0.55))
    slab = min(slab, n_molecules)
    # Per row: interleave the row molecule's record with its slab partners.
    pairs_per_row = slab
    rows = max(1, n_accesses // (4 * pairs_per_row))
    i = np.arange(rows, dtype=np.int64)[:, None]
    # position read, velocity read, force write per partner record, then
    # the row molecule's record, row by row: each column built in place
    out = np.empty((rows, slab, 4), dtype=np.int64)
    j_addrs = out[..., 0]
    np.add(i, np.arange(slab, dtype=np.int64), out=j_addrs)
    # a partner index is below n_molecules, so its record is in the region
    np.remainder(j_addrs, n_molecules, out=j_addrs)
    np.multiply(j_addrs, _MOL_BYTES, out=j_addrs)
    np.add(j_addrs, mol.base, out=j_addrs)
    np.add(j_addrs, 64, out=out[..., 1])
    np.add(j_addrs, 128, out=out[..., 2])
    out[..., 3] = mol.element_addr(i, _MOL_BYTES)
    addrs = out.reshape(-1)[:n_accesses]
    return MemoryTrace(
        addrs,
        label=f"wnsq.pp1[{n_molecules}]",
        jmp_addresses=_jmps_for(addrs.size, jmp_layout),
    )


def water_pp2_trace(
    n_molecules: int,
    n_accesses: int = _DEFAULT_ACCESSES,
    jmp_layout: Optional[dict] = None,
) -> MemoryTrace:
    """The predictor/corrector pass (second-largest progress period).

    Sweeps the molecule derivative arrays (≈288 B per molecule) in blocks,
    making three passes over each block — the Gear predictor touches each
    derivative order separately.  The hot set saturates once a block of
    three passes no longer fits a sampling window.
    """
    space = AddressSpace()
    deriv = space.alloc("derivatives", n_molecules * 288)
    block_mols = 16384
    passes = 8  # one pass per derivative order kept by the Gear predictor
    b = np.arange(_rows_needed(n_accesses, block_mols * passes), dtype=np.int64)
    base = (b[:, None] * block_mols) % max(1, n_molecules)
    block = deriv.element_addr(base + np.arange(block_mols, dtype=np.int64), 288)
    addrs = np.repeat(block, passes, axis=0).reshape(-1)[:n_accesses]
    return MemoryTrace(
        addrs,
        label=f"wnsq.pp2[{n_molecules}]",
        jmp_addresses=_jmps_for(addrs.size, jmp_layout),
    )


# ----------------------------------------------------------------------
# ocean_cp (figure 12: Ocp PP1 / PP2)
# ----------------------------------------------------------------------
def ocean_pp1_trace(
    dim: int,
    n_accesses: int = _DEFAULT_ACCESSES,
    jmp_layout: Optional[dict] = None,
) -> MemoryTrace:
    """The jacobcalc stencil phase: 5-point sweeps over the full grid.

    At the 1x input (514²) the whole grid is ~2.1 MB and is re-swept within
    a window; at larger inputs a window covers a shrinking fraction of the
    grid, so the measured working set saturates.
    """
    if dim < 16:
        raise ProfilerError("grid dimension too small")
    space = AddressSpace()
    grid = space.alloc("grid", dim * dim * 8)
    row = np.arange(dim, dtype=np.int64)
    i = np.arange(1, _rows_needed(n_accesses, 5 * dim) + 1, dtype=np.int64)
    r = i % (dim - 2) + 1
    center = (r * (dim * 8))[:, None] + row * 8
    addrs = _stencil(grid, center, dim * 8)[:n_accesses]
    return MemoryTrace(
        addrs,
        label=f"ocean.pp1[{dim}]",
        jmp_addresses=_jmps_for(addrs.size, jmp_layout),
    )


def ocean_pp2_trace(
    dim: int,
    n_accesses: int = _DEFAULT_ACCESSES,
    jmp_layout: Optional[dict] = None,
) -> MemoryTrace:
    """The laplacalc phase: red-black half-sweep over a smaller field.

    Touches every other point (two passes: red then black, which re-touch
    their four neighbours), over a field ~36 % the area of the main grid —
    Table 2's 0.76 MB at the 1x input.
    """
    space = AddressSpace()
    side = max(16, int(dim * 0.6))
    field = space.alloc("field", side * side * 8)
    cols = np.arange(0, side - 2, 2, dtype=np.int64)
    i = np.arange(1, _rows_needed(n_accesses, 5 * cols.size) + 1, dtype=np.int64)
    r = i % (side - 2) + 1
    parity = (i // (side - 2)) % 2
    center = ((r * side + parity) * 8)[:, None] + cols * 8
    addrs = _stencil(field, center, side * 8)[:n_accesses]
    return MemoryTrace(
        addrs,
        label=f"ocean.pp2[{dim}]",
        jmp_addresses=_jmps_for(addrs.size, jmp_layout),
    )


# ----------------------------------------------------------------------
# raytrace / volrend (tree-traversal renderers)
# ----------------------------------------------------------------------
def raytrace_trace(
    n_scene_nodes: int = 60_000,
    n_accesses: int = _DEFAULT_ACCESSES,
    tree_depth: int = 14,
    jmp_layout: Optional[dict] = None,
    seed: int = 12345,
) -> MemoryTrace:
    """BVH traversal: every ray walks root→leaf through the scene tree.

    The top levels of the tree are shared by all rays (extremely hot); the
    leaves spread across the whole scene.  This gives the high-reuse,
    large-working-set signature of Table 2's raytrace periods.
    """
    if n_scene_nodes < (1 << 8):
        raise ProfilerError("scene too small")
    space = AddressSpace()
    node_bytes = 96  # BVH node: bounds + children
    nodes = space.alloc("bvh", n_scene_nodes * node_bytes)
    tris = space.alloc("triangles", n_scene_nodes * 2 * 64)
    rng = np.random.default_rng(seed)
    rays = max(1, n_accesses // (tree_depth + 2))
    # Each ray visits node 1, then a child path: index path doubles with a
    # random left/right choice — coherent rays (consecutive) share prefixes.
    chunks = []
    for start in range(0, rays, 4096):
        batch = min(4096, rays - start)
        idx = np.ones(batch, dtype=np.int64)
        visit = [nodes.element_addr(idx, node_bytes)]
        # rays in a batch are spatially coherent: same coarse direction
        coarse = rng.integers(0, 2, size=tree_depth // 2)
        for d in range(tree_depth):
            if d < tree_depth // 2:
                bit = np.full(batch, coarse[d], dtype=np.int64)
            else:
                bit = rng.integers(0, 2, size=batch).astype(np.int64)
            idx = idx * 2 + bit
            visit.append(nodes.element_addr(idx % n_scene_nodes, node_bytes))
        # leaf: touch a couple of triangles
        visit.append(tris.element_addr(idx % (n_scene_nodes * 2), 64))
        visit.append(tris.element_addr((idx + 1) % (n_scene_nodes * 2), 64))
        chunks.append(np.stack(visit, axis=1).reshape(-1))
    addrs = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(
        addrs,
        label=f"raytrace[{n_scene_nodes}]",
        jmp_addresses=_jmps_for(addrs.size, jmp_layout),
    )


def volrend_trace(
    volume_side: int = 128,
    n_accesses: int = _DEFAULT_ACCESSES,
    tile: int = 16,
    jmp_layout: Optional[dict] = None,
) -> MemoryTrace:
    """Tile-ordered ray casting into a voxel volume.

    Rays of one image tile pierce a compact sub-volume (high locality
    within the tile, the per-thread private hot set of Table 2's volrend);
    successive tiles move to fresh sub-volumes.
    """
    if volume_side < 2 * tile:
        raise ProfilerError("volume too small for the tile size")
    space = AddressSpace()
    voxels = space.alloc("volume", volume_side**3)  # 1 byte per voxel
    image = space.alloc("image", volume_side * volume_side * 4)
    tiles_per_side = volume_side // tile
    chunks = []
    produced = 0
    t = 0
    depth = volume_side
    while produced < n_accesses:
        ty, tx = divmod(t % (tiles_per_side**2), tiles_per_side)
        # every ray of the tile walks the depth axis through its column
        for py in range(tile):
            y = ty * tile + py
            x0 = tx * tile
            cols = (np.arange(tile, dtype=np.int64) + x0)
            for z in range(0, depth, 2):  # early-ray termination: step 2
                off = (z * volume_side + y) * volume_side + cols
                chunks.append(voxels.addr(off))
            chunks.append(image.addr((y * volume_side + cols) * 4))
        produced += tile * (depth // 2 + 1) * tile
        t += 1
    addrs = np.concatenate(chunks)[:n_accesses]
    return MemoryTrace(
        addrs,
        label=f"volrend[{volume_side}]",
        jmp_addresses=_jmps_for(addrs.size, jmp_layout),
    )


# ----------------------------------------------------------------------
# multi-phase traces for period-detection tests (§2.4 pipeline)
# ----------------------------------------------------------------------
def phased_trace(
    phases: list[tuple[str, int, int]],
    accesses_per_phase: int = 600_000,
) -> MemoryTrace:
    """A trace alternating between distinct resource behaviours.

    Args:
        phases: list of (kind, size_bytes, reuse_passes) where kind is
            ``"stream"`` or ``"blocked"``; each entry contributes one
            execution phase the detector should find.
    """
    slices = []
    for k, (kind, size, passes) in enumerate(phases):
        if kind == "stream":
            t = streaming_trace(size, accesses_per_phase, label=f"p{k}.stream")
        elif kind == "blocked":
            t = blocked_trace(size, accesses_per_phase, passes, label=f"p{k}.blocked")
        else:
            raise ProfilerError(f"unknown phase kind {kind!r}")
        # re-base each phase into a distinct region of the address space
        t = MemoryTrace(
            t.addresses + k * (1 << 40),
            instructions_per_access=t.instructions_per_access,
            label=t.label,
        )
        slices.append(t)
    return concat_traces(slices, label="phased")


def _jmps_for(n_accesses: int, layout: Optional[dict]) -> Optional[np.ndarray]:
    """JMP samples for a trace: the inner-loop backedge dominates."""
    if layout is None:
        return None
    stride = layout.get("stride", 256)
    inner = layout["inner_backedge"]
    outer = layout.get("outer_backedge", inner)
    n = n_accesses // stride
    jmps = np.full(n, inner, dtype=np.int64)
    ratio = layout.get("outer_every", 64)
    jmps[::ratio] = outer
    return jmps
