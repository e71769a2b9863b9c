"""FT — the NAS 3-D fast Fourier transform kernel (section 5.2).

"FT is a 3-D Fourier transform.  The input array size is 256 x 256 x 128.
Six iterations of the FFT were calculated."  NPB FT solves a diffusion
PDE spectrally: transform the initial state once, then each iteration
multiplies by the evolution factor in frequency space, inverse-transforms,
and checksums the result.

With a one-dimensional (z-slab) decomposition, the x- and y-FFTs are
local but the z-FFT needs a **distributed transpose**: every cell sends
one block to every other cell.  In the source array each block is a
strided region — one contiguous x-run per (z, y) line — so with hardware
stride support the whole block moves as a *single* ``put_stride``
(section 5.4: "Many stride data transfers are generated by the VPP
Fortran compiler in FT"); without stride support every x-run becomes its
own message, which is why the paper "cannot simulate FT without stride
data transfers" — the trace buffer overflows.  Both modes are
implemented here; the no-stride mode reproduces the overflow when run
with the paper's bounded trace buffer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.core.stride import ElementStride
from repro.lang.distribution import BlockDistribution
from repro.lang.runtime import VPPRuntime

PAPER_PES = 128
PAPER_SHAPE = (128, 256, 256)      # (nz, ny, nx)
PAPER_ITERS = 6
DEFAULT_PES = 8
DEFAULT_SHAPE = (16, 16, 16)
DEFAULT_ITERS = 6
SEED = 161803
ALPHA = 1.0e-4
CHECKSUM_SAMPLES = 1024
#: flops of one complex-to-complex FFT: ~5 n log2 n per transform length n.
_FFT_FLOPS = 5.0


@lru_cache(maxsize=4)
def initial_state(shape: tuple[int, int, int]) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    re = rng.uniform(-0.5, 0.5, shape)
    im = rng.uniform(-0.5, 0.5, shape)
    return (re + 1j * im).astype(np.complex128)


def evolution_factor(shape: tuple[int, int, int], step: int) -> np.ndarray:
    """exp(-4 pi^2 alpha t |k|^2) over the full frequency grid."""
    nz, ny, nx = shape
    kz = np.fft.fftfreq(nz) * nz
    ky = np.fft.fftfreq(ny) * ny
    kx = np.fft.fftfreq(nx) * nx
    k2 = (kz[:, None, None] ** 2 + ky[None, :, None] ** 2
          + kx[None, None, :] ** 2)
    return np.exp(-4.0 * np.pi ** 2 * ALPHA * step * k2)


def checksum_indices(shape: tuple[int, int, int]) -> np.ndarray:
    """The NPB-style sampled checksum coordinates (z, y, x)."""
    nz, ny, nx = shape
    j = np.arange(1, CHECKSUM_SAMPLES + 1)
    return np.stack([(5 * j) % nz, (3 * j) % ny, j % nx], axis=1)


def program(ctx, *, shape: tuple[int, int, int] = DEFAULT_SHAPE,
            iters: int = DEFAULT_ITERS, use_stride: bool = True):
    """Distributed spectral solver with stride-PUT transposes."""
    nz, ny, nx = shape
    p = ctx.num_cells
    rt = VPPRuntime(ctx, use_stride=use_stride)
    zdist = BlockDistribution(nz, p)
    xdist = BlockDistribution(nx, p)
    zlo, zhi = zdist.part_range(ctx.pe)
    xlo, xhi = xdist.part_range(ctx.pe)
    zl, xl = zhi - zlo, xhi - xlo
    zmax, xmax = zdist.local_size(0), xdist.local_size(0)

    # Symmetric communication buffers (allocated identically everywhere).
    #  fwd_buf: z-major staging area for the z->x transpose, laid out as
    #  (nz, ny, xmax); source cell q's rows land at its z-range.
    fwd_buf = ctx.alloc((nz, ny, xmax), np.complex128)
    #  bwd_buf: x-major staging area for the x->z transpose: (nx, ny, zmax).
    bwd_buf = ctx.alloc((nx, ny, zmax), np.complex128)
    work_z = ctx.alloc((zmax, ny, nx), np.complex128)   # z-slab layout
    work_x = ctx.alloc((xmax, ny, nz), np.complex128)   # x-slab layout

    u0 = initial_state(shape)
    work_z.data[:zl] = u0[zlo:zhi]
    yield from ctx.barrier()

    def local_fft2(sign: int) -> None:
        if zl:
            fn = np.fft.fft2 if sign > 0 else np.fft.ifft2
            work_z.data[:zl] = fn(work_z.data[:zl], axes=(1, 2))
        ctx.compute_flops(
            _FFT_FLOPS * zl * (nx * ny * np.log2(max(ny, 2))
                               + ny * nx * np.log2(max(nx, 2))))

    def local_fftz(sign: int) -> None:
        if xl:
            fn = np.fft.fft if sign > 0 else np.fft.ifft
            work_x.data[:xl] = fn(work_x.data[:xl], axis=2)
        ctx.compute_flops(_FFT_FLOPS * xl * ny * nz * np.log2(max(nz, 2)))

    def transpose_z_to_x():
        """Send each cell its x-block of my z-slab; land in fwd_buf."""
        messages = 0
        for q in range(p):
            qlo, qhi = xdist.part_range(q)
            width = qhi - qlo
            if width == 0 or zl == 0:
                continue
            dest_off = (zlo * ny + 0) * xmax
            if q == ctx.pe:
                fwd_buf.data.reshape(nz, ny, xmax)[zlo:zhi, :, :width] = \
                    work_z.data[:zl, :, qlo:qhi]
                continue
            if use_stride:
                ctx.put_stride(
                    q, fwd_buf, work_z,
                    ElementStride(width, zl * ny, nx),
                    ElementStride(width, zl * ny, xmax),
                    dest_offset=dest_off, src_offset=qlo, ack=True)
                messages += 1
            else:
                for row in range(zl * ny):
                    ctx.put(q, fwd_buf, work_z, count=width,
                            dest_offset=dest_off + row * xmax,
                            src_offset=row * nx + qlo, ack=True)
                    messages += 1
        rt._charge(messages)
        yield from rt.movewait()
        # Local permute: work_x[x, y, z] = fwd_buf[z, y, x].
        if xl:
            work_x.data[:xl] = fwd_buf.data[:, :, :xl].transpose(2, 1, 0)
        ctx.compute_flops(0.5 * nz * ny * xl)

    def transpose_x_to_z():
        """Send each cell its z-block of my x-slab; land in bwd_buf."""
        messages = 0
        for q in range(p):
            qlo, qhi = zdist.part_range(q)
            width = qhi - qlo
            if width == 0 or xl == 0:
                continue
            dest_off = (xlo * ny + 0) * zmax
            if q == ctx.pe:
                bwd_buf.data.reshape(nx, ny, zmax)[xlo:xhi, :, :width] = \
                    work_x.data[:xl, :, qlo:qhi]
                continue
            if use_stride:
                ctx.put_stride(
                    q, bwd_buf, work_x,
                    ElementStride(width, xl * ny, nz),
                    ElementStride(width, xl * ny, zmax),
                    dest_offset=dest_off, src_offset=qlo, ack=True)
                messages += 1
            else:
                for row in range(xl * ny):
                    ctx.put(q, bwd_buf, work_x, count=width,
                            dest_offset=dest_off + row * zmax,
                            src_offset=row * nz + qlo, ack=True)
                    messages += 1
        rt._charge(messages)
        yield from rt.movewait()
        # Local permute: work_z[z, y, x] = bwd_buf[x, y, z].
        if zl:
            work_z.data[:zl] = bwd_buf.data[:, :, :zl].transpose(2, 1, 0)
        ctx.compute_flops(0.5 * nx * ny * zl)

    # ---- forward 3-D FFT once ----------------------------------------
    local_fft2(+1)
    yield from transpose_z_to_x()
    local_fftz(+1)
    u_hat = work_x.data[:xl].copy()       # frequency state, x-distributed

    # ---- iterations: evolve, inverse transform, checksum --------------
    factors_full = None
    samples = checksum_indices(shape)
    checksums = []
    for it in range(1, iters + 1):
        if factors_full is None:
            factors_full = evolution_factor(shape, 1)
            # x-distributed slice in (x, y, z) layout:
            my_factor = factors_full.transpose(2, 1, 0)[xlo:xhi]
        work_x.data[:xl] = (u_hat
                            * (my_factor ** it if xl else 1.0))
        ctx.compute_flops(6.0 * xl * ny * nz)
        local_fftz(-1)
        yield from transpose_x_to_z()
        local_fft2(-1)
        # Checksum over the sampled coordinates owned by this cell.
        local_sum = 0.0 + 0.0j
        if zl:
            mine = (samples[:, 0] >= zlo) & (samples[:, 0] < zhi)
            for z, y, x in samples[mine]:
                local_sum += work_z.data[z - zlo, y, x]
        re = yield from rt.gop(local_sum.real)
        im = yield from rt.gop(local_sum.imag)
        checksums.append(complex(re, im))
        yield from ctx.barrier()
    return checksums


def reference(*, shape: tuple[int, int, int] = DEFAULT_SHAPE,
              iters: int = DEFAULT_ITERS) -> list[complex]:
    """Sequential spectral solver via numpy's fftn/ifftn."""
    u0 = initial_state(shape)
    u_hat = np.fft.fftn(u0)
    samples = checksum_indices(shape)
    base = evolution_factor(shape, 1)
    out = []
    for it in range(1, iters + 1):
        x = np.fft.ifftn(u_hat * base ** it)
        out.append(complex(x[samples[:, 0], samples[:, 1],
                             samples[:, 2]].sum()))
    return out


def run(num_cells: int = DEFAULT_PES, *,
        shape: tuple[int, int, int] = DEFAULT_SHAPE,
        iters: int = DEFAULT_ITERS, use_stride: bool = True,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run FT and verify the per-iteration checksums against numpy."""

    def verify(results, machine):
        ref = reference(shape=shape, iters=iters)
        got = results[0]
        agree = all(r == got for r in results)
        close = all(abs(g - e) <= 1e-8 * max(abs(e), 1.0)
                    for g, e in zip(got, ref))
        return {
            "all_cells_agree": agree,
            "checksums_match": close,
            "iteration_count": len(got) == iters,
        }

    return execute("FT", program, num_cells, verify,
                   config=config, resume_from=resume_from,
                   shape=shape, iters=iters, use_stride=use_stride)
