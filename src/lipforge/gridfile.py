"""Binary grid-function files.

Layout (all little-endian):
  magic   4 bytes  b"LFGF"
  version u16      currently 1
  ndims   u16
  l       u16      codomain dimension
  dims    u32 * ndims
  bbox    f64 * 2*ndims   lo then hi, per axis
  payload f64 * l * prod(dims), row-major (last axis fastest), component
          index innermost
"""

import struct

import numpy as np

from .errors import InputError, check_size

MAGIC = b"LFGF"
VERSION = 1


def write_grid(path, values, bbox):
    """values: array of shape dims + (l,); bbox: (lo, hi) arrays."""
    values = np.asarray(values, dtype="<f8")
    if values.ndim < 2:
        raise InputError("grid values need shape dims + (l,)")
    dims = values.shape[:-1]
    l = values.shape[-1]
    lo = np.asarray(bbox[0], dtype=float).ravel()
    hi = np.asarray(bbox[1], dtype=float).ravel()
    if len(lo) != len(dims) or len(hi) != len(dims):
        raise InputError("bbox arity does not match grid dims")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHH", VERSION, len(dims), l))
        fh.write(struct.pack("<%dI" % len(dims), *dims))
        fh.write(struct.pack("<%dd" % (2 * len(dims)), *lo, *hi))
        fh.write(values.tobytes(order="C"))


def read_grid(path):
    """Returns (values with shape dims + (l,), (lo, hi))."""
    with open(path, "rb") as fh:
        head = fh.read(10)
        if len(head) < 10 or head[:4] != MAGIC:
            raise InputError("not a grid-function file (bad magic)")
        version, ndims, l = struct.unpack("<HHH", head[4:])
        if version != VERSION:
            raise InputError("unsupported grid-file version %d" % version)
        dims = struct.unpack("<%dI" % ndims, fh.read(4 * ndims))
        box = struct.unpack("<%dd" % (2 * ndims), fh.read(16 * ndims))
        lo = np.array(box[:ndims])
        hi = np.array(box[ndims:])
        count = l * int(np.prod(dims))
        payload = np.frombuffer(fh.read(8 * count), dtype="<f8")
        if payload.size != count:
            raise InputError("grid-file payload truncated")
    return payload.reshape(dims + (l,)), (lo, hi)


def sample_fn(fn, bbox, res):
    """Sample a 2-d-domain LipFn on a res x res grid over bbox."""
    lo = np.asarray(bbox[0], dtype=float).ravel()
    hi = np.asarray(bbox[1], dtype=float).ravel()
    if len(lo) != 2:
        raise InputError("grid sampling supports d = 2")
    if res < 1:
        raise InputError("the grid needs res >= 1")
    check_size(res * res, "a %d x %d grid" % (res, res))
    xs = np.linspace(lo[0], hi[0], res)
    ys = np.linspace(lo[1], hi[1], res)
    mx, my = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([mx.ravel(), my.ravel()], axis=1)
    vals = fn.eval(pts)
    return vals.reshape(res, res, fn.l), (lo, hi)
