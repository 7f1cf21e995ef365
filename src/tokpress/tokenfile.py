"""Binary token container and PGM mask export.

The container is 12 bytes of header (magic, row count, column count, all
little-endian) followed by the row-major float32 payload. Nothing else: the
format is checkable byte for byte and costs no dependencies.

Every file the package writes goes through ``_overwrite``, which writes over
an existing file in place and then cuts it to length.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .core import BinaryMask, ParameterError, _finite, sq_norms, token_matrix

MAGIC = b"TKB1"
_HEADER = struct.Struct("<4sII")


class TokenFileError(ValueError):
    """Base class for container decode failures."""


class MagicError(TokenFileError):
    """Leading bytes are not the container magic."""


class SizeError(TokenFileError):
    """File length disagrees with the header's row/column counts."""


class PayloadError(TokenFileError):
    """Payload holds values a TokenMatrix may not contain."""


def _overwrite(path, data: bytes, seal: int = 0) -> None:
    """Make the file at ``path`` hold exactly ``data``, writing over its old bytes in place.

    Truncating a file to zero first makes the file system free and re-allocate its
    blocks, which costs several times the write. So a regular file that holds bytes
    is written over and then cut to length, its first ``seal`` bytes left zero until
    the rest is written: a rewrite cut short leaves them zeroed. A new or empty file,
    ``/dev/null`` or a pipe just receives ``data``. No fsync, no atomic replace.
    """
    # "wb" asks for O_TRUNC; dropping it keeps the old blocks, which the new bytes overwrite
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as f:
        old = os.fstat(f.fileno())
        if not (stat.S_ISREG(old.st_mode) and old.st_size):
            f.write(data)
            return
        f.write(bytes(seal))
        f.write(memoryview(data)[seal:])  # a view: a slice of bytes would copy the whole file
        f.truncate()
        f.seek(0)
        f.write(data[:seal])


def write_tokens(matrix, path) -> None:
    """Serialize a token matrix; container size is 12 + 4*rows*cols bytes.

    A rewrite writes the magic last, so one cut short reads back as ``MagicError``.
    """
    matrix = token_matrix(matrix)
    rows, cols = matrix.shape
    blob = bytearray(_HEADER.size + matrix.nbytes)  # the only copy of the payload
    _HEADER.pack_into(blob, 0, MAGIC, rows, cols)
    np.frombuffer(blob, "<f4", offset=_HEADER.size).reshape(rows, cols)[...] = matrix
    _overwrite(path, blob, seal=len(MAGIC))


def read_tokens(path) -> np.ndarray:
    """Parse a container back into a float32 matrix, bitwise lossless; the payload is read once."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size:
            raise SizeError(f"{path}: {size} bytes is shorter than the 12-byte header")
        magic, rows, cols = _HEADER.unpack(f.read(_HEADER.size))
        if magic != MAGIC:
            raise MagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        expected = _HEADER.size + 4 * rows * cols
        if size != expected:
            raise SizeError(f"{path}: {size} bytes, header implies {expected}")
        if cols < 1:
            raise PayloadError(f"{path}: column count must be >= 1, got {cols}")
        data = np.empty((rows, cols), dtype="<f4")
        if f.readinto(data) != data.nbytes:  # the file shrank after its size was read
            raise SizeError(f"{path}: payload ends early, header implies {expected} bytes")
    _finite(data, sq_norms(data), path, PayloadError, "payload contains non-finite values")
    return data.astype(np.float32, copy=False)


def export_mask_pgm(mask: BinaryMask, path) -> None:
    """Write a single-view mask as a binary PGM: set cells 255, unset 0."""
    if mask.grid.views != 1:
        raise ParameterError(
            f"PGM export takes a single-view mask, got {mask.grid.views} views"
        )
    header = f"P5\n{mask.grid.width} {mask.grid.height}\n255\n".encode("ascii")
    raster = np.where(mask.bits[0], 255, 0).astype(np.uint8)
    _overwrite(path, header + raster.tobytes())
