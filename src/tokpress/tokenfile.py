"""Binary token container and PGM mask export.

The container is 12 bytes of header (magic, row count, column count, all
little-endian) followed by the row-major float32 payload. Nothing else: the
format is checkable byte for byte and costs no dependencies.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import BinaryMask, ParameterError, token_matrix

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


def write_tokens(matrix, path) -> None:
    """Serialize a token matrix; container size is 12 + 4*rows*cols bytes."""
    matrix = token_matrix(matrix)
    rows, cols = matrix.shape
    blob = _HEADER.pack(MAGIC, rows, cols) + matrix.astype("<f4").tobytes()
    Path(path).write_bytes(blob)


def read_tokens(path) -> np.ndarray:
    """Parse a container back into a float32 matrix, bitwise lossless."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise SizeError(f"{path}: {len(blob)} bytes is shorter than the 12-byte header")
    magic, rows, cols = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise MagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    expected = _HEADER.size + 4 * rows * cols
    if len(blob) != expected:
        raise SizeError(f"{path}: {len(blob)} bytes, header implies {expected}")
    if cols < 1:
        raise PayloadError(f"{path}: column count must be >= 1, got {cols}")
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(rows, cols)
    if data.size and not np.isfinite(data).all():
        raise PayloadError(f"{path}: payload contains non-finite values")
    return data.astype(np.float32)


def export_mask_pgm(mask: BinaryMask, path) -> None:
    """Write a single-view mask as a binary PGM: set cells 255, unset 0."""
    if mask.grid.views != 1:
        raise ParameterError(
            f"PGM export takes a single-view mask, got {mask.grid.views} views"
        )
    header = f"P5\n{mask.grid.width} {mask.grid.height}\n255\n".encode("ascii")
    raster = np.where(mask.view(0), 255, 0).astype(np.uint8)
    Path(path).write_bytes(header + raster.tobytes())
