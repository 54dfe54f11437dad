"""Build and damage ``.rpb`` files byte by byte, without the writer under test.

The layout is restated here (magic, ``numpy.save`` members per rank block,
JSON footer, offset + tail magic) so tests can hold columns no
``TraceRecord`` may carry (negative timestamps, ids outside the string
table) and can corrupt one block while the footer stays valid.
"""

import io
import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"RPB1"
TAIL = struct.Struct("<Q4s")
TAIL_MAGIC = b"RPBX"
MAGIC_NPY = b"\x93NUMPY"

#: (column, dtype) of the nine block members, in file order.
MEMBERS = (
    ("kind", np.uint8),
    ("time", np.float64),
    ("name", np.uint32),
    ("mpi_pos", np.int64),
    ("mpi_op", np.uint32),
    ("mpi_mask", np.uint8),
    ("mpi_vals", np.int64),
    ("mpi_nbytes", np.int64),
    ("mpi_comm", np.uint32),
)


def npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def block_bytes(**columns) -> bytes:
    """One rank block; columns left out are empty."""
    members = []
    for name, dtype in MEMBERS:
        array = np.asarray(columns.get(name, ()), dtype=dtype)
        if name == "mpi_vals":
            array = array.reshape(-1, 4)
        members.append(npy_bytes(array))
    return b"".join(members)


def write_rpb(path: Path, blocks, strings) -> Path:
    """Write ``blocks`` — ``(rank, n_records, block bytes)`` — under a valid footer."""
    body = bytearray(MAGIC)
    entries = []
    for rank, n_records, block in blocks:
        entries.append([rank, len(body), len(block), n_records])
        body += block
    footer = {"version": 1, "ranks": entries, "strings": list(strings)}
    path.write_bytes(
        bytes(body)
        + json.dumps(footer, separators=(",", ":")).encode("utf-8")
        + TAIL.pack(len(body), TAIL_MAGIC)
    )
    return path


def read_blocks(path: Path):
    """``(blocks, strings)`` of an existing file, in :func:`write_rpb`'s form."""
    data = path.read_bytes()
    footer_offset, _ = TAIL.unpack(data[-TAIL.size :])
    footer = json.loads(data[footer_offset : -TAIL.size])
    blocks = [
        (rank, n_records, data[offset : offset + length])
        for rank, offset, length, n_records in footer["ranks"]
    ]
    return blocks, footer["strings"]


def rewrite_block(path: Path, rank: int, damage, n_records=None) -> Path:
    """Replace ``rank``'s block by ``damage(block)``; the footer stays consistent.

    ``n_records`` overrides the index's record count for that rank.
    """
    blocks, strings = read_blocks(path)
    rewritten = [
        (r, n if r != rank or n_records is None else n_records, damage(block) if r == rank else block)
        for r, n, block in blocks
    ]
    return write_rpb(path, rewritten, strings)


def split_members(block: bytes) -> list[bytes]:
    """The ``.npy`` members of a well-formed block, as ``numpy.load`` delimits them."""
    members, handle = [], io.BytesIO(block)
    while handle.tell() < len(block):
        start = handle.tell()
        np.load(handle, allow_pickle=False)
        members.append(block[start : handle.tell()])
    return members


def npy_member(descr: str, shape: tuple, data: bytes, version=(1, 0)) -> bytes:
    """A hand-built ``.npy`` member: any header over any payload."""
    header = f"{{'descr': {descr!r}, 'fortran_order': False, 'shape': {shape!r}, }}"
    length_bytes = 2 if version[0] == 1 else 4
    padding = -(len(MAGIC_NPY) + 2 + length_bytes + len(header) + 1) % 64
    header = (header + " " * padding + "\n").encode("latin1")
    return MAGIC_NPY + bytes(version) + len(header).to_bytes(length_bytes, "little") + header + data

