"""Multimodal column plumbing (image/audio as opaque binary + metadata).

The container has no image/audio codecs, so the decode kernels are
STUBBED behind ``_decode_image_impl`` (deterministic fake: parses the
synthetic header this module's encoder writes).  Everything around the
stub -- schema, stage shape, batch sizing for large binary
payloads, output layout -- is real and tested, so swapping in a real
codec (PIL / ffmpeg) changes one function.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # "image" | "audio"
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("sample_rate", pa.int32()),
    ]
)

_MAGIC = b"FAKEIMG1"


def encode_fake_image(media_id: int, width: int, height: int) -> bytes:
    """Deterministic synthetic payload with a parseable header."""
    rng = np.random.default_rng(media_id)
    pixels = rng.integers(0, 256, width * height, dtype=np.uint8).tobytes()
    return _MAGIC + struct.pack("<II", width, height) + pixels


def gen_media_table(n: int, seed: int = 0) -> pa.Table:
    rng = np.random.default_rng(seed)
    rows = {k: [] for k in MEDIA_SCHEMA.names}
    for i in range(n):
        w, h = int(rng.integers(8, 64)), int(rng.integers(8, 64))
        rows["media_id"].append(i)
        rows["kind"].append("image")
        rows["payload"].append(encode_fake_image(i, w, h))
        rows["width"].append(w)
        rows["height"].append(h)
        rows["sample_rate"].append(0)
    return pa.Table.from_arrays(
        [pa.array(rows[f.name], f.type) for f in MEDIA_SCHEMA],
        schema=MEDIA_SCHEMA,
    )


def _decode_image_impl(payload: bytes):
    """STUB decode: parses the synthetic format.  A real deployment
    replaces this with PIL/turbojpeg; raise for unknown formats."""
    if not payload.startswith(_MAGIC):
        raise NotImplementedError(
            "real image codecs are unavailable in this environment"
        )
    w, h = struct.unpack("<II", payload[8:16])
    pix = np.frombuffer(payload[16 : 16 + w * h], dtype=np.uint8)
    return w, h, pix


def _map_stage(ds, make, batch_size):
    """Task ``map_batches`` of a stage class: its constructor is cheap
    (function references and ints), so each batch builds its own
    instance instead of holding an actor -- as actor pools these
    stages did not finish on a one-CPU cluster."""
    return ds.map_batches(
        lambda batch: make()(batch),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class DecodeAndFeaturize:
    """Stage: decode binary payload -> mechanical features.

    Setup (codec init) belongs in __init__; __call__ only touches the
    batch.  Batches of large binary payloads must stay
    small -- pass batch_size explicitly when wiring this stage.
    """

    def __init__(self):
        self.decode = _decode_image_impl

    def __call__(self, batch: pa.Table) -> pa.Table:
        means, stds, sums, ns, ws, hs = [], [], [], [], [], []
        for payload in batch.column("payload").to_pylist():
            w, h, pix = self.decode(payload)
            ws.append(w)
            hs.append(h)
            # integer aggregates are exact under any combine order (the
            # SQL oracle reproduces them bit-for-bit from the payload
            # bytes; the mean is one exact-int division)
            s = int(pix.sum(dtype=np.int64))
            sums.append(s)
            ns.append(int(pix.size))
            means.append(s / pix.size if pix.size else 0.0)
            stds.append(float(pix.std()) if pix.size else 0.0)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
                "pixel_sum": pa.array(sums, pa.int64()),
                "n_pixels": pa.array(ns, pa.int64()),
                "pixel_mean": pa.array(means, pa.float64()),
                "pixel_std": pa.array(stds, pa.float64()),
            }
        )


def decode_features(ds, batch_size=64):
    """Wire the decode stage with small batches (binary payloads)."""
    return _map_stage(ds, DecodeAndFeaturize, batch_size)


class ResizeBox:
    """Resize stage: integer box-downsample by ``factor``.

    Pixel (r, c) maps to block (r//f, c//f); each output pixel is the
    FLOOR of its block's mean (edge blocks average their actual
    members), so every value is exact-integer and the SQL oracle can
    recompute the result from the payload hex walk bit-for-bit.
    Emits the resized payload re-encoded in the same synthetic format
    (the plumbing a real thumbnailing stage needs) plus the integer
    aggregate features that pin it.
    """

    def __init__(self, factor: int = 4):
        self.f = int(factor)
        self.decode = _decode_image_impl

    def __call__(self, batch: pa.Table) -> pa.Table:
        f = self.f
        ids, rws, rhs, sums, payloads = [], [], [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            w, h, pix = self.decode(payload)
            rw, rh = (w + f - 1) // f, (h + f - 1) // f
            idx = np.arange(w * h)
            bidx = (idx // w // f) * rw + (idx % w) // f
            bsum = np.bincount(
                bidx, weights=pix.astype(np.int64), minlength=rw * rh
            ).astype(np.int64)
            bcnt = np.bincount(bidx, minlength=rw * rh).astype(np.int64)
            out = (bsum // bcnt).astype(np.uint8)
            ids.append(mid)
            rws.append(rw)
            rhs.append(rh)
            sums.append(int(out.sum(dtype=np.int64)))
            payloads.append(
                _MAGIC + struct.pack("<II", rw, rh) + out.tobytes()
            )
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "rw": pa.array(rws, pa.int32()),
                "rh": pa.array(rhs, pa.int32()),
                "resized_sum": pa.array(sums, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )


def resize_images(ds, factor: int = 4, batch_size=64):
    """Wire the resize stage (same batch-sizing rules as decode)."""
    return _map_stage(ds, lambda: ResizeBox(factor), batch_size)


_VMAGIC = b"FAKEVID1"


def encode_fake_video(
    media_id: int, n_frames: int, width: int, height: int
) -> bytes:
    """Deterministic synthetic multi-frame payload: 8-byte magic +
    (n_frames, width, height) + n_frames contiguous w*h frames."""
    rng = np.random.default_rng(media_id + 10_000)
    frames = rng.integers(
        0, 256, n_frames * width * height, dtype=np.uint8
    ).tobytes()
    return _VMAGIC + struct.pack("<III", n_frames, width, height) + frames


def gen_video_table(n: int, seed: int = 0) -> pa.Table:
    rng = np.random.default_rng(seed)
    ids, payloads, nfs = [], [], []
    for i in range(n):
        nf = int(rng.integers(3, 24))
        w, h = int(rng.integers(4, 16)), int(rng.integers(4, 16))
        ids.append(i)
        nfs.append(nf)
        payloads.append(encode_fake_video(i, nf, w, h))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "n_frames": pa.array(nfs, pa.int32()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def _decode_video_impl(payload: bytes):
    """STUB decode for the synthetic video format (a real deployment
    swaps in ffmpeg); raises for unknown containers."""
    if not payload.startswith(_VMAGIC):
        raise NotImplementedError(
            "real video codecs are unavailable in this environment"
        )
    nf, w, h = struct.unpack("<III", payload[8:20])
    frames = np.frombuffer(
        payload[20 : 20 + nf * w * h], dtype=np.uint8
    ).reshape(nf, h * w)
    return nf, w, h, frames


class FrameSample:
    """Temporal sampling stage: keep every ``every``-th frame
    (0-indexed 0, k, 2k, ...) and re-encode -- the standard
    video-to-training-frames reduction.  Exact-integer aggregates pin
    the stage via the hex-walk SQL oracle."""

    def __init__(self, every: int = 4):
        self.k = int(every)
        self.decode = _decode_video_impl

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, nfs, nss, sums, payloads = [], [], [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            nf, w, h, frames = self.decode(payload)
            kept = frames[:: self.k]
            ids.append(mid)
            nfs.append(nf)
            nss.append(kept.shape[0])
            sums.append(int(kept.sum(dtype=np.int64)))
            payloads.append(
                _VMAGIC
                + struct.pack("<III", kept.shape[0], w, h)
                + kept.tobytes()
            )
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "n_frames": pa.array(nfs, pa.int64()),
                "n_sampled": pa.array(nss, pa.int64()),
                "sampled_sum": pa.array(sums, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )


def sample_frames(ds, every: int = 4, batch_size=32):
    """Wire the frame-sampling stage (small batches: payloads are the
    large side)."""
    return _map_stage(ds, lambda: FrameSample(every), batch_size)


MEDIA_CACHE = "/tmp/clpr_media"


def ensure_media_table(n: int = 200, seed: int = 0) -> str:
    """Write the deterministic media table to parquet once (so the
    DuckDB oracle can read the same payload bytes the decode stage
    parses); returns the file path."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(MEDIA_CACHE, exist_ok=True)
    path = os.path.join(MEDIA_CACHE, f"media_{n}_{seed}.parquet")
    if not os.path.exists(path):
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(gen_media_table(n, seed=seed), tmp)
        os.replace(tmp, path)
    return path


def ensure_video_table(n: int = 100, seed: int = 0) -> str:
    """Same deterministic-cache contract for the video table."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(MEDIA_CACHE, exist_ok=True)
    path = os.path.join(MEDIA_CACHE, f"video_{n}_{seed}.parquet")
    if not os.path.exists(path):
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(gen_video_table(n, seed=seed), tmp)
        os.replace(tmp, path)
    return path
