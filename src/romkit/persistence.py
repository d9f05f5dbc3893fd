"""Model archives: a manifest plus bit-exact binary payloads.

Payload format ("RBM1"): magic bytes ``52 42 4D 31``, unsigned 64-bit
little-endian row count, unsigned 64-bit little-endian column count, then
rows*cols IEEE-754 binary64 little-endian values in row-major order. The
manifest (format 2) records shapes and BLAKE2b-128 checksums per payload,
verified on every load; integrity, not security. Format-1 archives are
refused: rebuild them with ``romkit offline``.

The online phase loads only reduced-size payloads; the basis payload is
never opened unless explicitly requested, which makes the claim that the
online cost is independent of the truth dimension structural rather than
merely observed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .certify import ResidualData
from .errors import ArchiveError
from .hashing import digest_hex
from .pod import ReducedBasis
from .problem import ParameterDomain
from .reduced import ReducedModel
from .thetas import parse_theta

MAGIC = b"RBM1"
FORMAT_VERSION = "2"
MANIFEST_NAME = "manifest.json"


def write_payload(path, array) -> str:
    """Write a 1-D or 2-D array as an RBM1 payload; returns its checksum."""
    array = np.asarray(array, dtype="<f8")
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2:
        raise ArchiveError(f"payloads are 2-D, got shape {array.shape}")
    rows, cols = array.shape
    blob = (MAGIC
            + rows.to_bytes(8, "little")
            + cols.to_bytes(8, "little")
            + np.ascontiguousarray(array).tobytes())
    Path(path).write_bytes(blob)
    return digest_hex(blob)


def read_payload(path, expected_checksum=None) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise ArchiveError(f"missing payload {path}")
    blob = path.read_bytes()
    if expected_checksum is not None and digest_hex(blob) != expected_checksum:
        raise ArchiveError(f"checksum mismatch in payload {path.name}")
    if len(blob) < 20 or blob[:4] != MAGIC:
        raise ArchiveError(f"payload {path.name} is not in RBM1 format")
    rows = int.from_bytes(blob[4:12], "little")
    cols = int.from_bytes(blob[12:20], "little")
    expected = 20 + rows * cols * 8
    if len(blob) != expected:
        raise ArchiveError(
            f"payload {path.name} is truncated: {len(blob)} bytes, "
            f"expected {expected}"
        )
    return np.frombuffer(blob[20:], dtype="<f8").reshape(rows, cols).copy()


@dataclass
class LoadedModel:
    model: ReducedModel
    data: ResidualData
    basis_vectors: np.ndarray | None
    manifest: dict
    accessed_payloads: list = field(default_factory=list)

    def reduced_basis(self, problem=None) -> ReducedBasis:
        if self.basis_vectors is None:
            raise ArchiveError("archive was loaded without the basis payload")
        return ReducedBasis(vectors=self.basis_vectors,
                            provenance=self.manifest.get("provenance", {}),
                            problem=problem)


def save_model(directory, model: ReducedModel, data: ResidualData,
               basis: ReducedBasis) -> Path:
    """Persist the offline products into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    Q_a, Q_f, N = model.Q_a, model.Q_f, model.N

    payload_arrays = {"basis": basis.vectors, "G_ff": data.G_ff,
                      "G_fa": data.G_fa.reshape(Q_f, Q_a * N),
                      "G_aa": data.G_aa.reshape(Q_a * N, Q_a * N)}
    for q in range(Q_a):
        payload_arrays[f"A_rb_{q}"] = model.A_rb_q[q]
    for q in range(Q_f):
        payload_arrays[f"f_rb_{q}"] = model.f_rb_q[q]

    payloads = {}
    for name, array in payload_arrays.items():
        array = np.atleast_2d(np.asarray(array, dtype=float))
        if name.startswith("f_rb_"):
            array = array.reshape(-1, 1)
        checksum = write_payload(directory / f"{name}.rbm", array)
        payloads[name] = {"file": f"{name}.rbm", "rows": array.shape[0],
                          "cols": array.shape[1], "blake2b": checksum}

    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "romkit-model",
        "p": model.p,
        "Q_a": Q_a,
        "Q_f": Q_f,
        "N": N,
        "n_free": int(basis.vectors.shape[1]),
        "domain": [[lo, hi, scale] for (lo, hi), scale
                   in zip(model.domain.intervals, model.domain.scales)],
        "mu_bar": [float(v) for v in model.mu_bar],
        "theta_a": [t.text for t in model.theta_a],
        "theta_f": [t.text for t in model.theta_f],
        "parametrically_coercive": bool(model.parametrically_coercive),
        "problem_fingerprint": model.problem_fingerprint,
        "basis_fingerprints": list(model.basis_fingerprints),
        "provenance": model.provenance,
        "payloads": payloads,
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return directory


def load_model(directory, online_only: bool = False) -> LoadedModel:
    """Reload an archive; ``online_only`` skips the basis payload entirely."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise ArchiveError(f"missing {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"unsupported archive format version {version!r}, "
            f"expected {FORMAT_VERSION!r}; rebuild the archive with "
            f"'romkit offline'"
        )

    accessed = []

    def fetch(name):
        meta = manifest["payloads"][name]
        accessed.append(name)
        array = read_payload(directory / meta["file"], meta["blake2b"])
        if array.shape != (meta["rows"], meta["cols"]):
            raise ArchiveError(
                f"payload {meta['file']} has shape {array.shape}, manifest "
                f"says {(meta['rows'], meta['cols'])}"
            )
        return array

    p = manifest["p"]
    Q_a, Q_f, N = manifest["Q_a"], manifest["Q_f"], manifest["N"]
    domain = ParameterDomain(
        intervals=tuple((lo, hi) for lo, hi, _ in manifest["domain"]),
        scales=tuple(scale for _, _, scale in manifest["domain"]),
    )
    model = ReducedModel(
        A_rb_q=[fetch(f"A_rb_{q}") for q in range(Q_a)],
        f_rb_q=[fetch(f"f_rb_{q}").ravel() for q in range(Q_f)],
        theta_a=[parse_theta(text, p) for text in manifest["theta_a"]],
        theta_f=[parse_theta(text, p) for text in manifest["theta_f"]],
        domain=domain,
        mu_bar=np.asarray(manifest["mu_bar"], dtype=float),
        parametrically_coercive=manifest["parametrically_coercive"],
        problem_fingerprint=manifest["problem_fingerprint"],
        basis_fingerprints=list(manifest["basis_fingerprints"]),
        provenance=manifest["provenance"],
    )
    data = ResidualData(
        G_ff=fetch("G_ff"),
        G_fa=fetch("G_fa").reshape(Q_f, Q_a, N),
        G_aa=fetch("G_aa").reshape(Q_a, N, Q_a, N),
        problem_fingerprint=manifest["problem_fingerprint"],
        basis_fingerprints=list(manifest["basis_fingerprints"]),
    )
    basis_vectors = None if online_only else fetch("basis")
    return LoadedModel(model=model, data=data, basis_vectors=basis_vectors,
                       manifest=manifest, accessed_payloads=accessed)
