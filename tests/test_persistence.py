import json

import numpy as np
import pytest

from romkit.certify import certificate
from romkit.errors import ArchiveError
from romkit.hashing import digest_hex
from romkit.persistence import (MAGIC, load_model, read_payload, save_model,
                                write_payload)
from romkit.reduced import rb_solve


def test_payload_round_trip(tmp_path, rng):
    array = rng.standard_normal((5, 3))
    checksum = write_payload(tmp_path / "a.rbm", array)
    back = read_payload(tmp_path / "a.rbm", checksum)
    np.testing.assert_array_equal(back, array)


def test_payload_layout_is_fixed(tmp_path):
    write_payload(tmp_path / "a.rbm", np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = (tmp_path / "a.rbm").read_bytes()
    assert blob[:4] == MAGIC == b"RBM1"
    assert int.from_bytes(blob[4:12], "little") == 2
    assert int.from_bytes(blob[12:20], "little") == 2
    np.testing.assert_array_equal(
        np.frombuffer(blob[20:], dtype="<f8"), [1.0, 2.0, 3.0, 4.0])


def test_payload_vector_becomes_column(tmp_path):
    write_payload(tmp_path / "v.rbm", np.arange(4.0))
    assert read_payload(tmp_path / "v.rbm").shape == (4, 1)


def test_read_payload_error_paths(tmp_path):
    with pytest.raises(ArchiveError, match="missing payload"):
        read_payload(tmp_path / "absent.rbm")

    checksum = write_payload(tmp_path / "a.rbm", np.ones((2, 2)))
    blob = bytearray((tmp_path / "a.rbm").read_bytes())
    blob[-1] ^= 0xFF
    (tmp_path / "a.rbm").write_bytes(bytes(blob))
    with pytest.raises(ArchiveError, match="checksum"):
        read_payload(tmp_path / "a.rbm", checksum)

    write_payload(tmp_path / "b.rbm", np.ones((2, 2)))
    (tmp_path / "b.rbm").write_bytes(
        (tmp_path / "b.rbm").read_bytes()[:-8])
    with pytest.raises(ArchiveError, match="truncated"):
        read_payload(tmp_path / "b.rbm")

    (tmp_path / "c.rbm").write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ArchiveError, match="RBM1"):
        read_payload(tmp_path / "c.rbm")


def test_archive_round_trip_is_exact(tmp_path, b2_pod_basis, b2_rom):
    model, data = b2_rom
    save_model(tmp_path / "arch", model, data, b2_pod_basis)
    loaded = load_model(tmp_path / "arch")

    for A_new, A_old in zip(loaded.model.A_rb_q, model.A_rb_q):
        np.testing.assert_array_equal(A_new, A_old)
    for f_new, f_old in zip(loaded.model.f_rb_q, model.f_rb_q):
        np.testing.assert_array_equal(f_new, f_old)
    np.testing.assert_array_equal(loaded.data.G_ff, data.G_ff)
    np.testing.assert_array_equal(loaded.data.G_fa, data.G_fa)
    np.testing.assert_array_equal(loaded.data.G_aa, data.G_aa)
    np.testing.assert_array_equal(loaded.basis_vectors, b2_pod_basis.vectors)
    assert loaded.model.basis_fingerprints == model.basis_fingerprints

    mu = [0.4, 1.2, 2.5, 6.0]
    assert rb_solve(loaded.model, mu).s_rb == rb_solve(model, mu).s_rb
    assert (certificate(loaded.model, loaded.data, mu).eta_en
            == certificate(model, data, mu).eta_en)


def test_resave_is_byte_identical(tmp_path, b2_pod_basis, b2_rom):
    model, data = b2_rom
    save_model(tmp_path / "one", model, data, b2_pod_basis)
    save_model(tmp_path / "two", model, data, b2_pod_basis)
    for child in sorted((tmp_path / "one").iterdir()):
        assert child.read_bytes() == (tmp_path / "two" / child.name).read_bytes()


def test_online_only_never_touches_basis(tmp_path, b2_pod_basis, b2_rom):
    model, data = b2_rom
    save_model(tmp_path / "arch", model, data, b2_pod_basis)
    loaded = load_model(tmp_path / "arch", online_only=True)
    assert loaded.basis_vectors is None
    assert "basis" not in loaded.accessed_payloads
    with pytest.raises(ArchiveError, match="basis"):
        loaded.reduced_basis()
    # the online artifacts are all there
    rb_solve(loaded.model, [1.0, 1.0, 1.0, 1.0])
    certificate(loaded.model, loaded.data, [1.0, 1.0, 1.0, 1.0])


def test_load_rejects_wrong_version(tmp_path, b2_pod_basis, b2_rom):
    model, data = b2_rom
    path = save_model(tmp_path / "arch", model, data, b2_pod_basis)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format_version"] = "99"
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArchiveError, match="format version"):
        load_model(path)


def test_load_refuses_v1_archive(tmp_path, b2_pod_basis, b2_rom):
    """A format-1 manifest (FNV-1a checksums) must be rebuilt, not read."""
    model, data = b2_rom
    path = save_model(tmp_path / "arch", model, data, b2_pod_basis)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format_version"] = "1"
    for meta in manifest["payloads"].values():
        meta["fnv1a64"] = "0" * 16
        del meta["blake2b"]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArchiveError, match="romkit offline"):
        load_model(path, online_only=True)


def test_digest_known_answers():
    assert digest_hex(b"") == "cae66941d9efbd404e4d88758ea67670"
    header = MAGIC + (2).to_bytes(8, "little") + (3).to_bytes(8, "little")
    assert digest_hex(header) == "3340ffbccfecce208ddd6fb15723bfdb"


def test_load_rejects_tampered_payload(tmp_path, b2_pod_basis, b2_rom):
    model, data = b2_rom
    path = save_model(tmp_path / "arch", model, data, b2_pod_basis)
    target = path / "G_ff.rbm"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0x01
    target.write_bytes(bytes(blob))
    with pytest.raises(ArchiveError, match="checksum"):
        load_model(path)


def test_load_requires_manifest(tmp_path):
    with pytest.raises(ArchiveError, match="manifest.json"):
        load_model(tmp_path)
