"""BLAKE2b-128 content digests (integrity, not security)."""

import hashlib


def digest_hex(data) -> str:
    """Hex BLAKE2b digest of 16 bytes; ``data`` is any bytes-like object."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()
