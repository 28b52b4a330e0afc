"""Independent HMAC-DRBG (SHA-256) reference for checking generator output.

Built on the standard library's ``hmac`` module and nothing from
``drbglab``, so a fault in the package's own HMAC or state machine cannot
cancel out in the comparison. It follows SP 800-90A 10.1.2 and the
prediction-resistance driving loop of ``drbglab.drbg.generate_with_entropy``:
with prediction resistance on, every request first reseeds with the next
``entropy_len`` octets of the stream and the request's additional input,
and the generate itself then runs without additional input.
"""

from __future__ import annotations

import hmac

OUTLEN = 32


def _hmac(key: bytes, message: bytes) -> bytes:
    return hmac.digest(key, message, "sha256")


class ReferenceDrbg:
    def __init__(
        self,
        seed_material: bytes,
        prediction_resistance: bool = False,
        entropy: bytes = b"",
        entropy_len: int = OUTLEN,
    ) -> None:
        self.key = b"\x00" * OUTLEN
        self.v = b"\x01" * OUTLEN
        self._update(seed_material)
        self.prediction_resistance = prediction_resistance
        self.entropy = entropy
        self.entropy_len = entropy_len
        self.used = 0

    def _update(self, data: bytes) -> None:
        self.key = _hmac(self.key, self.v + b"\x00" + data)
        self.v = _hmac(self.key, self.v)
        if data:
            self.key = _hmac(self.key, self.v + b"\x01" + data)
            self.v = _hmac(self.key, self.v)

    def generate(self, out_len: int, additional: bytes = b"") -> bytes:
        if self.prediction_resistance:
            seed = self.entropy[self.used : self.used + self.entropy_len]
            if len(seed) != self.entropy_len:
                raise ValueError("reference entropy stream exhausted")
            self.used += self.entropy_len
            self._update(seed + additional)
            additional = b""
        elif additional:
            self._update(additional)
        blocks = []
        for _ in range(-(-out_len // OUTLEN)):
            self.v = _hmac(self.key, self.v)
            blocks.append(self.v)
        self._update(additional)
        return b"".join(blocks)[:out_len]
