import json
import struct

import pytest

import tksnn.autodiff as ad

# checkpoint headers that parse as JSON but do not describe a model
HEADER_DEFECTS = {
    "no preset": lambda h: h.pop("preset"),
    "no layer_shapes": lambda h: h.pop("layer_shapes"),
    "unknown lif key": lambda h: h["lif"].update(tau_s=1.0),
    "tau_m below 1": lambda h: h["lif"].update(tau_m=0.5),
    "no epoch": lambda h: h.pop("epoch"),
    "fractional epoch": lambda h: h.update(epoch=1.5),
}


@pytest.fixture
def bad_header_copies(tmp_path):
    """make(ckpt) -> {defect: path of a copy of ckpt with that header defect}."""
    def make(ckpt):
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        out = {}
        for i, (name, edit) in enumerate(HEADER_DEFECTS.items()):
            header = json.loads(raw[12 : 12 + hlen])
            edit(header)
            blob = json.dumps(header, sort_keys=True).encode("utf-8")
            out[name] = tmp_path / f"bad-header-{i}.ckpt"
            out[name].write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])
        return out

    return make


@pytest.fixture
def workers(request, monkeypatch):
    """Cut every split kernel's grid into runs for `request.param` workers, however
    little work it has. This forces the cut, not the pool's thread count."""
    monkeypatch.setattr(ad, "_WORKERS", request.param)
    monkeypatch.setattr(ad, "_MIN_RANGE_WORK", 1)
    return request.param
