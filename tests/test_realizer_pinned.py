"""Pinned bytes of the ceil(5n/6)-order realizer of the order-n Boolean
lattice.

The digests below were recorded from the construction that built dense
product posets and block isomorphisms; any change to them means the orders,
their labelling or phi changed.
"""

import hashlib

import pytest

import posetdim as pd
from posetdim.formats import serialize_realizer

UPPER_GOLDEN = {
    0: "50d3255f518d1207c5abfca0cc57cc70296c39e28d3f8b4c696a095d35c8b4f1",
    1: "d90bc8befb83c0c2ad2fcf8e5a6b24fbec86d6b20ac9838e646fe107031c909c",
    2: "7613cffff81e41f0a54880cedf05217c56dc80f3799e76eb74d98447ca2b01bc",
    3: "1ddbe5d520d75ea27c53a026dac083684109fa64a75eea0d04ed734c81bc9574",
    4: "c8ce4d106e779f8600156fe1f7ad0d34058fd6c6c95206ad78892e6a9f4d8760",
    5: "ffe8ee1bca868b0ff577a73362d4a15bdde7a8bef928eb795ba1af61520645d3",
    6: "c71ccf9862b29f482cb8ad4afbcec60df7b53408a612c31c29220b805ed1ef89",
    7: "438de32c57ea6fb0b8f398fcd1f0638b4c0e66ddf97c876df27ae9ad19f9e740",
    8: "36d565cb77c200b23615c0b51423f3baa49928b9538a6db75731016bd42551e0",
    9: "5f895333ee15463823c4825b173efa0484c0b787292be17058a735caae588293",
    10: "8cdc56468746fd5f87c742062a7fbce0a1b032b45b387c314ed57ced8b0ea2e9",
    11: "eb27602459a57d4d8cd36f1204ff34c25dceaa208e76d03e988e62daa4729d9c",
    12: "c872772c81ae378539d390131549b7a8b554bcbbb845898d73880156dffba631",
    13: "3e78ce6a1d6e246799a90ac2a236979554546a554aa741c948ef77ed8e476f39",
}


@pytest.mark.parametrize("n", sorted(UPPER_GOLDEN))
def test_upper_bound_realizer_bytes_pinned(n):
    text = serialize_realizer(pd.upper_bound_realizer(n))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == UPPER_GOLDEN[n]
