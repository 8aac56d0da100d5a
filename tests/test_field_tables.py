"""Golden digests of every table a Field builds, and its modulus and
generator searches against tests/field_oracle.py, which shares no code with
them.

FIELD_GOLDEN covers every GF(p^m) with p^m <= 3^12 for p in {3, 5, 7}, and
GF(11^2), GF(13^2) and GF(37^2).  Each row is the modulus, the primitive
element, and the sha256 of: the digit, exp and log tables; every
trace(k) table, k | m ascending; dual_map; and every subfield(s) embedding,
s | m ascending.  Each array is hashed with its dtype and shape, so a table
that keeps its values but changes dtype also fails.

NONCANONICAL_GOLDEN pins the subfield embeddings of fields built on other
moduli, as a bundle's space may be: one sha256 per (p, m) over every
subfield(s) embedding, s | m ascending, of the first `count` irreducible
monic moduli in lexicographic order (most significant coefficient first),
which field_oracle.is_irreducible enumerates.  NONCANONICAL_TRACE_GOLDEN
pins, on the same fields, every trace(k) table, k | m ascending, and
dual_map, field by field.
"""
import hashlib
import itertools

import numpy as np
import pytest

import field_oracle
from bentpds.field import Field, _is_irreducible, _reduce, canonical_field, smallest_irreducible
from bentpds.limits import exact_float_dtype

FIELD_GOLDEN = {
    (3, 1): ((0, 1), 2,
             "fa71ee820741263f5b732f80865d2364a9181aa9dfd19902e8dabfe99731d019",
             "129d7c8430eea69d8dc239e7cde4a4574ff8ecb9256150f828ec1d68afb5cddc",
             "129d7c8430eea69d8dc239e7cde4a4574ff8ecb9256150f828ec1d68afb5cddc",
             "129d7c8430eea69d8dc239e7cde4a4574ff8ecb9256150f828ec1d68afb5cddc"),
    (3, 2): ((1, 0, 1), 4,
             "4579e45a5a2c0b41611a062c8bbe73e5fd7979d545138417af1f2b372f4828a0",
             "f8aec03c20edfc093593e69708673621495112cda3e70f57697be241e9dc7956",
             "0d2671f13b1173f8a9414908a63634df8851bff181dcb9e855a8838785e60ab7",
             "a88165b3e92a96c64148d794bd7521fac50f4ce1ceb69a95b5b8f12b122d2e2e"),
    (3, 3): ((1, 2, 0, 1), 3,
             "fdb6bf8428019c534d4313372c08b02eb01789ca5e0c001e055619f842552b8a",
             "6f40366af53e70f864c952ebd88b9dfd289709cf5717a95b586ab58edd19ba43",
             "869fdec8b2449ae9cb80c0b3a36784414f9a2ff84a5a976e3e19b7567046a1ff",
             "0bbe9b5e2e9a067a2657b171ba9bf26bef31a8d9355e42d05d5c9f3053a7afc1"),
    (3, 4): ((2, 1, 0, 0, 1), 3,
             "4350ba01f135706cdc35e56c9b84170a3603b123d4c25d1139daa384fc5de864",
             "8791f5f275ca60343ee2bea8a547270a5a9120b7850eae3b3abadd579c1c1041",
             "2389f6bd4c422a7d2ff68a1f88513efbef2681ebdae8429354907098f69e343b",
             "1317e290361d1833a176461668dbd76f5f044f995b3a1b025a169c0443659e12"),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3,
             "38ff2f3fdc0f6c4ffbc9f773cffa3ceab895dc1a7a284727121a97ef10501704",
             "c8f7943edee8839380588c1811b181243fe883d9ca48f67d13ef9969a6e434c7",
             "e073e669f275f4d80b731ecd35ec789d92f4885825264d04616b76045e0990e2",
             "4b7c5e027dae906584b7f442669418eb8e815877f03a42799a8acc47fd56faa0"),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3,
             "c18e6ccb39510a41219c172db43e6445bfb01960de7a9a544407345bcbe1d79f",
             "17d8ac18283ab5ff5602047c8734e1c5f31c77fe43629a34cd6ade4d1e4583ef",
             "5322ef4597b24a2c8fa614421cf1d0e283f353e7786b5c5e85af5f40c1497958",
             "b8b6f9a0eaeecd5e12504fada31fe660628d48f23179847cdb1951659dd09673"),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5,
             "ace80bcd5239e9b996aa6acae987ae10ecf220884e5f75a6c5163c344c6a2a0d",
             "bc7ae8ef73a6ecbfce2a6157dc7d1a427447d19c54431d0326725669b61b7f2f",
             "6fd701f5696cd19c0d916be2b9475234768fed26ed899bf3dd51bcec8a4b17fc",
             "462d98173508fdc90af2f73bd8f6c7e3934803a580e60b75cda793eb6cba84f1"),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38,
             "9a7942321928eb978ceadfec6cfecaacc9f3d77c967db597204383bfa06dbc56",
             "6734845968ae88b3032d7ba8f99f434aeb985cb922459905205203e74535ed01",
             "87d31c55e76d0bb489477e06c59f3ec83932e663c924be5e07a4cd9c8c161e3e",
             "cd1e9b855ee074a15f0e706966542c799bf67b279856028eb977860c183305b6"),
    (3, 9): ((1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3,
             "17259a52206e7818e9dee405fc848b3f298acaee36679d3678ff84bb708d41aa",
             "c350b7965fae465e2854dbe8066d9aae58a7de9fb4938ab05bab70f6f0939548",
             "39e4980447179e239730a6475667f1f58ececbdf613d9ec98515f0fb2a591058",
             "cfd3c5f06cbe48e0455571f933cae6fe8f4744a5e22455ce991c65c218ca6003"),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34,
             "16ce89c98f26ecbc9ea2182006a86c2852367a9d593b013b487746b6f1c94270",
             "46962fe64b61762da41c3e6592bf25fa729001fe6cd5d428526b91cb956d6533",
             "e3ac6e9376c892fb8e97b9e982f0ce6e2e60537d65340ab8e40859eeb44d4d6f",
             "1954d1fc274e39082ef721ddb63d949cdac2a7fc67372cd8089a17c00dcdca37"),
    (3, 11): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 5,
             "4ebb6599f9ee61cb59e947362b5e5e8a4d9a8324cda1e5b9d9fa0e921ba9e8df",
             "485592c5514bcd9ad6f6d080f18d199169f8aec28f6abf71cfc9db87d7964fd0",
             "51bf46865e69fe7a2bbc1d12e3deed88636d341b868ecbe9abf5b1b953dc612a",
             "3ed8f2ce24c7e28d97e3d90741804b164fd8df9c92d5ab02a3bc696c1f6ee9ab"),
    (3, 12): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 14,
             "2e0fd6c30511fcd95fb8eec3c69630918098c47da9e9bd35745e32aaf02b52e6",
             "9da8cc4b2f1f250d78493ebc4351b642298fe8e50262567ae53a18275051f0b1",
             "d21dd68a5f5d4dd08eb0b5b079b4a42ab3c949599bf4e33fcbff6cfb6355c7cc",
             "eb912a85c1b66d97dc7760c2333fc2f65bb8529654b5f2f3ce5f37f1dc2a83b1"),
    (5, 1): ((0, 1), 2,
             "3352e34c1e45599f5bda6978231984a1652a8bf64048f2151381bae72b20e21c",
             "63ec22778bda15ddb579a5be6908ff23319631ddb974a158b5d109cc662d4052",
             "63ec22778bda15ddb579a5be6908ff23319631ddb974a158b5d109cc662d4052",
             "63ec22778bda15ddb579a5be6908ff23319631ddb974a158b5d109cc662d4052"),
    (5, 2): ((2, 0, 1), 6,
             "30b0954bff6b0d0a0f067599852dd4d283fb7ca3305c37f233df9f856868ba01",
             "0067c9c311049d3b38900c0d604ae01c0fe0e144b1d60564777aa148342fd9cc",
             "b08135f8d5af54012edcb2f86f63b9f82769fe9c69141a085c29de1007ab15f1",
             "3b303844fe426d6dbbf0a3d210a11b6bdd3e83bf4a8b3698e4ce3c1765db7628"),
    (5, 3): ((1, 1, 0, 1), 9,
             "1e9bad61b2d967612ef67eb8eea483b5c5686d3ada6c63c9f0287b84a3d7f774",
             "a4588527ac9d05d21631cd9ba3d5ca80145867742af99ff5ea50db88df3b1b7e",
             "916f5b366142c8f5a8a572c5b5062ecd3d3b4bf955da16a3875bc1d8eaf6dc85",
             "aa486cc589e803b3df164779745b38536adb6296836c6a8d0882ce535d31731d"),
    (5, 4): ((2, 0, 0, 0, 1), 6,
             "0411c546e9f6c7285a9e6e67ddb9291d4883da73c39933d5223dd7ecb1f01dce",
             "0df85a4d26c63d41b47b6fbb0df471ecaa615d0b1693459d4c3f215d16adba1f",
             "4afd35d9ad4c1b6bc28124eb5a4fdee47dc5a6acdc8835de7c0b3c4e0b1ec1ee",
             "22729cd9cb79e518d65e7cee503681f0e134feffe2ee3a29f20e0210451244b2"),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10,
             "503b4db7c491f5b240c19a20c54688a402d50a8180070a9d58fbbc7a933b50ee",
             "54f0d49c3153267a830cc81504b1f2869fea9be6eb4bfeda15d920062949051d",
             "59aeebeab03253e2ac9edaf1e813894c47ec5be28ae8f93a5e4ce2382e609143",
             "2f301da75efb34dcb4c4b7b31d3eb6b124d586665b0c891cde832158af8866ea"),
    (5, 6): ((2, 1, 0, 0, 0, 0, 1), 5,
             "787386a9b03c6c2835a3573ea2f25c0a3d999f888a22e7bfb9f3169390eb8394",
             "1f576a22d72cef4f1c31779f961a8952bf9abd8608e78cfdae798ed0944559f2",
             "016cbaa3548290cbd589b11a24cd47131d21c568cd3ca4b72044809a076b19cf",
             "27649c0744f8f64214f7d1ce2463177d7143588f3d786393908fc170df380fe2"),
    (5, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 9,
             "3bd006af11a89222b4fb92e8a3bfc3a428e44d716aa616fa931e643cd6a4f6ec",
             "13810cdd25550428b497ba30e813c774f2fadb37cf0e69f1d3b3cc3f85a0a652",
             "7d77e5ea4d82cf358164e14eef041e521cfb8acc4afaf3d0005576ef8ee582ab",
             "c0d2f48ce4dd13f9018d324f24b42cd6a7983449b1b0bc4a7f534ce99d59dbde"),
    (5, 8): ((2, 0, 0, 0, 0, 0, 0, 0, 1), 6,
             "d032151bc908fe0ec462f71be8db6feddce44f9ca964da87b9ff320deae448cc",
             "fac15ed260ab29ecb1628144f4ec3793b99dc71c77f1cc95851d10137697729a",
             "ad6bed8e926a0c585b3f5a85a7a1811d794c530b7170a5e91025e9a1ee6194bd",
             "e4618e07b3efcd95c4c42bce04655562a05d1ca1583b7ec2d42569d06328d3f2"),
    (7, 1): ((0, 1), 3,
             "47d13e6180f08f69e25c109ea79455eba6361e0aeced77cdded061710b17657e",
             "10dd864ce546b1d3218de56bebb9b7c0af297292f37d93f5bdb0e5c6a1b2d710",
             "10dd864ce546b1d3218de56bebb9b7c0af297292f37d93f5bdb0e5c6a1b2d710",
             "10dd864ce546b1d3218de56bebb9b7c0af297292f37d93f5bdb0e5c6a1b2d710"),
    (7, 2): ((1, 0, 1), 9,
             "291e90e67d4f42021c30c895551acfc0c7b97df38dd39d22c342b6ef0ef76174",
             "e8590c0cd19b6b5a18749a53066c62fa8b0679c76468de3f2b5f34fc604dc7e7",
             "c014f5f5b2e3fade8b2355e89fbdec66f633eb36359a61b68155bc1c5e977745",
             "c419648557122973ac8db5e2c68d8a048e9a4ca3e20beaaaa2e0481a7120bdb1"),
    (7, 3): ((2, 0, 0, 1), 22,
             "80a49d912ea60c8bbb7dad713c52f544cc741b7ecb7ced0cbf296712885db950",
             "ca55787beea4f7cca19ff5a6ffbc11b38c6cb9bb48cd8f72c1e6540c2fe995de",
             "538c0165be16e306285a39d75ed510379bcdfe383284cd3b46ca4789b519470d",
             "4b4971dab250e45e9015a5cc9c80d9dd04de072d7968094e5b66af974215f31a"),
    (7, 4): ((1, 1, 0, 0, 1), 12,
             "875613ffc4295468cac23530f2189ca1d309d61fd3d7391f82657fdf1ba721d3",
             "e6332adef3125a3d3164c7bdd8901ba5919117ddbee39751231a1b4493ce39f5",
             "316b1027d7f9251a3e2ba5fbe355265d03a9fe7406b4e3f5822903e28c438a8d",
             "24880b279da6807c5b3f339ca5f7d8b2bb1389ea5e28329264b7a605b4a30826"),
    (7, 5): ((3, 1, 0, 0, 0, 1), 9,
             "08a475d6b61f2c08ed6a9d03f2d1ddd11149ff985cbaf1356fb3c0bb4ff565ce",
             "45cac88716607cc122923f22c856d8629124e5aad43479a8d3f8ec86b542c555",
             "0a658846a9093ce1313806596ae34f8e5bcc52d63f41e789a34755b33b412932",
             "84e462b01727c4f4ace4385bd398f2494433a4fd18b77cfdfd94010ed707b90c"),
    (7, 6): ((2, 0, 0, 0, 0, 0, 1), 8,
             "336d79219f0baf2453588e41a7a35d680bc54ba71b92bc459c630e473c84d769",
             "4ec5ed2491bf0f3976c68ab146e4f3edd41bbc6df65f3c269d1f192acd632d1b",
             "3f56a19a9e27ed54a6828b61d96ebd473070659287553356404b0f612d6cc361",
             "b9ba62c196da605453c84a650c9498214b13d47b2c39eeac93d742126cb5df6f"),
    (11, 2): ((1, 0, 1), 15,
             "9f9a7eda52de897139ee0aca93089b67d177843618124d1e7ce13a7ebc840317",
             "b49789b13a9e5a33eb5f210db6c9529ad38a5a1b1ae953e16f9edfb39531e6fb",
             "8c0f3fa12a6e06807d393a7924dd95718f09a904197bd9b3d2674b45578af741",
             "58cd924341c284af4e2385e3612b8eee24765a0356648cb1c25b191033a0e277"),
    (13, 2): ((2, 0, 1), 15,
             "f644b9c113e146da80a3ae8b55163ec6f40cdd060d1893e7931b309249db6cab",
             "04d7dbee42002c9ef1c76d7357c9d5777ef3a8b76c7a6117dcaa3b1dd233c452",
             "90ce387b3830290de42dbaf0f54f1f8ec1a576610b35410e78db725a4f5ead34",
             "cff4df72dc707802a03e05d52d672e37a26aad7b11b504f462438db65a0c6b40"),
    (37, 2): ((2, 0, 1), 41,
             "62e7a7ba5700d02ddbab3738c62066975ed432a4b0cbc5c800c818e21609c9e6",
             "f0bc74261787c745a32e44a0dfe2f8be25d0d909c21e33dd500fcf02926f1fff",
             "bdce2ff054650daa46dc0e74eef8628b0a7639b109b9300312df00f46df6e913",
             "995e8ad6898103e8bca65ffd0c46b72e4ca56583433742e6007b08be2ffb7e01"),
}

# (p, m): (count, digest); GF(3^4), GF(5^2) and GF(7^2) take every modulus
NONCANONICAL_GOLDEN = {
    (3, 4): (18, "67f1d72cbb845b2f21e3f69ac9402e6d21ab569e757468c6c4067005adb0d9fa"),
    (5, 2): (10, "97767aab490bdab38dcde5eae557658df67f7426a147bcebe925285e0cdbdac6"),
    (7, 2): (21, "e85389b9bc30bbf591d604c6bf263e51d82f71a9e89c5d4651fd17f86f2e4dc8"),
    (3, 6): (4, "18277719dd832b7930a452d101503c5d26cc1221698233e7fe6f249f6196ec6a"),
    (5, 4): (4, "fce6f228694cf6d9924b94018add30baf8e55ac3d0f37924a4462082d70baa3a"),
    (3, 8): (4, "c983a8c85145a2c9d53ac40dbd828a13b6ec0de4fcc5d061d3b906d0930d685f"),
}

# (p, m): digest of the trace tables and dual maps of NONCANONICAL_GOLDEN's fields
NONCANONICAL_TRACE_GOLDEN = {
    (3, 4): "69a3c4e1300eb55fb785019800b329eba0b6c69f3cd02c88d96c86462d6e530f",
    (5, 2): "798cf4db2e3225c6042bd2f23ebe8da648389d424c240a779d32e239f710dba3",
    (7, 2): "e7a9819fba12088cfdcd811fedda0a61d376f6c580a7f8bf4c258e667d1a83a6",
    (3, 6): "c7ab3e1445607c5c06279795dbed468de32113652936aa040687a7db277b46d0",
    (5, 4): "475ce040033b4da916466f08baeace86fda86cbe23e3db08b25830e8c9e2d72d",
    (3, 8): "f9c7a15686f57dfc48a23456fd927af94071e1e4c4d66be62fe9cfa0fcff5cc8",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("p,m", FIELD_GOLDEN, ids=[f"{p}^{m}" for p, m in FIELD_GOLDEN])
def test_field_tables_match_golden_digests(p, m):
    field = canonical_field(p, m)
    divisors = [k for k in range(1, m + 1) if m % k == 0]
    got = (
        field.modulus,
        field.primitive_element,
        _digest(field._digits, field._exp, field._log),
        _digest(*(field.trace(k, np.arange(field.size)) for k in divisors)),
        _digest(field.dual_map),
        _digest(*(field.subfield(s)[1] for s in divisors)),
    )
    assert got == FIELD_GOLDEN[p, m]


def _noncanonical_fields(p, m):
    """NONCANONICAL_GOLDEN's fields of order p^m, on their first moduli."""
    count = NONCANONICAL_GOLDEN[p, m][0]
    moduli = (tuple(reversed(msd)) + (1,) for msd in itertools.product(range(p), repeat=m))
    fields = [Field(p, m, f) for f in itertools.islice(
        (f for f in moduli if field_oracle.is_irreducible(f, p)), count)]
    assert len(fields) == count
    return fields


@pytest.mark.parametrize("p,m", NONCANONICAL_GOLDEN,
                         ids=[f"{p}^{m}" for p, m in NONCANONICAL_GOLDEN])
def test_noncanonical_subfield_embeddings_match_golden_digests(p, m):
    divisors = [s for s in range(1, m + 1) if m % s == 0]
    assert _digest(*(field.subfield(s)[1] for field in _noncanonical_fields(p, m)
                     for s in divisors)) == NONCANONICAL_GOLDEN[p, m][1]


@pytest.mark.parametrize("p,m", NONCANONICAL_TRACE_GOLDEN,
                         ids=[f"{p}^{m}" for p, m in NONCANONICAL_TRACE_GOLDEN])
def test_noncanonical_trace_tables_match_golden_digests(p, m):
    divisors = [k for k in range(1, m + 1) if m % k == 0]
    assert _digest(*(table for field in _noncanonical_fields(p, m) for table in
                     [field.trace(k, np.arange(field.size)) for k in divisors]
                     + [field.dual_map])) == NONCANONICAL_TRACE_GOLDEN[p, m]


@pytest.mark.parametrize("p,m", FIELD_GOLDEN, ids=[f"{p}^{m}" for p, m in FIELD_GOLDEN])
def test_modulus_and_generator_match_the_oracle(p, m):
    field = canonical_field(p, m)
    assert smallest_irreducible(p, m) == field_oracle.smallest_irreducible(p, m) == field.modulus
    assert field_oracle.least_primitive(p, field.modulus) == field.primitive_element


@pytest.mark.parametrize("p", [3, 5])
def test_rabin_test_matches_trial_division(p):
    # every monic polynomial of degree 1 to 4 over GF(p)
    for m in range(1, 5):
        for tail in itertools.product(range(p), repeat=m):
            coeffs = tail + (1,)
            assert _is_irreducible(coeffs, p) == field_oracle.is_irreducible(coeffs, p), coeffs


@pytest.mark.parametrize("p", [3, 5, 7, 37, 2039, 4194301])
def test_reduce_is_exact_up_to_its_bound(p):
    # every float32 integer below 2^22, and float64 ones just below 2^51
    assert exact_float_dtype(4 * (2 ** 22 - 1)) == np.float32
    assert exact_float_dtype(4 * (2 ** 51 - 1)) == np.float64
    for dtype, top in ((np.float32, 2 ** 22), (np.float64, 2 ** 51)):
        v = np.arange(top - 2 ** 22, top, dtype=np.int64)
        got = v.astype(dtype)
        _reduce(got, p, np.empty_like(got))
        assert np.array_equal(got, v % p), dtype
