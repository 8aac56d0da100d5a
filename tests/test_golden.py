"""Golden digests of CLI stdout.

Each GOLDEN row is a `construct` invocation, the sha256 of its stdout, and the
sha256 of `certify` run on that bundle (None only for the 3^12 bundle, whose
certification takes seconds).  The digests pin the byte-exact output: table
order, JSON layout, and the plain-int types of `sigma`, `epsilons` and
`params`.  The p = 5 and p = 7 rows include odd n with mixed component signs
and codomains GF(p^s) with s > 1.

ERROR_GOLDEN pins the error records of rejected `construct` inputs, and
PARSER_GOLDEN those of arguments that the parser or a handler rejects before
any library call.
SPECTRAL_GOLDEN and PDS_GOLDEN pin `walsh`, `classify` and `pds-verify` the
same way, on construct bundles and on an even non-bent function.
EMPTY_GOLDEN pins `pds-extract` and `pds-verify` on empty preimages.
COSET_GOLDEN pins them on coset, square and non-square preimages with s >= 2,
and GAUSSIAN_GOLDEN pins `gaussian-period` over every nonzero a of a field.
"""
import hashlib
import json

import numpy as np
import pytest

from bentpds.cli import main
from bentpds.field import canonical_field
from bentpds.space import prime_space
from bentpds.spectral import VectorialFunction

GOLDEN = [
    ("mm-power", "--p 3 --m 1 --s 1 --a 1 --e 1", "678d344a8be2201cf7d7836ede376586470189bbbc8c3ec288dfcdae8faa9a08",
     "527d1be395ced8c11e8e4c0999de644409ad1161dc5c242fa00d5c6094515c1f"),
    ("mm-power", "--p 3 --m 2 --s 2 --a 1 --e 3", "2438c23cd1c4031d793b2abb9d6ac2dac95496d64dec0acb53cd135f4252cfc7",
     "0ab2700f385dd884ae2ce49e453977bc8ce03460c30ebde32aa74a2aa9033e8a"),
    ("mm-power", "--p 3 --m 4 --s 2 --a 1 --e 7", "890a57889c046f374309e060d9fa70a5af4083247d6030f36c2f1aafa316ce4e",
     "0af0664ae6a67283b16f3ce0e44670ac5b786cbe0b90a6acabb18d0a2aad7b8e"),
    ("mm-qpoly", "--p 3 --m 2 --s 1 --a 1 --coeffs 0,1", "733009c5e5a1c45aa03bffc537092efb6c4249a382db22c817cf42071a62e11f",
     "527d1be395ced8c11e8e4c0999de644409ad1161dc5c242fa00d5c6094515c1f"),
    ("mm-qpoly", "--p 3 --m 2 --s 2 --a 1 --coeffs 1", "50985cca3d46dfc067b57e9c7aceb136d651b9351097614ec10867cd5609168a",
     "6a22c84abdb9d81dd83e2cffa36a77ece249ba7ea72f9510d214af6fc5cbde21"),
    ("mm-qpoly", "--p 3 --m 4 --s 2 --a 1 --coeffs 0,1", "fbde50e1c0657463b414fdd589bb689c096774c7b43b37921f23141b9924307d",
     "6a22c84abdb9d81dd83e2cffa36a77ece249ba7ea72f9510d214af6fc5cbde21"),
    ("quad-trace", "--p 3 --n 2 --s 1 --a 1", "5daae1f17971890a60bfc0e988c12f38831c592d5b6c189ff9b30d3eaf5d0010",
     "527d1be395ced8c11e8e4c0999de644409ad1161dc5c242fa00d5c6094515c1f"),
    ("quad-trace", "--p 3 --n 2 --s 1 --a 4", "b357c9cd9cb9ae989f93be251b484324437ae1ea96f8b118cbaa5265d8f6c9a0",
     "ab607264fd220ed35f32d5aa96e798a147e91b0ed3982220b6db3d72904ddcd5"),
    ("quad-trace", "--p 3 --n 4 --s 2 --a 1", "8c8ca0a1ec1e18642918459b38849684dd623d6bbf9dc388bf200558f001dd76",
     "a966b9e1a87fb094049d721c49bf5bad731e8e42cab63cd0bf76e2c9815bef54"),
    ("quad-trace", "--p 3 --n 8 --s 4 --a 1", "ad317aca526dfeef14950240e1ade8108743dc6f1d5696689ff95f684781d8eb",
     "e2091311d82951694eaaa478da06eaf957bbe20a6e1fb3d43d4ebb5f54596dd9"),
    ("diag-quad", "--p 3 --s 1 --m 2 --coeffs 1,1", "0dec5a9265a10eacc7c96eeda9862d54e4896a7b0b0cc309c9a2b0e4ebcde838",
     "ab607264fd220ed35f32d5aa96e798a147e91b0ed3982220b6db3d72904ddcd5"),
    ("diag-quad", "--p 3 --s 2 --m 2 --coeffs 1,4", "39c5956057c5b57da89e8e52e1873d3f91f8d16d27f1766233565f558bbb8961",
     "a966b9e1a87fb094049d721c49bf5bad731e8e42cab63cd0bf76e2c9815bef54"),
    ("diag-quad", "--p 3 --s 1 --m 4 --coeffs 1,2,1,1", "25d3c48244809f58737eb860140ac2bf2a365b696ae50577f3c94f3d6adcd458",
     "ab607264fd220ed35f32d5aa96e798a147e91b0ed3982220b6db3d72904ddcd5"),
    ("diag-quad", "--p 3 --s 2 --m 4 --coeffs 1,1,1,1", "3d1663e1378fccd5e7d71a538b3448646fe9244e698d396589a5807bda94ddc8",
     "6a22c84abdb9d81dd83e2cffa36a77ece249ba7ea72f9510d214af6fc5cbde21"),
    ("spread", "--p 3 --m 1 --s 1", "331cb719258e3021f4b2639e53cd4e002f6d31cdc9268c4b6e89ee5a9e7ddd75",
     "527d1be395ced8c11e8e4c0999de644409ad1161dc5c242fa00d5c6094515c1f"),
    ("spread", "--p 3 --m 2 --s 2", "0eaedc11ff0c6edf2466ded5251014c2e51a7487203a5ba04c368b5433cb61a7",
     "0af0664ae6a67283b16f3ce0e44670ac5b786cbe0b90a6acabb18d0a2aad7b8e"),
    ("spread", "--p 3 --m 4 --s 2", "009be085b5b6a639d55c5379244ba46abe166900c13904496030c49fdd1edb6c",
     "0af0664ae6a67283b16f3ce0e44670ac5b786cbe0b90a6acabb18d0a2aad7b8e"),
    ("branched-quad-mm", "--p 3 --n 2 --m 1 --s 1", "9daeddb445a60d724f4e08ccbe5b531d18e0e69e9ce52ee3fd866e05be93716c",
     "527d1be395ced8c11e8e4c0999de644409ad1161dc5c242fa00d5c6094515c1f"),
    ("branched-quad-mm", "--p 3 --n 2 --m 2 --s 1 --alpha2 2 --alpha3 2 --gamma 4", "e9c03b20408bf42720050795baa9d550bf53b9e764ffaac1bb3fc2e029bd8701",
     "527d1be395ced8c11e8e4c0999de644409ad1161dc5c242fa00d5c6094515c1f"),
    ("branched-quad-mm", "--p 3 --n 4 --m 2 --s 2", "dbad44c91f053208676fee155353469cdc017c2a4c9d9c74f8452e61f04f1765",
     "a966b9e1a87fb094049d721c49bf5bad731e8e42cab63cd0bf76e2c9815bef54"),
    ("quad-trace", "--p 5 --n 6 --s 1", "7455413881404bb812d4c1efa6f259199faeb8a24f03b2fcad554f2179ba83a9",
     "82ff72b2e7489864191a1641f3aa982ace89261494156eb662e03b3acef90e5d"),
    ("mm-power", "--p 7 --m 3 --s 1", "de505eb371e3ad1b6b49ceb31de7e5f8984b3684bee26cd45fdb3342fa2fb382",
     "8d316ef1fe422447c94a86006929bb6d163efba37908b263039b1c53131ffc3f"),
    ("quad-trace", "--p 3 --n 5 --s 1 --a 1", "312bc3d0d45b8a7f3a3ab474b0f8c89d56338e42629f37467de090d0c259b553",
     "ec475b1ebc0b3ebe290fd806c28e03f4e29858700d87e06fc5e25239b35f93a0"),
    ("quad-trace", "--p 5 --n 3 --s 1 --a 2", "24dd2d5b6813c64cb1b605721b88d35d0b34f6ba8e24f3a7421fe75faf3f9a66",
     "513ac70e2486b288aa15d1b999e92445151bb0c30f8009ce9398dfe8076871ff"),
    ("quad-trace", "--p 5 --n 3 --s 3 --a 2", "ee6713f371557da027e602b0b56f5ed86558bf3c8c9574c86ef5cb743ca1fe59",
     "31da358073ee8199c268c77911e349436f6e3a576ef415da1dcd0dccc4996ea5"),
    ("quad-trace", "--p 7 --n 3 --s 1 --a 3", "e89f2d2e9cfb1a52d268bdd84daaa1645cb1a381affc8688fc9497d12616ff5a",
     "d83bb3b4cd452fa82b8151f921d7353a8265b043042c45b1c45fe733a56bad42"),
    ("mm-power", "--p 5 --m 2 --s 2", "44e2437e6d1fa62631e4a416d0405e98d574415d73d3a5506d98457ec986541c",
     "e68e00e612c418a01fa3aff0f9e27cabaedd5d6c0442e94c166a50abdfab600e"),
    ("diag-quad", "--p 5 --s 1 --m 3 --coeffs 1,2,3", "5138eaa54b733be99c2f5c61492fd6d1949366cd85396869fb558fcde88a1110",
     "604c1b0a3437e95581dae2f892f12ef64ac909f75c2fdf4e9bd552864f3311df"),
    ("mm-power", "--p 3 --m 6 --s 2", "09e46b0dfda7713d3155e0d5ce55d098c9c23bb1dc91f6fbdccc33734ba38cf7", None),
    # branched-quad-mm with three distinct alphas and selector values 0, square
    # and non-square
    ("branched-quad-mm", "--p 3 --n 2 --m 2 --s 1 --alpha1 1 --alpha2 2 --alpha3 4 --gamma 1", "f74fef2e8d7fab79206503dbb1de015163a2c06fcd29e0754bec497b8a4db4c2",
     "285397c095d51221750735b88b932b04258700e39632d82d3141caadae8cd2c6"),
    ("branched-quad-mm", "--p 3 --n 2 --m 2 --s 1 --alpha1 2 --alpha2 1 --alpha3 5 --gamma 3", "f4a0bf660d0ff1c1b48290bcab1bc586eb6b5784b63d3f97ad8848283c26d90f",
     "285397c095d51221750735b88b932b04258700e39632d82d3141caadae8cd2c6"),
    ("branched-quad-mm", "--p 3 --n 2 --m 4 --s 2 --alpha1 1 --alpha2 2 --alpha3 5 --gamma 7", "ec32e40624e5bf1482b8141544a898a49c8c933ad4ba3a40a6bc37d0d3a106f3",
     "d95b32fa7d1cfa06b74278199f34d48a457ee1e24d245f74ccdffd30c94ef949"),
    ("branched-quad-mm", "--p 5 --n 1 --m 2 --s 1 --alpha1 1 --alpha2 2 --alpha3 3 --gamma 6", "af141fce6599f6f76fc7b0d077aab699cda997a04af7478b7134577100049b9f",
     "a9c6e6fca5765626ca69ee17bd76e97890d30fcdcf7cb6faa17fabe6f38d568d"),
]


def _digest(capsys, argv, expect_code=0):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return out, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize(
    "family,args,construct_sha,certify_sha", GOLDEN, ids=[f"{f} {a}" for f, a, _, _ in GOLDEN]
)
def test_cli_output_matches_golden_digest(tmp_path, capsys, family, args, construct_sha,
                                          certify_sha):
    bundle, digest = _digest(capsys, ["construct", "--family", family] + args.split())
    assert digest == construct_sha
    if certify_sha is not None:
        path = tmp_path / "bundle.json"
        path.write_text(bundle)
        assert _digest(capsys, ["certify", "--file", str(path)])[1] == certify_sha


# (construct arguments, exit code, sha256 of stdout) for rejected inputs: each
# family's checks on p, s, divisibility, coefficients, ranks, exponents, L and
# labels, and the order in which they fire
ERROR_GOLDEN = [
    ("mm-power --p 4 --m 2 --s 1", 2,  # characteristic must be an odd prime, got 4
     "ae6d042da17ff85b723cc390666cb3da03e4c6d0d74fefdb57262bd2857ebd60"),
    ("mm-power --p 3 --m 2 --s 0", 2,  # extension degrees must be >= 1
     "0b3b0ef72e1fba85a4356fa5ef0bcc882ad42d5f59e45d6ba3896b5d24b03a5e"),
    ("mm-power --p 3 --m 3 --s 2", 1,  # 2 does not divide 3
     "252522fcc461fe705f98a242fbe7023b15ba81711e1c49874aa0e0c87e3540e8"),
    ("mm-power --p 3 --m 2 --s 1 --a 0", 1,  # coefficient a must be nonzero
     "1431b9b55cc75ce78c52698fd7262c0fb0d50a80a3c7717ee9104ae00a81a3bc"),
    ("mm-power --p 3 --m 2 --s 1 --a 9", 2,  # a = 9 must be a rank in [0, 9)
     "d0c05e10181698c3f43b89d6e2108381a8ced192ffee74d4aaaf6baff7295ae3"),
    ("mm-power --p 3 --m 2 --s 1 --e 2", 1,  # gcd(2, 8) != 1
     "04a9a392f5f173a7619d710deba6dafca8532053f3d8749a13b3ea89cc4956e1"),
    ("mm-power --p 3 --m 2 --s 1 --e -1", 1,  # e = -1 must be non-negative
     "aa184de0c8459b84083068b9c1a8d7069041a930b07a859b3a8ae085dab3b0ff"),
    ("mm-qpoly --p 9 --m 2 --s 1 --coeffs 1", 2,  # characteristic must be an odd prime, got 9
     "c652f77e488f22561c62bad77be5c432417cf60bec6d86cd06638115e3ce5ca3"),
    ("mm-qpoly --p 3 --m 2 --s 0 --coeffs 1", 2,  # extension degrees must be >= 1
     "0b3b0ef72e1fba85a4356fa5ef0bcc882ad42d5f59e45d6ba3896b5d24b03a5e"),
    ("mm-qpoly --p 3 --m 3 --s 2 --coeffs 1", 1,  # 2 does not divide 3
     "252522fcc461fe705f98a242fbe7023b15ba81711e1c49874aa0e0c87e3540e8"),
    ("mm-qpoly --p 3 --m 2 --s 1 --a 0 --coeffs 1", 1,  # coefficient a must be nonzero
     "1431b9b55cc75ce78c52698fd7262c0fb0d50a80a3c7717ee9104ae00a81a3bc"),
    ("mm-qpoly --p 3 --m 2 --s 1 --a 9 --coeffs 1", 2,  # a = 9 must be a rank in [0, 9)
     "d0c05e10181698c3f43b89d6e2108381a8ced192ffee74d4aaaf6baff7295ae3"),
    ("mm-qpoly --p 3 --m 2 --s 1 --coeffs 0,9", 2,  # q-polynomial coefficient = 9 must be a rank in [0, 9)
     "90fc5b78f4063823d082346806bcb9b49c5f4aa74da27df415e5a51a9ddd5e8e"),
    ("mm-qpoly --p 3 --m 2 --s 1 --coeffs 1,1", 1,  # q-polynomial does not permute the field
     "8d0cd83286fbf26aa9652cdc988ed483676a1956894607875100971383e46739"),
    ("quad-trace --p 1 --n 2 --s 1", 2,  # characteristic must be an odd prime, got 1
     "fee47da9bc4949a96058e3b8dbeaacf9b8fce6fdcec37f28d950414e82bdb497"),
    ("quad-trace --p 3 --n 2 --s 0", 2,  # extension degrees must be >= 1
     "0b3b0ef72e1fba85a4356fa5ef0bcc882ad42d5f59e45d6ba3896b5d24b03a5e"),
    ("quad-trace --p 3 --n 3 --s 2", 1,  # 2 does not divide 3
     "252522fcc461fe705f98a242fbe7023b15ba81711e1c49874aa0e0c87e3540e8"),
    ("quad-trace --p 3 --n 2 --s 1 --a 0", 1,  # coefficient a must be nonzero
     "1431b9b55cc75ce78c52698fd7262c0fb0d50a80a3c7717ee9104ae00a81a3bc"),
    ("quad-trace --p 3 --n 2 --s 1 --a -1", 2,  # a = -1 must be a rank in [0, 9)
     "343ba6b763266e21535240c0c573fecdeb9b427b4b1bd9af95a64f2549ba5367"),
    ("diag-quad --p 2 --s 1 --m 2 --coeffs 1,1", 2,  # characteristic must be an odd prime, got 2
     "107ec5dc83c4a2e5ae6e232b2ff44270238a6fa94dea3809c5b6f5d3eab6dbfb"),
    ("diag-quad --p 3 --s 0 --m 2 --coeffs 1,1", 2,  # extension degrees must be >= 1
     "0b3b0ef72e1fba85a4356fa5ef0bcc882ad42d5f59e45d6ba3896b5d24b03a5e"),
    ("diag-quad --p 3 --s 1 --m 2 --coeffs 1,0", 1,  # diagonal coefficients must be nonzero
     "c56110c617ea48f5348b0fe25ebad7fc90ff725759b8e175ddfddf81a202f5c7"),
    ("diag-quad --p 3 --s 1 --m 2 --coeffs 1,3", 2,  # coefficient = 3 must be a rank in [0, 3)
     "d06221841c1045d9b974191e2e968a80eb4fa28c52c1d9ea067bede416484400"),
    ("diag-quad --p 3 --s 1 --m 2 --coeffs 1,1,1", 2,  # need 2 coefficients
     "3a3f475512b917ece7a170ab4ebcfe3a2501709c71eebd8094a95485e26bd0f2"),
    ("spread --p 4 --m 2 --s 1", 2,  # characteristic must be an odd prime, got 4
     "ae6d042da17ff85b723cc390666cb3da03e4c6d0d74fefdb57262bd2857ebd60"),
    ("spread --p 3 --m 2 --s 0", 2,  # extension degrees must be >= 1
     "0b3b0ef72e1fba85a4356fa5ef0bcc882ad42d5f59e45d6ba3896b5d24b03a5e"),
    ("spread --p 3 --m 1 --s 2", 2,  # s must not exceed m
     "4a2627c72eb7e554d543fe7cb00dffc32acd94c1dfad3ad3e0f67f0e35445b4e"),
    ("spread --p 3 --m 2 --s 1 --labels 0,0,0,0,0,0,0,0,0", 1,  # labeling must hit every value exactly 3 times
     "229736ce3d75c8a8fc0bc997a5e0374f2101c8006d227bb350bfa550c1be5397"),
    ("spread --p 3 --m 2 --s 1 --labels 0,1,2", 1,  # labeling must assign all 9 lines
     "122c934973cabe6dff9b5e6c9960a0d53590564b9110ec162cfdc9faa2a6b3c8"),
    ("spread --p 3 --m 2 --s 1 --labels 0,0,0,1,1,1,2,2,3", 2,  # label = 3 must be a rank in [0, 3)
     "bf9748ba742aeb66c8ae381daf4bca7ff830f6b257ced38e3adab134fb206806"),
    ("spread --p 3 --m 2 --s 1 --gamma0 3", 2,  # gamma0 = 3 must be a rank in [0, 3)
     "5b28eb4879de66449db2d192df1e5dacdf0e14c17c3ba74f195ea9c55fc72878"),
    ("branched-quad-mm --p 9 --n 2 --m 1 --s 1", 2,  # characteristic must be an odd prime, got 9
     "c652f77e488f22561c62bad77be5c432417cf60bec6d86cd06638115e3ce5ca3"),
    ("branched-quad-mm --p 3 --n 2 --m 1 --s 0", 2,  # extension degrees must be >= 1
     "0b3b0ef72e1fba85a4356fa5ef0bcc882ad42d5f59e45d6ba3896b5d24b03a5e"),
    ("branched-quad-mm --p 3 --n 2 --m 1 --s 2", 1,  # 2 must divide both 2 and 1
     "6a3fb74c8ee38c3e1bde4ef05585a55bffec2a6bf477172fb4d306c1743ecfc6"),
    ("branched-quad-mm --p 3 --n 2 --m 1 --s 1 --alpha2 0", 1,  # alpha2 must be nonzero
     "c20883a210dffeb41f3215add0e41effd457c30516966d1ac0f2891152d99547"),
    ("branched-quad-mm --p 3 --n 2 --m 1 --s 1 --alpha3 9", 2,  # alpha3 = 9 must be a rank in [0, 9)
     "16b87b126f98bc649490964e83380fe3f4705c43f51498541221e0fccb631638"),
    ("branched-quad-mm --p 3 --n 2 --m 1 --s 1 --beta 0", 1,  # beta and gamma must be nonzero
     "af04321c2f46948ae33a2ac4795fed813ea205501d15fb47d7d26ecf3da3ed2e"),
    ("branched-quad-mm --p 3 --n 2 --m 1 --s 1 --gamma 3", 2,  # gamma = 3 must be a rank in [0, 3)
     "bca3a43c4c8fbe2e9f0f39bb92c9f7c4525c97d73bc71923bcb4c3a933c6c0a5"),
    ("branched-quad-mm --p 3 --n 2 --m 2 --s 1 --coeffs 1,1", 1,  # q-polynomial does not permute the field
     "8d0cd83286fbf26aa9652cdc988ed483676a1956894607875100971383e46739"),
    ("branched-quad-mm --p 3 --n 2 --m 2 --s 1 --coeffs 0,9", 2,  # q-polynomial coefficient = 9 must be a rank in [0, 9)
     "90fc5b78f4063823d082346806bcb9b49c5f4aa74da27df415e5a51a9ddd5e8e"),
    ("mm-power --p 3 --m 3 --s 2 --a 0", 1,  # 2 does not divide 3
     "252522fcc461fe705f98a242fbe7023b15ba81711e1c49874aa0e0c87e3540e8"),
    ("mm-qpoly --p 3 --m 3 --s 2 --a 0 --coeffs 1", 1,  # coefficient a must be nonzero
     "1431b9b55cc75ce78c52698fd7262c0fb0d50a80a3c7717ee9104ae00a81a3bc"),
    ("quad-trace --p 3 --n 3 --s 2 --a 0", 1,  # 2 does not divide 3
     "252522fcc461fe705f98a242fbe7023b15ba81711e1c49874aa0e0c87e3540e8"),
    ("diag-quad --p 3 --s 1 --m 3 --coeffs 0,1", 2,  # need 3 coefficients
     "8cc2bf250d25fd286ab6a42ba811855ad23be5e776ee6a54d2e4cfb524ab94b0"),
    ("branched-quad-mm --p 3 --n 2 --m 2 --s 1 --beta 0 --coeffs 1,1", 1,  # beta and gamma must be nonzero
     "af04321c2f46948ae33a2ac4795fed813ea205501d15fb47d7d26ecf3da3ed2e"),
]


@pytest.mark.parametrize("args,code,sha", ERROR_GOLDEN, ids=[row[0] for row in ERROR_GOLDEN])
def test_construct_error_records_match_golden_digest(capsys, args, code, sha):
    family, *rest = args.split()
    assert _digest(capsys, ["construct", "--family", family] + rest, code)[1] == sha


# (arguments, sha256 of stdout) for inputs rejected with exit code 2 before
# any library call: invalid choices, missing and unrecognized options, an
# ambiguous abbreviation, and the per-family, per-theorem, per-set and
# per-method requirements the handlers check.  {file} is a function file.
PARSER_GOLDEN = [
    ("construct --family nope --p 3 --s 1",
     "91a464e5cf2bdd1ba8d444119af047d848a096247f747d18f07f8f63e3644143"),
    ("construct", "cc05f45da96220f57d62853f0df99feb560a20034a0a5a5323508a1a69d13bdc"),
    ("pds-verify", "5b7fb60803127c1af217f603cbfa746af0a484bbee6021706be71ad5ad3e097e"),
    ("pds-params", "a7c994eb55736b5723f465e8b872db44aba0eefab1350eed74385965510496d9"),
    ("construct --family mm-power --p 3 --m 2 --s 1 --bogus 1",
     "ba75efb593e00ebaf28668b93316d5b87241939757406065507a4f879ee6ccfd"),
    ("construct --al 1", "6f2320012d89c0bf25601cea17b4f4dd9f5c1328f42a165e9571a60a227486b9"),
    ("construct --family mm-qpoly --p 3 --s 1",  # --m before --coeffs
     "58bc2f0f10c5dca98b4ef6aa91c9602192591d5e21aa291899196e99d207adf1"),
    ("construct --family mm-qpoly --p 3 --m 2 --s 1",
     "8379c8a4ae16d694db473461447eba67a46b696acd98a8154279a81c19483e54"),
    ("construct --family branched-quad-mm --p 3 --s 1",  # --n before --m
     "4924bb2efcf68f4cd5f82d4d96340597af71dac3eb774e228e7731ae265fadda"),
    ("construct --family branched-quad-mm --p 3 --m 1 --s 1",
     "4924bb2efcf68f4cd5f82d4d96340597af71dac3eb774e228e7731ae265fadda"),
    ("pds-extract --file {file} --set coset --beta 1",
     "d44759a24f219482c20e6ebe364352e7b7fe054148694c0e498bfb841a1d3221"),
    ("pds-verify --file {file} --set coset --l 2",
     "d44759a24f219482c20e6ebe364352e7b7fe054148694c0e498bfb841a1d3221"),
    ("pds-verify --file {file} --set zero --method characters",
     "fdfafbf3697949cbd3ea37b0b9b9ec4527eab57bd92b2b821075fb623f0504e7"),
    ("pds-params --theorem subset --p 3 --s 1 --eps 1",
     "4924bb2efcf68f4cd5f82d4d96340597af71dac3eb774e228e7731ae265fadda"),
    ("pds-params --theorem coset-union --p 3 --s 1 --eps 1 --ntotal 2",
     "f9cebb1d657bb78d520c00a76d4c7048094e45d47da1c9654bd6fb542c188672"),
    ("pds-params --theorem nope --p 3 --s 1 --eps 1",
     "6d1a6efee5c923bf41b2bba6e504b328e2972ede6b184027c48dd108bbeb33d8"),
    ("pds-params --theorem subset --p 3 --s 1 --eps 2 --n 2 --size-a 1",
     "dd9813df823c56524426376ae6565198a6ad7bc75d9ed03354262373953ad590"),
    ("pds-verify --file {file} --set nope",
     "a9172484aef1c513efdd800c53206a2dea557e2455180e1a2bafad763f256ad7"),
    ("pds-verify --file {file} --set zero --method nope",
     "7afd7dea2ce054317dd9f542fe3d80e200ea600e90c7cb70d9161fd1f65ed317"),
    ("gaussian-period --p 3 --s 2",
     "c75b446b676dec3b2b687207cc9836bb0eca2a947cb1e701ba02e77749da238b"),
    ("reproduce-examples --out",
     "9693a8827ddb76ab2d199e0ba4bdebc3cf7b9446639e866574040e600ecfc9a9"),
    ("walsh", "40365f7122d01272e0ca260dbe0ec769c147e8282b59a09c046d8fcb585bbceb"),
    ("", "a0f529a317611c4f5eb7768ea043c5d56e6ade81a28420fc6d12238077224d07"),
    ("nope", "ae3633cbfe9c673058fdec406747770709e32bbd09f0e319f636d4ec4968bcec"),
]


# (source, sha256 of `walsh`, sha256 of `classify`).  A source is construct
# arguments, or "nonbent p n" for _nonbent(p, n).
SPECTRAL_GOLDEN = [
    ("quad-trace --p 3 --n 3 --s 1",
     "a386c7baa686d25f45bffe8ca04d41df66e432397d1e36fd2951f2c9a001710f",
     "9a6abaef7b3b66a43e40b298fc7670ec98025fdc788afd98d315b9eda30e9f8a"),
    ("mm-power --p 3 --m 2 --s 1",
     "ea5e5d63b252305fd3124b16b944ab035676cfa68fbf9e566396e3130819156c",
     "de96c4ecf7562906a77146eb55dfac24f3c2dde7b66f4d2c9fbe46798639f0ca"),
    ("branched-quad-mm --p 3 --n 1 --m 1 --s 1 --alpha2 2",
     "abdbdbead19b1ccc29ac98bd4639cce0b3e8a93d09bfec35bda575ca9ab09d87",
     "94007ed2155086f4b7fe779e57f1ced248094e3217e51253a48287a5b05ff321"),
    ("quad-trace --p 5 --n 2 --s 1",
     "746ae419b7d9f5910582b68348852939c3b7a313f0a0e29f2e77b3850cc1b4e0",
     "8aa39883361e91f299aaf2909cbed9f8949ccea1ee956a0c4fb938ac6b6d9979"),
    ("quad-trace --p 5 --n 3 --s 1",
     "696abaea07c62ac01d8a85307772a6be068d9cdda8d4ea9ad2fcdd489ba1c162",
     "40ef542573db29199dda2afa0db79a4e780066255fd9d8880b890993d845930e"),
    ("mm-power --p 7 --m 1 --s 1",
     "93eaaf78375443036cdc0890b07899b7fb39c9277588fdb0c271104a913b3fae",
     "4c26e0c1298a1c601702c82a550654c4c82d03eba47df0d397a2b9b4e91adb42"),
    ("quad-trace --p 7 --n 3 --s 1",
     "e3c8a53e7f383554b1ceff933c8368c7193b4d32a7e5d883a1124581cee1c450",
     "997bef69722124fdec06b0427f35a69c6a1bac283ddfd78062db48966332b479"),
    ("nonbent 3 3",
     "c8af615cc758b7faa0f74cb334a8669cf2b8e858305276970cc1c416ba7e9b8d",
     "9de70eb5fc57105e69a2a545ac6aeba2be9046ec97109bdfac809c26e6dfd1c3"),
    ("nonbent 5 2",
     "d71c5e95186544449a0c21728c6b6979779a86c75eacdf0f244500051eab8d6e",
     "9de70eb5fc57105e69a2a545ac6aeba2be9046ec97109bdfac809c26e6dfd1c3"),
    ("nonbent 7 1",
     "08c404d909b494765d43f20bf2815e337fbc8a83bd72720e440314a89c848bc8",
     "9de70eb5fc57105e69a2a545ac6aeba2be9046ec97109bdfac809c26e6dfd1c3"),
]

# (source, pds-verify arguments, exit code, sha256 of stdout)
PDS_GOLDEN = [
    ("mm-power --p 3 --m 2 --s 1", "--set zero --method both", 0,
     "4bdebe6957c309e0a55d12fde571472640d185462838658c1b8f078d965d486c"),
    ("mm-power --p 3 --m 2 --s 1", "--set squares --method characters --expect 81,24,9,6", 0,
     "2444dc62a0d470fd5b137243afb09cff76d88334c8949bbbf4e93147c6c79bd1"),
    ("mm-power --p 3 --m 2 --s 1", "--set zero --method characters --expect 81,32,13,8", 1,
     "e1873ee8b62e6a8602526763def38b31c1709b92c18b4249a2eaba6fdb0c29c7"),
    ("mm-power --p 7 --m 1 --s 1", "--set squares --method both", 0,
     "4847f9ed640d2aab6f0866258adc014f15171a4a066dba237d821f9d24efdc6d"),
    ("quad-trace --p 5 --n 2 --s 1", "--set nonsquares --method characters --expect 25,12,5,6", 0,
     "8196309f08c0fabce6ba387fe964aa1b8d001813dd4891a77437725894fa6c08"),
    ("quad-trace --p 5 --n 3 --s 1", "--set zero --method both", 1,
     "d32f0606e039079c5503705400ecaed9702ca41986084cc29a59fd403daf9f93"),
    ("nonbent 3 4", "--set zero --method both", 1,
     "d32f0606e039079c5503705400ecaed9702ca41986084cc29a59fd403daf9f93"),
    ("nonbent 3 4", "--set zero --method characters --expect 81,26,16,10", 1,
     "8b1de4614191e1eb7816fe90737fda57a49037ded92bd0752c1840e882cd112f"),
    # the pair counter alone, on either side of its 16 |D| >= v route rule:
    # |D_0| = 160 of 6561 (gather), |D_0| = 800 of 6561 (dense), and two
    # odd-dimension groups where the high and low digit blocks differ in size
    ("mm-power --p 3 --m 4 --s 4", "--set zero --method bruteforce", 0,
     "d52661b7515621904697517411ed0d0c51a2e11e2df937227099599f48f33848"),
    ("mm-power --p 3 --m 4 --s 2", "--set zero --method bruteforce", 0,
     "6c9a734caaa5ce4bbbd2e7a9a18df7d75c624afc932e6bb948ab48a87e2d74ca"),
    ("quad-trace --p 5 --n 5 --s 1", "--set zero --method bruteforce", 1,
     "0bb8638b2c5d0651fd96cad1f1d490c1089fbb034d156c4879a52802b2fd9311"),
    ("quad-trace --p 5 --n 3 --s 3", "--set coset --l 4 --beta 1 --method bruteforce", 0,
     "a026f2df3429889d8368e99540524abe3ee9745819767efbea7d6cb58dbf6bfb"),
    # D_S at the point cap 3^12, |D| = 235872, by both routes
    ("mm-power --p 3 --m 6 --s 2",
     "--set squares --method both --expect 531441,235872,104733,104652", 0,
     "57615b31e9dcb67fe08bcedcf90cc378c1fde0af4f00d232a34a1c287dd24442"),
]


# (pds-extract or pds-verify arguments, exit code, sha256 of stdout) on the
# zero function GF(3)^2 -> GF(3), whose D_S and D_N are empty: no member to
# list, no pair to count, and no character sum to take
EMPTY_GOLDEN = [
    ("pds-extract --set squares", 0,
     "4f87442015088284f1f4b8dcf339348e105dafcaf89375a016185bb601cf97bf"),
    ("pds-extract --set nonsquares --include-zero", 0,
     "0c837a207fa8a09bcf8e60bd7ceb2a5c28b511108aa18e8d21c484fb3763e0b2"),
    ("pds-verify --set squares --method both", 0,
     "be0c21dccefb942a9358a8f4c0f97850f77b6fedc70e8b30f610a01ff58e7ad0"),
    ("pds-verify --set nonsquares --method characters --expect 9,0,0,0", 0,
     "43ddd2ab75c78104da22f9144eab5d7ec5285b2ad1690722e12edc85bbeda4a7"),
    ("pds-verify --set squares --method characters --expect 9,0,0,1", 1,
     "f40e52231bcf15b9c6acab95d8d1ae758256473fee9ee4a86928ca51e1ba5152"),
]


def _nonbent(p, n) -> str:
    """An even function GF(p)^n -> GF(p) that is not bent and whose zero
    preimage is not a PDS: x -> 7 min(x, -x) + 1 on ranks, 0 at x = 0."""
    sp = prime_space(p, n)
    table = (7 * np.minimum(np.arange(sp.size), sp.negate(np.arange(sp.size))) + 1) % p
    table[0] = 0
    return json.dumps(VectorialFunction(sp, canonical_field(p, 1), table).to_dict())


def _source_file(tmp_path, capsys, source) -> str:
    kind, *rest = source.split()
    if kind == "nonbent":
        text = _nonbent(*map(int, rest))
    elif kind == "zero":
        sp = prime_space(*map(int, rest))
        zero = VectorialFunction(sp, canonical_field(sp.p, 1), np.zeros(sp.size, dtype=np.int64))
        text = json.dumps(zero.to_dict())
    else:
        text = _digest(capsys, ["construct", "--family", kind] + rest)[0]
    path = tmp_path / "function.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("source,walsh_sha,classify_sha", SPECTRAL_GOLDEN,
                         ids=[row[0] for row in SPECTRAL_GOLDEN])
def test_spectral_output_matches_golden_digest(tmp_path, capsys, source, walsh_sha,
                                               classify_sha):
    path = _source_file(tmp_path, capsys, source)
    assert _digest(capsys, ["walsh", "--file", path])[1] == walsh_sha
    assert _digest(capsys, ["classify", "--file", path])[1] == classify_sha


@pytest.mark.parametrize("source,args,code,sha", PDS_GOLDEN,
                         ids=[f"{row[0]} {row[1]}" for row in PDS_GOLDEN])
def test_pds_verify_output_matches_golden_digest(tmp_path, capsys, source, args, code, sha):
    path = _source_file(tmp_path, capsys, source)
    assert _digest(capsys, ["pds-verify", "--file", path] + args.split(), code)[1] == sha


@pytest.mark.parametrize("args,code,sha", EMPTY_GOLDEN, ids=[row[0] for row in EMPTY_GOLDEN])
def test_empty_preimage_output_matches_golden_digest(tmp_path, capsys, args, code, sha):
    path = _source_file(tmp_path, capsys, "zero 3 2")
    command, *rest = args.split()
    assert _digest(capsys, [command, "--file", path] + rest, code)[1] == sha


@pytest.mark.parametrize("args,sha", PARSER_GOLDEN, ids=[row[0] for row in PARSER_GOLDEN])
def test_parser_error_records_match_golden_digest(tmp_path, capsys, args, sha):
    path = _source_file(tmp_path, capsys, "zero 3 2")
    assert _digest(capsys, args.format(file=path).split(), 2)[1] == sha


# (source, pds-extract or pds-verify arguments, exit code, sha256 of stdout):
# D_{beta H_l} for several (l, beta) with s >= 2 at p = 3, 5 and 7, D_S and
# D_N with the zero point, and the error records of l < 1, beta = 0 and beta
# outside [0, q), beta = 0 being rejected before l
COSET_GOLDEN = [
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 1 --beta 1", 0,
     "4891ea3ee87cb00098b797297cd5f4fd933dc982d230a821c1f0680b7cb509c1"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 1 --beta 1 --method both", 0,
     "001a5e7e07ed3d1868d2c39db855e8e8018cebcbadaf103bb6ea8ed0bb924d28"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 2 --beta 1", 0,
     "3df466e68f88b9f67ecadaf6ce58ae95f92dcb45961b82b943b700bd90c44a97"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 2 --beta 1 --method both", 0,
     "94dbd9b130e658802cd50c2836f49e7f332b3c6b2bde50831540044fa6aa290b"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 2 --beta 2", 0,
     "9a4991e8bea020a3b06d55afb8f4573c649e977a5243689c370f946a480effc8"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 2 --beta 2 --method both", 0,
     "3ba75511acd4d3c6fc062ef50c1e5b25830fcccb751aa95fcca564d86734c6cf"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 4 --beta 3", 0,
     "ef0f7875464f490ce71264e2219ac327d2edb403623cfa0391d3b849094475bd"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 4 --beta 3 --method both", 0,
     "4753f8c60ed313ffa45ac452063c755e266a6c2f51ae896d4036655d0598adc7"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 8 --beta 5", 0,
     "d726fc5498991fa42d906d0bcf7abc8c6c7fec86958539181e9f9ee0b5030cb1"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 8 --beta 5 --method both", 1,
     "a2c8f11f5e24ca862aa7ed57e3590b4c6251df8e1364b0b6a1db59f913f9099d"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 3 --beta 2", 0,
     "90beee26d5d2412572fa23937c5fb4a75636d8d8677d115c76a4345e8d5aa217"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 3 --beta 2 --method both", 0,
     "faaf4f2b10429b78dfd5cd4b49274b293db6df95c94b66af905a97bacf3b1193"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 6 --beta 7", 0,
     "84a581b48893000cc7cf7be21d339c72ce46de8017bc2fa60b268e768eeb2aae"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 6 --beta 7 --method both", 0,
     "2b040b233ccd497a701eb0de38b1b042030a648b04bf797eeef07ff0be2ade33"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set nonsquares --include-zero", 0,
     "5729e5f99a5b0aee581d80ecbeb2cd8f837af8f3e2aa7cf7c39a7fa87dd129d0"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set squares", 0,
     "eccbc88d8a9f11f23082b525c0ae19da24be9f54e254906b546e93c68806a611"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set coset --l 2 --beta 1", 0,
     "1f73ec240d76d9da8e2802b3d96c3aa2c69464fee80dc8d1be7fc19e6b886020"),
    ("mm-power --p 5 --m 2 --s 2", "pds-verify --set coset --l 2 --beta 1 --method both", 0,
     "c03e19fc6ac2affe0baf00898dae97189acedbae2f17520097feb22de4a89a97"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set coset --l 3 --beta 7", 0,
     "ca7f09221072b196a99f4e4bf5a06b3deba2180de7db9f64417a3e2a55af882f"),
    ("mm-power --p 5 --m 2 --s 2", "pds-verify --set coset --l 3 --beta 7 --method both", 0,
     "dfbe29e941de85652263c6e07962247d55cbfe105a8f7aabb631d855d69dabea"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set coset --l 4 --beta 2", 0,
     "dec839cecd5dc0d484372ee596c2eb181666c24b402c9222ba0f7ff0db012c99"),
    ("mm-power --p 5 --m 2 --s 2", "pds-verify --set coset --l 4 --beta 2 --method both", 1,
     "bf1d48461e789c8ea8b7db3cbb42de775b3cd0fed41332705b346d6d79fc4f15"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set coset --l 6 --beta 13", 0,
     "d5ad9f633d6df6820f29792ff00a9eadb4ccd0c083790b7ba741f84aa3b80bbd"),
    ("mm-power --p 5 --m 2 --s 2", "pds-verify --set coset --l 6 --beta 13 --method both", 0,
     "de33434cafa2ff63d85f3d0286bcf6ef39067dad18a0e4204e968d2a5a2cc3d6"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set coset --l 8 --beta 24", 0,
     "e812f485e0e9d78ab6e855307850d554176622ff596e685c9af09f74691f19af"),
    ("mm-power --p 5 --m 2 --s 2", "pds-verify --set coset --l 8 --beta 24 --method both", 1,
     "fcc089f2cb639b3b52baa892110e48020b90cbb00897c8c13b507f39e52ef75f"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set coset --l 12 --beta 5", 0,
     "669e39e63cd2c99abc2dff86327b92d38b398f781e3cb3a49ae6b2a179722735"),
    ("mm-power --p 5 --m 2 --s 2", "pds-verify --set coset --l 12 --beta 5 --method both", 1,
     "7d5b6375eea8738bc6364e388c5d939079621c9d7fd1e22edd93110d7e334dd7"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set nonsquares --include-zero", 0,
     "5eb7c2d1cb012bee2786d29fb6d28f90124a8f8d53322ff2c1349b038e6cac62"),
    ("mm-power --p 5 --m 2 --s 2", "pds-extract --set squares", 0,
     "b99b7d89f0042b5f76bdc07140d4f0b4e5e393c0d30ce928c40ac7b5ec525bc0"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set coset --l 2 --beta 3", 0,
     "716d443356553bea07c4e1ac11e64178f570f26bc8a8597570d9e893ad89880c"),
    ("mm-power --p 7 --m 2 --s 2", "pds-verify --set coset --l 2 --beta 3 --method both", 0,
     "a5ea6b0587649b3129d62010585a3641052908e912cd8bca33aa034b6956ecf6"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set coset --l 3 --beta 10", 0,
     "4bfa4147fc956313098925a0e0ff848d9ca107c17c7c46856bb76113633403ad"),
    ("mm-power --p 7 --m 2 --s 2", "pds-verify --set coset --l 3 --beta 10 --method both", 1,
     "8fd4d1dc91a89b0b250d3ef9e83bc3a494610074eb0ca73d6515915bd7c48fa8"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set coset --l 4 --beta 1", 0,
     "967aa1a8ef33c152ed2901e6d9136313f0456044eefdd07d3c7dae7ec14def04"),
    ("mm-power --p 7 --m 2 --s 2", "pds-verify --set coset --l 4 --beta 1 --method both", 0,
     "cb14a9d3827e9dbd733db103aecf93ecc63d92559fba5f6dcc5c99e5bfe2d193"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set coset --l 6 --beta 48", 0,
     "cc41716385ed77ca443f697cb617f735166283611e5d46761808fe8f7be779d4"),
    ("mm-power --p 7 --m 2 --s 2", "pds-verify --set coset --l 6 --beta 48 --method both", 1,
     "3a530f9beb3e8f150401b3fb799570058a9832e8536882bebe590889d09dd653"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set coset --l 16 --beta 20", 0,
     "54886368deef685a58b69a03f0db86151cd9cfce82723bb95f38b1dd7272b3d4"),
    ("mm-power --p 7 --m 2 --s 2", "pds-verify --set coset --l 16 --beta 20 --method both", 1,
     "d1d16b778b89bb209d68e2b56e8e256c464bc0fb64193963959abe9c76ce1b30"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set coset --l 24 --beta 2", 0,
     "f6ce566db93936ea45d293a08355706d62d77611f65d477c554cd48de734e198"),
    ("mm-power --p 7 --m 2 --s 2", "pds-verify --set coset --l 24 --beta 2 --method both", 1,
     "23577ad7b8d1cc5d3aa9c3b87ab6f38af4f6e588e0d11f52ea9bc0a97df206ce"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set nonsquares --include-zero", 0,
     "b46a5ed462b96116ddc7d80909c0a74e806ad020a1c61e4b308ca83904f6d0c0"),
    ("mm-power --p 7 --m 2 --s 2", "pds-extract --set squares", 0,
     "1a7f512ae3d5f683e60b8b0595c3cbe80725056b17bd5a14f065dbeac5c40657"),
    ("mm-power --p 3 --m 4 --s 4", "pds-extract --set coset --l 5 --beta 7", 0,
     "b5b2d20a110a4d52292ec5cdaf8c86b2d1292a0d439e1e6897a7a005c7558989"),
    ("mm-power --p 3 --m 4 --s 4", "pds-verify --set coset --l 5 --beta 7 --method both", 0,
     "60668479f9718f6ae1d3108b22eb7dd49d211e0e2c39b05ceb95490ff6b2d3f2"),
    ("mm-power --p 3 --m 4 --s 4", "pds-extract --set coset --l 10 --beta 80", 0,
     "7dd5eb944bce4c0eeaa84cdefdff24f266ebcfb5ba851f0fea0a005d5bb587a6"),
    ("mm-power --p 3 --m 4 --s 4", "pds-verify --set coset --l 10 --beta 80 --method both", 0,
     "bd4819ab82a74bf2309055a9f14bb51c4bb95facad53e84c269c805eac074e8e"),
    ("mm-power --p 3 --m 4 --s 4", "pds-extract --set coset --l 16 --beta 3", 0,
     "749486e4ba239ea970da0eaa255ba1de582d76475c8ef6d48a50b6bf58952331"),
    ("mm-power --p 3 --m 4 --s 4", "pds-verify --set coset --l 16 --beta 3 --method both", 1,
     "4bfc0797039c06c4da3d6835ecf2f84c09533216e0f51b25d47d91334299785a"),
    ("mm-power --p 3 --m 4 --s 4", "pds-extract --set coset --l 40 --beta 41", 0,
     "5b2d0a4dc4636f1e3963db632c3ce26e2f6988c95a9a7ea0d55e1b4ff3743b66"),
    ("mm-power --p 3 --m 4 --s 4", "pds-verify --set coset --l 40 --beta 41 --method both", 1,
     "7705917b754f1c17bbfcc29cf5466444d5ad717e6bb41191753ba234c56e22f6"),
    ("mm-power --p 3 --m 4 --s 4", "pds-extract --set nonsquares --include-zero", 0,
     "69225c2423af52ae4cc84bb8b6fcd73e9f24ca917d190ba94532f068306f5c6c"),
    ("mm-power --p 3 --m 4 --s 4", "pds-extract --set squares", 0,
     "b153ce45dc6e17457b663b2f60b464f207dc8e07175ff6c62afe42fa6527d0b8"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 0 --beta 1", 2,
     "7f31b576fa8a75202be73c6c191dba920ee2fb2ee1a9bf650470b84d73a2aabc"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 0 --beta 1 --method both", 2,
     "7f31b576fa8a75202be73c6c191dba920ee2fb2ee1a9bf650470b84d73a2aabc"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 1 --beta 0", 1,
     "4bad9107c0a25cf799cc399ca6fc3620892a1066ab6d2bd7c2d1bb8ce0a09a87"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 1 --beta 0 --method both", 1,
     "4bad9107c0a25cf799cc399ca6fc3620892a1066ab6d2bd7c2d1bb8ce0a09a87"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 2 --beta 9", 2,
     "80d51390359a400819d7bdc2fb16b24432a0854552f1f48fbe0da1bd40e6d9d5"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 2 --beta 9 --method both", 2,
     "80d51390359a400819d7bdc2fb16b24432a0854552f1f48fbe0da1bd40e6d9d5"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 0 --beta 0", 1,
     "4bad9107c0a25cf799cc399ca6fc3620892a1066ab6d2bd7c2d1bb8ce0a09a87"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 0 --beta 0 --method both", 1,
     "4bad9107c0a25cf799cc399ca6fc3620892a1066ab6d2bd7c2d1bb8ce0a09a87"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l -1 --beta 1", 2,
     "7f31b576fa8a75202be73c6c191dba920ee2fb2ee1a9bf650470b84d73a2aabc"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l -1 --beta 1 --method both", 2,
     "7f31b576fa8a75202be73c6c191dba920ee2fb2ee1a9bf650470b84d73a2aabc"),
    ("mm-power --p 3 --m 2 --s 2", "pds-extract --set coset --l 2 --beta -1", 2,
     "45eff1fea304fa739a87fc518e8c682d5cd52a40e8d61dd1b0e31c7d0230dca6"),
    ("mm-power --p 3 --m 2 --s 2", "pds-verify --set coset --l 2 --beta -1 --method both", 2,
     "45eff1fea304fa739a87fc518e8c682d5cd52a40e8d61dd1b0e31c7d0230dca6"),
]


@pytest.mark.parametrize("source,args,code,sha", COSET_GOLDEN,
                         ids=[f"{row[0]} {row[1]}" for row in COSET_GOLDEN])
def test_coset_preimage_output_matches_golden_digest(tmp_path, capsys, source, args, code,
                                                     sha):
    path = _source_file(tmp_path, capsys, source)
    command, *rest = args.split()
    assert _digest(capsys, [command, "--file", path] + rest, code)[1] == sha


# ((p, s, t), sha256 of the exit codes and stdout of `gaussian-period` at
# a = 1, ..., p^s - 1 in turn).  Both semiprimitive branches, and cases that
# are not semiprimitive (t = 1, s odd, t dividing no p^j + 1).
GAUSSIAN_GOLDEN = [
    ((3, 2, 2), "e9b58c599ee9a697454f407f2a781708c88e6c9d3de9a35cf4b990c627113a04"),
    ((3, 2, 4), "0e2478528c32208b8d1dd99cc797df4a2af6c4e76e33e60d4417a6b4e2094d0f"),
    ((5, 2, 3), "975e6018c621e1ed06c8be6fd529aa2bdad02ab4657255c1e49d7659805850a4"),
    ((5, 2, 6), "f772f89409f41a25e978ae95718f477b08c72dda0572ec3aa69aaa125cd8c13a"),
    ((7, 2, 8), "3ea8e76bfe3e9e61dd0f12bce4debb371bbce9dcaad1a208d2c3bcafe2cf310f"),
    ((3, 4, 2), "e8ba9f1094166ee89509cc82f2d10dafe30cc7c5b5d1437fb1a5c2bb797c402b"),
    ((3, 4, 5), "5c55e07401cd6e1eee45035c3889c9810f2477ae89a3e5e263579d823104872e"),
    ((3, 4, 10), "359502e0242d246ebea3e67b8fca4ea70ac27c4b9ebc11bfb3d34c192fa7ca85"),
    ((3, 2, 8), "2b521548e2d2f1ca6cf9e940ea930225b9e70754dfc7d59c3e46b2aa22d4bdf1"),
    ((3, 3, 2), "c5b4c3348b6fef6815ec15bcd29328d0963ccaa725885184620db9c674837451"),
    ((5, 2, 8), "40925883a9b604ef8c6b510af3c06f6939483e0864b5def806ea4bea51a024de"),
    ((3, 2, 1), "8d7c69e26f347417f7a13024a7199979e70bd1d08f156a00b1c98f4481b16326"),
]

# sha256 of the exit code and stdout of `gaussian-period` at a = 0 for the
# GAUSSIAN_GOLDEN rows that are not semiprimitive: brute force alone
GAUSSIAN_ZERO_GOLDEN = {
    (3, 2, 8): "f49e75b53a8b38ee62ca434ec0d262086a1663168af2cd5099ab3f0b9fa28aec",
    (3, 3, 2): "9440f5105aa4f2cf70d3c3f2a9a8be57cc8422d861dbf87229363c7a3ae1d084",
    (5, 2, 8): "5a4c428c2effad5bb811a6e744f270aca697c3289752e8ba7d1a4985a0e49375",
    (3, 2, 1): "0f07bbc314e85b32526c435882ecb7ea1ae9c5c22a1fbca3e77b2dae4a6f9840",
}


def _gaussian_period(capsys, p, s, t, a) -> str:
    code = main(["gaussian-period", "--p", str(p), "--s", str(s), "--t", str(t), "--a", str(a)])
    return f"{code} {capsys.readouterr().out}"


@pytest.mark.parametrize("pst,sha", GAUSSIAN_GOLDEN, ids=[str(row[0]) for row in GAUSSIAN_GOLDEN])
def test_gaussian_period_output_matches_golden_digest(capsys, pst, sha):
    p, s, t = pst
    outs = "".join(_gaussian_period(capsys, p, s, t, a) for a in range(1, p ** s))
    assert hashlib.sha256(outs.encode()).hexdigest() == sha


@pytest.mark.parametrize("pst", [row[0] for row in GAUSSIAN_GOLDEN], ids=str)
def test_gaussian_period_at_zero_is_the_subgroup_order(capsys, pst):
    """eta_0 = |H_t| = (p^s - 1) / t: the closed form agrees with brute force
    in the semiprimitive case, and the other records are as they were."""
    p, s, t = pst
    out = _gaussian_period(capsys, p, s, t, 0)
    if pst in GAUSSIAN_ZERO_GOLDEN:
        assert hashlib.sha256(out.encode()).hexdigest() == GAUSSIAN_ZERO_GOLDEN[pst]
        return
    code, record = out.split(" ", 1)
    d = json.loads(record)
    order = [(p ** s - 1) // t] + [0] * (p - 2)
    assert code == "0" and d["semiprimitive"] and d["match"] is True
    assert d["bruteforce"]["coeffs"] == d["closed_form"]["coeffs"] == order
