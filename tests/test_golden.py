"""Golden digests of CLI stdout.

Each GOLDEN row is a `construct` invocation, the sha256 of its stdout, and the
sha256 of `certify` run on that bundle (None only for the 3^12 bundle, whose
certification takes seconds).  The digests pin the byte-exact output: table
order, JSON layout, and the plain-int types of `sigma`, `epsilons` and
`params`.  The p = 5 and p = 7 rows include odd n with mixed component signs
and codomains GF(p^s) with s > 1.

ERROR_GOLDEN pins the error records of rejected `construct` inputs.
SPECTRAL_GOLDEN and PDS_GOLDEN pin `walsh`, `classify` and `pds-verify` the
same way, on construct bundles and on an even non-bent function.
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


def _nonbent(p, n) -> str:
    """An even function GF(p)^n -> GF(p) that is not bent and whose zero
    preimage is not a PDS: x -> 7 min(x, -x) + 1 on ranks, 0 at x = 0."""
    sp = prime_space(p, n)
    table = (7 * np.minimum(np.arange(sp.size), sp.neg) + 1) % p
    table[0] = 0
    return json.dumps(VectorialFunction(sp, canonical_field(p, 1), table).to_dict())


def _source_file(tmp_path, capsys, source) -> str:
    kind, *rest = source.split()
    if kind == "nonbent":
        text = _nonbent(*map(int, rest))
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
