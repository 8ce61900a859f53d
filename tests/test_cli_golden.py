"""Golden outputs of every subcommand: exit code, stdout and every file
written under --out, in plain, --json, --out and --out --json modes.

Each (case, mode) is reduced to one sha256 over the exit code, the stdout
and the name and bytes of every written file; the digests in GOLDEN were
taken before the CLI became table-driven, so they pin that refactor and any
later change to the CLI's bytes.  Two things are normalised first: the
timings in `reproduce` output, and the `threads` parameter that the
`inversive-audit` and `zaremba` manifests recorded before the option was
removed (their `params` are asserted explicitly, then the old key is put
back before hashing).
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil

import pytest

from lowdisc.cli import main

INPUTS = {
    "mats.json": json.dumps({"b": 2, "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}),
    "a.csv": "x1,x2\n0/4,0/4\n1/4,3/4\n2/4,2/4\n3/4,1/4\n",
    "b.csv": "x1\n0/4\n2/4\n1/4\n3/4\n",
    "f.txt": "p=3\n0,0,2,2\n",
}

# input directories made by the CLI itself before the cases run
SETUP = [
    ["gen", "--kind", "niederreiter", "--b", "2", "--s", "2", "--m", "4", "--out", "net"],
    ["gen", "--kind", "lattice", "--a", "1,3", "--n", "4", "--out", "lat"],
    ["gen", "--kind", "kronecker", "--alphas", "sqrt(2),sqrt(5)", "--n", "10", "--out", "kr"],
]

CASES = {
    "gen-lattice": ["gen", "--kind", "lattice", "--a", "1,8", "--n", "13"],
    "gen-kronecker": ["gen", "--kind", "kronecker", "--alphas", "sqrt(2),sqrt(3)",
                      "--n", "16", "--start", "3"],
    "gen-halton": ["gen", "--kind", "halton", "--bases", "2,3,5", "--n", "20", "--start", "1"],
    "gen-halton-float": ["gen", "--kind", "halton", "--bases", "2,3", "--n", "8", "--float"],
    "gen-niederreiter": ["gen", "--kind", "niederreiter", "--b", "3", "--s", "2", "--m", "3"],
    "gen-digital": ["gen", "--kind", "digital", "--matrices", "mats.json"],
    "gen-digital-window": ["gen", "--kind", "digital", "--matrices", "net/points.json",
                           "--start", "2", "--n", "5"],
    "gen-polylattice": ["gen", "--kind", "polylattice", "--b", "2", "--f", "1,1,0,1",
                        "--g", "1;1,1"],
    "gen-hybrid": ["gen", "--kind", "hybrid", "--first", "a.csv", "--second", "b.csv"],
    "verify-net": ["verify", "--points", "net/points.csv", "--b", "2", "--m", "4", "--s", "2"],
    "verify-lattice": ["verify", "--points", "lat/points.csv"],
    "verify-sidecar": ["verify", "--points", "a.csv", "--sidecar", "lat/points.json"],
    "verify-mismatch": ["verify", "--points", "a.csv", "--s", "3"],
    "discrepancy-exact": ["discrepancy", "--points", "net/points.csv"],
    "discrepancy-float": ["discrepancy", "--points", "kr/points.csv", "--n-limit", "100"],
    "discrepancy-budget": ["discrepancy", "--points", "net/points.csv", "--n-limit", "2"],
    "p2": ["p2", "--a", "1,34", "--n", "55"],
    "integrate-prod2x": ["integrate", "--points", "net/points.csv"],
    "integrate-box": ["integrate", "--points", "net/points.csv", "--f", "box", "--y", "0.5,0.25"],
    "integrate-const1": ["integrate", "--points", "kr/points.csv", "--f", "const1"],
    "isbn-valid": ["isbn", "0-521-39231-4"],
    "isbn-invalid": ["isbn", "0-521-39231-5"],
    "isbn-malformed": ["isbn", "12345"],
    "cmsweep": ["cmsweep", "--q", "13"],
    "factor-coeffs": ["factor", "--p", "3", "--coeffs", "1,0,0,0,0,1"],
    "factor-file": ["factor", "--poly-file", "f.txt"],
    "factor-no-input": ["factor", "--p", "2"],
    "inversive": ["inversive", "--q", "5", "--a", "1", "--b", "1", "--u0", "0"],
    "inversive-unit": ["inversive", "--q", "7", "--a", "3", "--b", "2", "--u0", "1",
                       "--n", "5", "--unit"],
    "inversive-audit": ["inversive-audit", "--qmax", "13"],
    "zaremba": ["zaremba", "--base", "2", "--mmax", "8", "--c", "3"],
    "zaremba-absent": ["zaremba", "--base", "2", "--mmax", "2", "--c", "1"],
    "reproduce": ["reproduce", "2"],
    "reproduce-unknown": ["reproduce", "99"],
}

MODES = {
    "plain": [],
    "json": ["--json"],
    "out": ["--out", "out"],
    "out-json": ["--out", "out", "--json"],
}

# manifests that recorded "threads": 1 before the option was removed
THREADLESS_PARAMS = {
    "inversive-audit": {"qmax": 13},
    "zaremba": {"base": 2, "mmax": 8, "c": 3},
    "zaremba-absent": {"base": 2, "mmax": 2, "c": 1},
}

GOLDEN = {
    "gen-lattice/plain": "506cd6ed707a23479a37749b74cd5811e35ce1e3b2c9e89165ae62352b243c29",
    "gen-lattice/json": "f192210fe92d6feaf244b2574c9035e51ac0a3e4672328d8fd89971788064ad9",
    "gen-lattice/out": "0bbab84290bbfff4443e7e4fdac2b6a617f326182727a1482feb922b03980f79",
    "gen-lattice/out-json": "99542a6aa5abe9157add247f2f13097784b05dd81782ccaa55f594b396b450f5",
    "gen-kronecker/plain": "70567b16adb08fc3767640711b2bc99faeaf8a1f6bb0b183c7e11e59e6eb2207",
    "gen-kronecker/json": "e1e7bab0e0ade100ec2ce9a65067fba14c97e8867db57f5c3729ebbd813ff4f1",
    "gen-kronecker/out": "a97d6f338f8289249a597231a4967aa8d2e566678bb5d1a6bb877ca1a988d858",
    "gen-kronecker/out-json": "538e7aabe93c35bf8be96eca91b1ba056d4333fd695c9a6497c4ebb42fbfd345",
    "gen-halton/plain": "f7b5e05eecbeb54c1610ccf956f104e41b4c580df55d09360e9f0bbb62aaf6c6",
    "gen-halton/json": "52fa9811c813c0a44318db9705c82147f8acf36bba403ff8427dd80a0f0f58a9",
    "gen-halton/out": "6ab9dcc4ae5fb3778f1846f7dae5227f49494abf544cf15f321aa026cae3d84e",
    "gen-halton/out-json": "a40ce03157b92a5134324020ca1e6b08091ed073d731c7df106fb11d86113922",
    "gen-halton-float/plain": "fc73322acfdbec198078382671accd43ad2c503c7906dce37a75dc104b05f80f",
    "gen-halton-float/json": "2ec62cdd02cad907f3a3cc085bcc12ec898381f91bc3afefaa6c18a0d096c68a",
    "gen-halton-float/out": "17c47a32d101cfebf60005da42d9356c4a207c90b3795633cd3bca924f3befec",
    "gen-halton-float/out-json": "61cbfec1006ada8f98720cf99b22e7f02dc26b397a4d420cb24faa7e22e6b6e6",
    "gen-niederreiter/plain": "6b0821f450ec7b9fb06e4389e0ca3bc8bcfd75aa64f4c6121f4989f1162b23b3",
    "gen-niederreiter/json": "cfc5f09694d1d5b2c94801f79b04fb773fdbb9e9d193cda6b35c16ec1a4c3b7e",
    "gen-niederreiter/out": "8ca03c2a76e736309780287deefd4fa608b35f2bde4aa3ea8767e98210475d61",
    "gen-niederreiter/out-json": "58e96d9c95bbe9fed70dec1b4f9ef734693ecff1d13dfe7b85da7510a3645f89",
    "gen-digital/plain": "7e316dca67d0769dd3384309886f86d8f03cfbc0a64f460c23d46435686ee07b",
    "gen-digital/json": "f8657c62f7cf576c5252813e424967d65e96daaa064f5d9a0c6081b875e0c4a8",
    "gen-digital/out": "5163c3fbd629b53649131a9728ff7e0e87978e2fc3d1eeaf8bd76a002eeb1f0e",
    "gen-digital/out-json": "99a374f1e04a8f1091a82e756949a06224d8158cc50f60633d6b64d289d135cd",
    "gen-digital-window/plain": "09d4c06605ac790527850dbd031edc383bc224f5019065fdde9366158fbada66",
    "gen-digital-window/json": "8571d8a4157bdcc8519cda585e2288a49f7f977a3f5564b7a6599fc8926682f4",
    "gen-digital-window/out": "10ccb2c9caf28e6feedc515886275548d6792c2fe1397209cc2e294130d5e1ba",
    "gen-digital-window/out-json": "630a12f10d2c596a9977956e05da019d98739224645a9c03cc2b65227b462edf",
    "gen-polylattice/plain": "f5c08f9159f133d65e9e6dbaab8016782ad3e232186ebc5d81b1f07e2c006d37",
    "gen-polylattice/json": "ed26384ea92a455eff6db220b9775e93c8682c7a41e445214d3f6db7ac6ac10c",
    "gen-polylattice/out": "09d00c955d7ef43802c79bc238df8c060df8d040eba1362b5bfbcbd3d58d9335",
    "gen-polylattice/out-json": "4232e2cd232a1ebb9171058a52a00d93d986e82bb7a7883ddcf78c0c742159fe",
    "gen-hybrid/plain": "e8ba9627955f853d727adccfac62e9e464ba6b697260318b88554c1ae6b5d9d1",
    "gen-hybrid/json": "9645b27337ed8c79b29a2e0978a9d59cf26225a702e88bc8c3c6d9c6c6020c2a",
    "gen-hybrid/out": "4ee94ccb01dbb5c4a4083295c39c8f2a8de9d7cfadf9886a445bb0dd7cf656b6",
    "gen-hybrid/out-json": "4ceeeceaf41e6d672ee2b47d3e954a10b561a3938f3f087b7fd60f9c2bd3f1a1",
    "verify-net/plain": "ba25766ed90461ae7084e40c0f9535d25b53835eda4d563ec957e6821014d8a4",
    "verify-net/json": "c932b726ec8b42ec7ef2e8b7dcf45f02bdee1f7df1aadd7a882ae2ceb744e13b",
    "verify-net/out": "1051a1c559ed0337347e82f441752e074e2af72709b643ac4e68dc8e3b5736ef",
    "verify-net/out-json": "19274e38d87bc6a59bb0e6d0219b009b18af3a3864000a650c436a68e1dec9dc",
    "verify-lattice/plain": "a4360fbfd442447bb1dd70faafcbd7cbed86f3258131b1c76f283f12bedf6bf4",
    "verify-lattice/json": "11ba92cd910ef58434eff7b6ac276aa2cc15c40ea05ee1d31db61a3fba678a9c",
    "verify-lattice/out": "ddb3c0163f8e9fc2b861ec930da9335888a8d984c33d0f645e7f0da15376c8eb",
    "verify-lattice/out-json": "e8d706fd6efb204c1c8c39e5e3fdbb2f4a174ddfa3ebc97b46ef34f8837647c9",
    "verify-sidecar/plain": "a4360fbfd442447bb1dd70faafcbd7cbed86f3258131b1c76f283f12bedf6bf4",
    "verify-sidecar/json": "11ba92cd910ef58434eff7b6ac276aa2cc15c40ea05ee1d31db61a3fba678a9c",
    "verify-sidecar/out": "750d7ab0b57606232dd06901ff8b1675256b74cb482008e85714c600941d3594",
    "verify-sidecar/out-json": "bd0cddd9a0120f5474bf438be8298cd727b78e3689b0d523cfd71cabb7fb885b",
    "verify-mismatch/plain": "4ab8a164593e9e0b6a7a108fff8888320893cf2ae47365967c0d53856b92ac70",
    "verify-mismatch/json": "4ab8a164593e9e0b6a7a108fff8888320893cf2ae47365967c0d53856b92ac70",
    "verify-mismatch/out": "4ab8a164593e9e0b6a7a108fff8888320893cf2ae47365967c0d53856b92ac70",
    "verify-mismatch/out-json": "4ab8a164593e9e0b6a7a108fff8888320893cf2ae47365967c0d53856b92ac70",
    "discrepancy-exact/plain": "e301ba7804eb38ad387c30143bb553c4ff15ea2487919251d32830f0b2865d12",
    "discrepancy-exact/json": "fc7102c43c6d0109027b2a260d77e6b4b5e2c7689fa3eb4c230dc14120353409",
    "discrepancy-exact/out": "5b9d5a6f3af7f096789aab45c16e3091ae8a94da4a5672ea7d766461220014e6",
    "discrepancy-exact/out-json": "657b1aa65132ab11ca8ddae789b0b03865b82cf5732005040eb233d8fb4a6c8c",
    "discrepancy-float/plain": "6a344034a8ad7a4917474ebb992330205cc361b8a8a4df2af806e8669d25a57f",
    "discrepancy-float/json": "a627b73192acf75a7598a543191f1ba205b01db2493aa5f8504eea9958c01b60",
    "discrepancy-float/out": "50602f8939a14210d14509e1feafdfb811c9d66790e58b4ae05c0b8ba8b611a5",
    "discrepancy-float/out-json": "a95a502e8e2cfd178a7b5bb0c57081bb044f196ac0963fd543a509aa45980d9c",
    "discrepancy-budget/plain": "8e35624144096a4fa67d9f624ae4c5c070aa31ed12ac8ec6d9c01c4449aa58a7",
    "discrepancy-budget/json": "8e35624144096a4fa67d9f624ae4c5c070aa31ed12ac8ec6d9c01c4449aa58a7",
    "discrepancy-budget/out": "8e35624144096a4fa67d9f624ae4c5c070aa31ed12ac8ec6d9c01c4449aa58a7",
    "discrepancy-budget/out-json": "8e35624144096a4fa67d9f624ae4c5c070aa31ed12ac8ec6d9c01c4449aa58a7",
    "p2/plain": "fb83ef52bfe322b9cf1112a22f781eeef0a9cf608d3303e4e56d14d152f6a586",
    "p2/json": "d2d49cc59a09a7bba6cf4e2566b665e97ef3d60e2d3198ec2b39963d96260e18",
    "p2/out": "1b2bd5c8cd535bcdbbfa63e28770692522b5ab3ec83d5d472aab248f1d5d1f0e",
    "p2/out-json": "83e5207ee84f51f4f476d65470a86be3c8dc266323f4ec5ef1892708b7d32bbc",
    "integrate-prod2x/plain": "6d8046414b64226eaa3ff68f5b5e2d01dac694e6de3722ee35473ec3bc95e400",
    "integrate-prod2x/json": "8b5f37b2c89ebfde84f35fc50bddba773d18db388aa56bd0a1d6fe50554b0f08",
    "integrate-prod2x/out": "e7a15b97be79baa2660257753637bee94d2ea29f4cf0c644dc1696133f7ffc91",
    "integrate-prod2x/out-json": "2750c1b8b5631bba5a1b26510b3011beaa19005a6d985c0a8231c0d0762faee4",
    "integrate-box/plain": "82b2145ef080024e2e610278c2b233a1744a8b467635abcb3420931fd29a9279",
    "integrate-box/json": "9fb0bbdb088d19069112e5645a3f5f83835511927d4bd161df3cbc596ca9de60",
    "integrate-box/out": "48afda70489f5432b1445115ce76ac1e4dfb87cc7714c25b62aedf7252f605f2",
    "integrate-box/out-json": "2677247ebf14d946b982916697e929d39218c81558c5fc120fef7c715a8ff38c",
    "integrate-const1/plain": "9e4030a9a7fb695121d73280ec286e4cea35fdb15c9fcd824a579da4849c9906",
    "integrate-const1/json": "11a825a4cbaf6993550b83c1e96b60eb8f3110b5fe0337dc0202ce07285acba7",
    "integrate-const1/out": "241fc07801285971c0399d123db4e9df9fad92eb79955416d0c4530ed607efb2",
    "integrate-const1/out-json": "111194f1fefb57575fc4baebfbd2b83a25c7a290dc828e510b78e85d711490a2",
    "isbn-valid/plain": "196a421469417b362a8e341a79bd1b403c966e65e75009357ad09fc7cf9558c3",
    "isbn-valid/json": "d362b9037fda36727541882e75c46b3b39f655e89214730c4a28cd81a794efae",
    "isbn-valid/out": "3fde17afd4784964f343509655e23d3d682a091cf29d19d4b6bd3b3896c30bf1",
    "isbn-valid/out-json": "0669a22df67c6133724ba7c0c4fe3e046e2c5efc74e03cd14b7694a494a8dc97",
    "isbn-invalid/plain": "bf6bd8234b56d199a700e880b5918553d0af03860398d105e6d8cbf9a2e7ecec",
    "isbn-invalid/json": "0e6b9247d022c6f8cba2a19db175ae41af604e49df354cf894fdf40838bb06d4",
    "isbn-invalid/out": "357c90e8b158a982722820a4437d4c40c00855c1127b9a8b0a49229c5b5350a6",
    "isbn-invalid/out-json": "22aade89602024d15a1385bb130381e235b433bfad18addfbc87d63b5b0208d2",
    "isbn-malformed/plain": "ff443ce76ef11c6ba6eee8a5fd84a535e2450d706d5db6bbc2e1a4651b11f9b5",
    "isbn-malformed/json": "ff443ce76ef11c6ba6eee8a5fd84a535e2450d706d5db6bbc2e1a4651b11f9b5",
    "isbn-malformed/out": "ff443ce76ef11c6ba6eee8a5fd84a535e2450d706d5db6bbc2e1a4651b11f9b5",
    "isbn-malformed/out-json": "ff443ce76ef11c6ba6eee8a5fd84a535e2450d706d5db6bbc2e1a4651b11f9b5",
    "cmsweep/plain": "8d218e03c29f14c07ffb7e9dfa62dbdd9ae7858bc2ee2245740450163f27547a",
    "cmsweep/json": "237e41c80094928530b67b24fec814186197302d06d207d73abd8dff43258858",
    "cmsweep/out": "f80c05155aafd0316afb37585e2c9153addb0d4e040f5c175fb94f575181e494",
    "cmsweep/out-json": "5328a38773f4ae7053dd0ee075bda68ba25a689d1879a83d3a9f041889aad625",
    "factor-coeffs/plain": "53c35c62289b3176968e2e90e8ffad289d0b878655e2a8287cf744e75e89a473",
    "factor-coeffs/json": "8979a4b426a327f18aac9c9b22879682fe687b388340d0b81d95881a22ffab77",
    "factor-coeffs/out": "451a6b7caa836b36d1eba6bd71673526aaa62e9098e96bbf0f710d351f0ea25e",
    "factor-coeffs/out-json": "868b8f0ae612b9292bfdd7955675a87a6d45d9c42152b8c831dcf46f4422b832",
    "factor-file/plain": "dad548240ef0c98346638c5d7ab8812cb45d98e56a93cc03167a1723fb7ff47b",
    "factor-file/json": "ad329b832f6c5e98ffa7d7e770013d4e2a345ba233507af2f2a7312ee3020195",
    "factor-file/out": "a1f47691fbe38a3a02f4beb49c14fcbb2b8329dc5dd72703c7b809d244cef018",
    "factor-file/out-json": "3bb7e9820f729b95722c020a1f7b6a80d7503f8e38c52fbf688e60db57d45f4a",
    "factor-no-input/plain": "e174c5679d6127310ba470286a413f2b366a59cd83a2a0874787bd13f6fa46a6",
    "factor-no-input/json": "e174c5679d6127310ba470286a413f2b366a59cd83a2a0874787bd13f6fa46a6",
    "factor-no-input/out": "e174c5679d6127310ba470286a413f2b366a59cd83a2a0874787bd13f6fa46a6",
    "factor-no-input/out-json": "e174c5679d6127310ba470286a413f2b366a59cd83a2a0874787bd13f6fa46a6",
    "inversive/plain": "be3d41998c43e4fbd6903c797d92abf438b5caef77376e947c66fc217603b879",
    "inversive/json": "e740f792fc75ba7d599bdb7e656647949358bdfe40190612ad057b977eefa1ea",
    "inversive/out": "0b0ef6a9dc6d4786002a211e34d3dcc0088e2e2a0a07bf4611b4bb116f4a271a",
    "inversive/out-json": "f1e03596dc84e054a069dc5c1ed44f9ee797746302801c106aea07c6892237ab",
    "inversive-unit/plain": "c6147508778633a1943c7d41a43fb539d1ee4092ad0c77547fbaa7a6fada82d9",
    "inversive-unit/json": "9f02db8324185022d1ebba38832f7c9c9456b10feca63cf87f5a00850019e97f",
    "inversive-unit/out": "c7d2ef4e41c6daa770582cd77b002fb72ec0a5079fab63c265e0547194fe6ba4",
    "inversive-unit/out-json": "ba8f4772aa361110e0df2d31301f0deaa9d3b7d0963a09ee91cb419a52d5934c",
    "inversive-audit/plain": "dcab05426e91d31a56e9213fb006a077da26aa2d71cab758448928154d667e59",
    "inversive-audit/json": "65e1a4926002c23d060378474c8f690afcb39aad2833b26d53c900833c031b78",
    "inversive-audit/out": "d25022833347d14aae58c28fd585eb5a7d8bc3a6215c3323fd2a4f2b51eca095",
    "inversive-audit/out-json": "3f7db75c3a3a6e68aef2221ad5247b4b5bdb80c1f29be39ab2b8b24e0699cbd7",
    "zaremba/plain": "31447b5d8af9d2651392edb63818a730dcf475e2f232f19b9efc56cf696cf2d5",
    "zaremba/json": "c1ceffb3ac9a964f753d65b35459875c9a03c6dbc901ba164ae0290726c0004d",
    "zaremba/out": "c535a5e26aeda8945aaf4711aa7d7f57d775b3240dbce1d063055b019ab5c1e3",
    "zaremba/out-json": "93ea4e7a77a204468c7bd38a8a98ce89a858ab0924e0f182388ec30cb0bc2184",
    "zaremba-absent/plain": "3e3f71fa439f881b03a82f162c473f81b6207c67315be4a5ab7c2bce37bd6845",
    "zaremba-absent/json": "05b424c6783d9403e4fe3693b5298f32bf446920c13be48a015f6f52991d0e7f",
    "zaremba-absent/out": "c2567e7b844414ded8c2a6aa5eab19c7679fd799fa2016a2b4a5218ec319ceec",
    "zaremba-absent/out-json": "68ef75fbed3340f9f62d044d653981616cc20bb6c00679fcc254427e3b4b798d",
    "reproduce/plain": "2569494a7edf72728f38a57ccadd3050dff7382e80d37a39efc82fd4a10f330c",
    "reproduce/json": "8ad4d9d9782af69061d373fd5f36129a49d2149818f6cf41cfe295cc8d7744b6",
    "reproduce-unknown/plain": "c406f964ebc00db732e2d7bfa20b4c543d044846a6fd0c24c5330350a74dac95",
    "reproduce-unknown/json": "c406f964ebc00db732e2d7bfa20b4c543d044846a6fd0c24c5330350a74dac95",
}


def make_inputs(root):
    for name, text in INPUTS.items():
        with open(os.path.join(root, name), "w") as fh:
            fh.write(text)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in SETUP:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    finally:
        os.chdir(cwd)


def run_case(case, mode):
    """Run one case in the current directory; returns (code, stdout, files)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(CASES[case] + MODES[mode])
    out = stdout.getvalue()
    if case.startswith("reproduce"):
        out = re.sub(r"\(\d+\.\d+s /", "(s /", out)
        out = re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": 0', out)
    files = {}
    if os.path.isdir("out"):
        for name in sorted(os.listdir("out")):
            with open(os.path.join("out", name), "rb") as fh:
                files[name] = fh.read()
    return code, out, files


def digest(code, out, files):
    h = hashlib.sha256(f"{code}\n{out}".encode())
    for name, content in files.items():
        h.update(f"\0{name}\0".encode())
        h.update(content)
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make_inputs(str(root))
    return root


@pytest.mark.parametrize(
    "case,mode",
    [
        (case, mode)
        for case in CASES
        for mode in MODES
        if not (case.startswith("reproduce") and mode.startswith("out"))
    ],
)
def test_cli_output_matches_golden(case, mode, inputs, tmp_path, monkeypatch):
    work = tmp_path / "work"
    shutil.copytree(inputs, work)
    monkeypatch.chdir(work)
    code, out, files = run_case(case, mode)
    if case in THREADLESS_PARAMS and "manifest.json" in files:
        text = files["manifest.json"].decode()
        manifest = json.loads(text)
        assert manifest["params"] == THREADLESS_PARAMS[case]
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        manifest["params"]["threads"] = 1
        files["manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    assert digest(code, out, files) == GOLDEN[f"{case}/{mode}"]
