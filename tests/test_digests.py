"""Canonical-output gate: SHA-256 digests of canonical bases and operators.

The digests were recorded before the product and projection kernels became
fraction-free; any change to exact arithmetic that alters a canonical basis
or an operator entry shows here, item by item.
"""

import hashlib

import pytest

from cayley import cayley_spec, group_spec, symmetric_group
from conftest import selection
from ncjet.calculus import quaternion_calculus, universal_calculus
from ncjet.fixtures import functions_on_points
from ncjet.jets import jet_module, spencer_operator
from ncjet.linalg import rat_str
from ncjet.specio import parse_calculus_spec


def mat_text(m):
    """Canonical text of a matrix: its shape, then each row's sorted nonzeros."""
    rows = (",".join("%d=%s" % (c, rat_str(x)) for c, x in sorted(r.items())) for r in m.nz)
    return "%dx%d:" % (m.rows, m.cols) + ";".join(rows)


def canonical_items(calc, base):
    """Relation spaces, differentials, step projections and sections, Spencer operators for n <= 2."""
    items = {"relations": calc.relation_space.basis,
             "tensor 1,1 proj": calc.tensor_pq(1, 1).proj}
    for k, dk in enumerate(calc.d):
        items["d %d" % k] = dk
    for n in sorted(calc.steps):
        items["step_proj %d" % n] = calc.steps[n].proj
        items["step_sec %d" % n] = selection(calc.steps[n])
    for n in (1, 2):
        jet = jet_module(calc, base, n)
        for m in range(calc.max_degree):
            items["spencer %d,%d" % (n, m)] = spencer_operator(calc, jet, m)
    return {k: hashlib.sha256(mat_text(v).encode()).hexdigest() for k, v in items.items()}


DIGESTS = {
    'quaternion': {
        'relations': '7c8ded694b2edac9d51cb28241db58c8dc2aefcd396974aadcef2383b28547b3',
        'tensor 1,1 proj': '48dd542569955aa9dbca0b15cacdf2beaca2edebee16527d4f73cbf794262f5c',
        'd 0': 'f3017f3468de55871560baa5b325369af7f1f2e618968b02e744e6d1c01ce032',
        'd 1': '2c7816d8c400b02c62e8537ad6765b9aa458fe03b641086fd693e987f95197bf',
        'd 2': 'a791758231087be8db18cd26fe5c9bf272dd4b67bbf2da2cb1e8c322eff2c9e8',
        'step_proj 2': 'eee3f5a886d3a70c1497b59d473284c25f8955905083be3aa4b1b038bb4a1901',
        'step_sec 2': 'afa2dfa5c95d2da2889db7df7158c103033420054426d8a8a9382ff496f9d827',
        'step_proj 3': '7b2c71cf8b3eb29bcca7b5845832a92add02f5df59655ec52ce09acd78971fa9',
        'step_sec 3': '95280e4b37a93bc43f620512b1247174588c833fc4da89b7df38d6df5be0dda7',
        'spencer 1,0': '9ce89bd6a79dd54eedd93fb144e084aa314d4d242824440e80c7a622ae344c7c',
        'spencer 1,1': '1dfba8265236b282a7d17bd954d60a6b21acad36b66312fc70e4d887ab2d7858',
        'spencer 1,2': '15b6b38c40897b1e6a4d8ea41da0cf3f9224a3461caaba814834c565e5c451ef',
        'spencer 2,0': 'cb566260e5b065cef02ccb68e32db5a532e2069cd8283cc98f2dad152f225105',
        'spencer 2,1': 'fb1e336bfa7abf8050a8860c8adddec31c4c5ae1ccf11d7c618fe09e14612d0a',
        'spencer 2,2': 'd4afe05d59760325c2bf952de329135a4c9f4f7091c600bffd87a41facb2f528',
    },
    'two-point-universal': {
        'relations': 'bca14c461463ef2ee201228c01b33ffc26308034140257598738f87c86a6aebd',
        'tensor 1,1 proj': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'd 0': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'd 1': '26963a32d28a85f8ecf1bd674e88e8049001b1a98c14ceea7d9707be31a7429b',
        'd 2': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'step_proj 2': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'step_sec 2': '83c61c2f0ca27fb2039706a1d3c9c326f225e4edc1ba07142713561d59a8fdd2',
        'step_proj 3': '82ddd8459fb63e6f65867afc1f4aae2ab16428a69f1de3c1a196e65507f93fa9',
        'step_sec 3': 'e75dab2652bda16d7f4adf612b66789d78a85fe726720c3cb40909e260e81a6e',
        'spencer 1,0': '349e8b22860c9313bdaa1e65b6a3c7ced2b469ad0b411a7404dbb42137a0122c',
        'spencer 1,1': '11ff1f52a83788f4898bcd5b526859a3ce7397820ab2c21075a79e8358bc5e6d',
        'spencer 1,2': '56729fda65b7df6b58ed04bd6e2bd391d5685b5a8e977c823a1db38e2a08a36a',
        'spencer 2,0': 'd674671f1f456c99f552c4442c707ab93ff61b332d998a393e2451640b826986',
        'spencer 2,1': 'e16efed7bf5f5decee0ae36ee3a4e4feadca46de7d921503a5471eabac767ca8',
        'spencer 2,2': 'fab815e2ec7fcb407c34948d3dc608714469e6f2315a12e57876cf9cf2778365',
    },
    'sheared-quaternion': {
        'relations': '6dcf27c634b015319629432279ee20f7d2cdc492fd2f410427b422f194de3110',
        'tensor 1,1 proj': '8aff5e15cdaf850d6cb296ed236c663a32af523e6dfbf71da265e288f5b81426',
        'd 0': 'af50eae0f2feb401d8726bf97983a55392300ea6c1e02e858084d3a0e67843b7',
        'd 1': '01da6ea0dcdc4a5cb6b1b94282a91458d3d5e9fdde96a71ac1c72cb6097be922',
        'd 2': '1869da096d9e0ca8e7cede1d26d5ddef39c677632a62ca4f5a0560967ad1d262',
        'step_proj 2': '931188910a08bf4c9519ee48d94cceb0f80a83523f7b2f046f53e8a1e56db40e',
        'step_sec 2': 'afa2dfa5c95d2da2889db7df7158c103033420054426d8a8a9382ff496f9d827',
        'step_proj 3': 'f4be2fa121006d4f6c4613987770736171a475b54730ec3d3d6cff7b49f1ae5d',
        'step_sec 3': '95280e4b37a93bc43f620512b1247174588c833fc4da89b7df38d6df5be0dda7',
        'spencer 1,0': '9ce89bd6a79dd54eedd93fb144e084aa314d4d242824440e80c7a622ae344c7c',
        'spencer 1,1': '92895631bfaa707e7860fa7d6e2c3c2b8967b2677b0901cb7b6bb44183469ca0',
        'spencer 1,2': '495a36682508d4f3d8ee47fb5a51f70925a1f64f8ba2770b2703b70241d17a51',
        'spencer 2,0': 'eab296f87cabaa2e101b61a7fac8c68d295006c281b58f2a17c8130bb2d2fcda',
        'spencer 2,1': '8621a4ee43c51a98a502888ae04ae160fc5dbf6173005df83e33410be6514e1f',
        'spencer 2,2': '6111c92d9a02661c16ec52b31f5e63cd9d0bef73770023479dc6439099a29794',
    },
}


@pytest.fixture(scope="module")
def calculi(quat, two_point, sheared_quat_doc):
    sheared = parse_calculus_spec(sheared_quat_doc)
    return {"quaternion": (quat, quat.base_module()),
            "two-point-universal": (two_point, two_point.base_module()),
            "sheared-quaternion": (sheared, sheared.base_module())}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_canonical_digests_are_unchanged(calculi, name):
    calc, base = calculi[name]
    assert canonical_items(calc, base) == DIGESTS[name]


def tower_items(calc):
    """Every differential, step projection and step section of a tower."""
    items = {"d %d" % k: dk for k, dk in enumerate(calc.d)}
    for n in sorted(calc.steps):
        items["step_proj %d" % n] = calc.steps[n].proj
        items["step_sec %d" % n] = selection(calc.steps[n])
    return {k: hashlib.sha256(mat_text(v).encode()).hexdigest() for k, v in items.items()}


TOWERS = {
    "S3 to 5": lambda: parse_calculus_spec(group_spec(*symmetric_group(3), max_degree=5)),
    "Z/4 {1, 3} to 5": lambda: parse_calculus_spec(cayley_spec(4, [1, 3], 5)),
    "quaternion to 8": lambda: quaternion_calculus(8),
    "two-point universal to 10": lambda: universal_calculus(functions_on_points(2), 10),
}

# Recorded before the higher differentials and relations were built by the graded
# Leibniz builder the Spencer operators use: they pin the relations for n >= 4 and
# d_k for k >= 3, which the degree-3 digests above leave open.
TOWER_DIGESTS = {
    'S3 to 5': {
        'd 0': '535f0476c28a4924be8c0d6f15b5c6fcc850587c97708825edcae41e87a43126',
        'd 1': '8dfb57325a97ac3e0b95b60e939cc74f33b67a95c342555362cb092fbcff4242',
        'd 2': 'dfe354bdc3ef73584294c1bc3a019a16fed8b2d0e38d1049bb3f88a4efccddd8',
        'd 3': 'dd7a33deef662343410a61229a251b5ef1fc664c01fa6261ab9c24a5314e9a74',
        'd 4': 'e33bd4ded33178419badc4be7b7f1010052cea48c4b153ac1e20203469cde42d',
        'step_proj 2': '452a0321da5a567490f1bd18339dfdb98eef548139f47627df5dfcb915bb131f',
        'step_sec 2': '2b9b84218e0537cce62826c2287fc3371e7982e3041ed50b49cc53b0f5d2034c',
        'step_proj 3': '97bc4bb45116c9ad1e464d113ea0958175d7e89fda14274d16e3371f2c24ae96',
        'step_sec 3': 'aa039012c117ec0769ed4cdc64aa2f33c88660c193d0eeb60b898fea644d1204',
        'step_proj 4': '8243ca0cc4ea52a95924ca14deca40e7ba22d6e3fdb2192abccac46d5502b68e',
        'step_sec 4': 'cb4fdf810baf68fe4c8bd18cfe7da4e6c0de21a748592d5dc7f4da1cb0b29a13',
        'step_proj 5': 'f868b3e7fef228ef388271b5a163a0242cc8056e4dc404ba26732350b7931ff1',
        'step_sec 5': '9f0212c90936e488785d82ce7acecc83d43638eb082a05e32674daf098a08f8c',
    },
    'Z/4 {1, 3} to 5': {
        'd 0': '0b6f7d4c70876ca30ac26a618b8ceac08602c16fbae118a1d2cc6bcb062cdfcb',
        'd 1': '411b8d80ed3d0092d6016b1e9d5099af8c120329422b5473cec41b55640f9333',
        'd 2': 'c56e5b45f8d726c8b40ed6dc806f9784a60d69f250a5205ffade41a44e0aeb8b',
        'd 3': '21d623ab3dffcd10da8f29383acec258ca961dc26cf700a8c9c848c7f75bf25a',
        'd 4': '33dc22df03957cc989c85a50e0daa409b05320ae715d24077c66deaf32705cf1',
        'step_proj 2': '358e57cbdcbf990d99ae2cfc3147b6016bf3995d7f7cb5f59321be46b14b9241',
        'step_sec 2': 'c65deae819d82ded335d32c07217b17b24d6e6bb5fc9fc00ac9037d66599ddc6',
        'step_proj 3': '7c42b2aa4e20c8b7e2464d131f62e7a946b8c40665bb8328fde1d3b97c2c5080',
        'step_sec 3': 'a0ffdd4ce371eb89a31b324a868c63537d75866c177d207c1119ecd7efe890eb',
        'step_proj 4': '8065158497ea7a23626b97b80088b40897da2fe0e6c683a1b8fea6517f0640f0',
        'step_sec 4': '70d41ceb5dd4906c8cd20e7ee331487ead24613df95a5f2e6c130c17021ee9d0',
        'step_proj 5': '1cf2f94fc3a2c2d32f606475e08733006402dbf17b77d9b46030944b9e0bdffe',
        'step_sec 5': '4f0e0adb8252efe04e7d541cf68c2819a7e64cff692500ea3de8e0dba81546b9',
    },
    'quaternion to 8': {
        'd 0': 'f3017f3468de55871560baa5b325369af7f1f2e618968b02e744e6d1c01ce032',
        'd 1': '2c7816d8c400b02c62e8537ad6765b9aa458fe03b641086fd693e987f95197bf',
        'd 2': 'a791758231087be8db18cd26fe5c9bf272dd4b67bbf2da2cb1e8c322eff2c9e8',
        'd 3': '88464a9f1edaab4d20fd09226d802277cd0970d8505f4037097d2116fab89169',
        'd 4': '709c86f6797d5cb17ba7bd69304b537911f5c3bab8a45a6d770f72d6097174ad',
        'd 5': '71faef03367534f19d31558dec6cfdb61ae8749abd77efac7cfad248353b1a21',
        'd 6': 'bed0c6027d46ce233c1bdfef1dd8fd1acfc068bb25181e44329e5760b378666c',
        'd 7': '9a2e4850965c95549bd45a872f0670c6f9c98d5e0f987b66a9cc2473544ccf34',
        'step_proj 2': 'eee3f5a886d3a70c1497b59d473284c25f8955905083be3aa4b1b038bb4a1901',
        'step_sec 2': 'afa2dfa5c95d2da2889db7df7158c103033420054426d8a8a9382ff496f9d827',
        'step_proj 3': '7b2c71cf8b3eb29bcca7b5845832a92add02f5df59655ec52ce09acd78971fa9',
        'step_sec 3': '95280e4b37a93bc43f620512b1247174588c833fc4da89b7df38d6df5be0dda7',
        'step_proj 4': 'ebb60f789f1323a704ca55708f99c07f9ceea0ce2cc20184b306e25146b4f6a4',
        'step_sec 4': 'a0ffbec398e7acd341864850cc9a46c860073aa4f696fdf6b24171270cfb10dd',
        'step_proj 5': '70b961e84a7073a52c703ea96b876ffb7bdfa039bb2a7032bf3a9cb99b19d1f9',
        'step_sec 5': '3c543a58c363b37a879af56851b939a180173a8cf1b3d3e8efac739f541a37fa',
        'step_proj 6': 'df280f130018ef9aa3f681985737bfa5afb1bcb7151801bbb6d822288bbd4ce4',
        'step_sec 6': '33a0195fccbec866826a04f979989d561aba987b22b7b40533d641d2e0aa553c',
        'step_proj 7': '770a3a17334449c5df204343b3e4298b2badb2be7afe01763c2c0baa14732ba4',
        'step_sec 7': '6b510983a7a5de6334a93b411fd9a3ecea22cfaed2d37590963dca6bbd3db72a',
        'step_proj 8': 'e8ac4b92929b7063c53ad860248b38252a9ee314f5e6cbb33815b9cf48f16ca3',
        'step_sec 8': '7d5aaf3235526e03986a2264d36c64c1aff3af1d39377a2c507cfc6c45e79f2f',
    },
    'two-point universal to 10': {
        'd 0': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'd 1': '26963a32d28a85f8ecf1bd674e88e8049001b1a98c14ceea7d9707be31a7429b',
        'd 2': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'd 3': '26963a32d28a85f8ecf1bd674e88e8049001b1a98c14ceea7d9707be31a7429b',
        'd 4': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'd 5': '26963a32d28a85f8ecf1bd674e88e8049001b1a98c14ceea7d9707be31a7429b',
        'd 6': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'd 7': '26963a32d28a85f8ecf1bd674e88e8049001b1a98c14ceea7d9707be31a7429b',
        'd 8': '4c484fa071ab5336a80a7015282a1e59774e1738d2a3a4bb30d83f0448996ddf',
        'd 9': '26963a32d28a85f8ecf1bd674e88e8049001b1a98c14ceea7d9707be31a7429b',
        'step_proj 2': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'step_sec 2': '83c61c2f0ca27fb2039706a1d3c9c326f225e4edc1ba07142713561d59a8fdd2',
        'step_proj 3': '82ddd8459fb63e6f65867afc1f4aae2ab16428a69f1de3c1a196e65507f93fa9',
        'step_sec 3': 'e75dab2652bda16d7f4adf612b66789d78a85fe726720c3cb40909e260e81a6e',
        'step_proj 4': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'step_sec 4': '83c61c2f0ca27fb2039706a1d3c9c326f225e4edc1ba07142713561d59a8fdd2',
        'step_proj 5': '82ddd8459fb63e6f65867afc1f4aae2ab16428a69f1de3c1a196e65507f93fa9',
        'step_sec 5': 'e75dab2652bda16d7f4adf612b66789d78a85fe726720c3cb40909e260e81a6e',
        'step_proj 6': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'step_sec 6': '83c61c2f0ca27fb2039706a1d3c9c326f225e4edc1ba07142713561d59a8fdd2',
        'step_proj 7': '82ddd8459fb63e6f65867afc1f4aae2ab16428a69f1de3c1a196e65507f93fa9',
        'step_sec 7': 'e75dab2652bda16d7f4adf612b66789d78a85fe726720c3cb40909e260e81a6e',
        'step_proj 8': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'step_sec 8': '83c61c2f0ca27fb2039706a1d3c9c326f225e4edc1ba07142713561d59a8fdd2',
        'step_proj 9': '82ddd8459fb63e6f65867afc1f4aae2ab16428a69f1de3c1a196e65507f93fa9',
        'step_sec 9': 'e75dab2652bda16d7f4adf612b66789d78a85fe726720c3cb40909e260e81a6e',
        'step_proj 10': 'f3c9ddcb80b22ee0581b7afe88233ff80207064a42796623fb214d75b1653d91',
        'step_sec 10': '83c61c2f0ca27fb2039706a1d3c9c326f225e4edc1ba07142713561d59a8fdd2',
    },
}


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_high_tower_digests_are_unchanged(name):
    assert tower_items(TOWERS[name]()) == TOWER_DIGESTS[name]
