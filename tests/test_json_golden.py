"""starter_to_json is byte-stable: sha256 digests recorded before the
direct pair writer replaced json.dumps(starter_to_dict(s), indent=2).

DIGESTS covers every recipe and parameter set the test suite builds,
Z_173377 included, plus the pq_cyclotomic 2inv, pq (11, 43) and
(11, 59), cyclotomic k = 4 and 5, horton 2inv and prime_power_cyclotomic
n = 1 2inv sets, recorded before the recipes moved onto one family
assembler, and six more pq, prime_power and prime_power_cyclotomic
sets recorded before the recipes moved onto the two family cores.
GRID_DIGEST pins the bytes or the refusal type of about 3 700 recipe
calls, refused ones included; the CLI tests check that construct --json,
construct --out and verify --json write exactly that text plus a
newline.
"""

import hashlib
import json

import pytest

import skolem_starters
from skolem_starters.cli import main
from skolem_starters.starters import classify, Starter, starter_to_dict, starter_to_json
from oracles import trial_division_prime
from test_starters import Z19_PAIRS

# (recipe, arguments) -> sha256 of starter_to_json(recipe(*arguments)).
DIGESTS = {
    ('qr_starter', (11, 2)): '16ab32c0f540ea59474157ee2d0e42155539adcaa447297ab6dcc5725ebd4822',
    ('qr_starter', (11, '2inv')): 'cdd89964c99634deb75cad6bd5bfd90bc51e3b9a406b8133b186b7b584bdafa0',
    ('qr_starter', (19, 2)): 'c7784ca7c05ca56299cbdb98f44e1fc8bae6c0e158f85151486726c47d0c6fa4',
    ('qr_starter', (19, '2inv')): '93e630064c97bae29e3af41e6a7b6089a64b05465f1763287cfb75476646581b',
    ('qr_starter', (43, 2)): '071af83d5004d9b9ee303532346c21ec6e58f5e3adfd8b579da7efb74177f077',
    ('qr_starter', (43, '2inv')): 'afdb5f8e1e59f9cf7b1e0113d9ecc1eb13b0e5d2a30aeefaf9d280489772afb9',
    ('qr_starter', (59, 2)): '01e06715b06700e6679f501d5a9314a50a050b20803b3c32feb6c7c928bc0d1f',
    ('qr_starter', (59, '2inv')): 'b8ee3e4f5be63cae30d3010922fad37b2e752f408913b44326014f2f0030c199',
    ('qr_starter', (67, 2)): 'c2ddafc6b1cebaf86432e6b7dbdf7c1a0653f4828811e75b34f99ab2375fe5cb',
    ('qr_starter', (67, '2inv')): 'fbd6ccfcb8c59711c96c8962a9fa6f720f20ecbe912bf98b4b97c15b88e29f76',
    ('qr_starter', (83, 2)): '79d431611c46688522915b5a46566a7b1aed8472ac699cb545590022f85efab6',
    ('qr_starter', (83, '2inv')): '32010c651702d5722f7599f91e6d326f5a3e98465c46b25a13d47917254fb9cb',
    ('qr_starter', (107, 2)): '2ac6851012f93c5e1b2a02a60b1c5cbea929db680f011db52929c303f8228408',
    ('qr_starter', (107, '2inv')): '30d482d8002882bddd8b9da82e4f126de389ef33566517a6b8f1f54ebad56f99',
    ('qr_starter', (131, 2)): '079c722c379128be30dfca9488c6f30ad351f177ac586dd11de0b0e008d24902',
    ('qr_starter', (131, '2inv')): '9e30d78eb72558d759d20197205f8bd8e33e045a0dd03892fc246afe6d7cf41f',
    ('qr_starter', (139, 2)): '7c3b03e2bc581f89988167b6ab2ce824b9b20ed857b4ccec16b0aba6d16227c9',
    ('qr_starter', (139, '2inv')): 'e47da07698e2ac2d2141692fc73222109131077811ce75f9d2e665d054711ae6',
    ('qr_starter', (163, 2)): '12e4e31ebe71545d0ebc11ca497020f97d11fbd294d15bab806f62411f0c4140',
    ('qr_starter', (163, '2inv')): '1ead26543f437fdffdb7662cef5ce78aee4c1b3fb59373ce5723c03ccf8f88e5',
    ('qr_starter', (179, 2)): '121e421169c98900ac53fa82aa15829001c063315450e617a80dc04de870e4b5',
    ('qr_starter', (179, '2inv')): '42448373ed61fb3aa00b55bec7c7a7be81b51e39777af4e007681323b3574a7a',
    ('qr_starter', (211, 2)): 'acdd1b0cf286fee082dca164e132cc3f467f1db66caf5273793bef69caa06b99',
    ('qr_starter', (211, '2inv')): 'ab8811291b795cce2f4844945b0f8511acc4e11b2a6589b8423c089a80d3e1b3',
    ('qr_starter', (227, 2)): '93a02b0fe1bf5e2845db563cb4786837b74baeecb0e659b3c497e3fb15ddd272',
    ('qr_starter', (227, '2inv')): '755382a16831c3061d0a975753c443ebddd1798fb65d0495dadf6c415b5a88b1',
    ('qr_starter', (251, 2)): '3308a1d32c1f099cb313b8462b407bde07e376ddf448d1938a1111d73e0f3e1f',
    ('qr_starter', (251, '2inv')): '2c65c40e2946a0d566ff13ed3db806a16a2cea58e082c6da6a7c078240fefbad',
    ('qr_starter', (283, 2)): '902b336bd83c1e1dd0f549eda883f03f030c95425ab598a9d9ed078834879c1a',
    ('qr_starter', (283, '2inv')): '85e2121361816ce2a7041ae2e10c88b6c3ee13e417a6214e87682adb3d3e76ea',
    ('qr_starter', (307, 2)): 'd5f52e4d432ce8b8913c641fa300ee5363d5c3a3d5c86e45795ce5a48fb85fc9',
    ('qr_starter', (307, '2inv')): 'e3379cec0803d515fa3260528c061c4055a73be44c3fdc5eace9d2f71de2302c',
    ('qr_starter', (331, 2)): '301f2425039d2b8950b13107f782148ded8ce763f8ea0d60c920560149caae09',
    ('qr_starter', (331, '2inv')): 'ea4a4b08ef210ec347b61c8db6b050844c6186ce651199716f1d7ec5cd83b82e',
    ('qr_starter', (347, 2)): 'e4a70b6be5a51cc2cbd4b1e6686c90c9b9e9fd90550b2df1da2c8c0ae3730229',
    ('qr_starter', (347, '2inv')): 'b415d5da254dd381f768b1eb0925ccecc44a2ea68b3e5041c947ef11a69b090a',
    ('qr_starter', (379, 2)): 'e5ce6f33ce091864ca7c4f87785cfc8d08e88a06f3e481ecf3bec07917dd271b',
    ('qr_starter', (379, '2inv')): '668bb87716741d195e738044807130cf611517b5bfdbcbd6552e383f49b6755e',
    ('qr_starter', (419, 2)): '03691c1b69228ce438f44cca11dd2f6d470142a8a4679859635bdee7aa2f45a7',
    ('qr_starter', (419, '2inv')): '6895d461544f7a88860dd8868b7f1e90bed1688af2574a3d217870bd609e1adb',
    ('qr_starter', (443, 2)): '662fde372cf355839bc58c6da8f73e7e65f1d048f942778b13e90b17ff58dada',
    ('qr_starter', (443, '2inv')): '86e2dbc8fe11cb1aacc71aed91fbcb11f96a9ee91b4b2cdbee10cca9d1b5220c',
    ('qr_starter', (467, 2)): 'ccbbc58f21f58463e26e7e96712a1a4b170345cc086577c7051900556bd72a14',
    ('qr_starter', (467, '2inv')): '19f8fe985ac8334a29d98d16a434bb7f060d0146ca9b05d8c0ad60d41b06dfbb',
    ('qr_starter', (491, 2)): 'dabdd3b43bb26f76ed10506279a3a2c22b1efad6a4f52c818b2d4b3e0008b449',
    ('qr_starter', (491, '2inv')): '2a4b3b8a37c7c56b86e6a917089597737541a34c9af1ae449cc6037b217320ec',
    ('qr_starter', (499, 2)): '55c47506b0c03e7cc0c23a80d4a804cc8efc4fb1cb8c52a55a555bcf547d8ac6',
    ('qr_starter', (499, '2inv')): '3d9bff68a5f178d5d19459ffe02522fbee489e5bfe2a479c24c6011e15d16de3',
    ('qr_starter', (523, 2)): '114cbf94477efdf5b0282def35e78e50a67e440625b7e03092d2b3e0ec9663b9',
    ('qr_starter', (523, '2inv')): 'af018a561f6fbd741c7b75f828cd57a2b9a6b9afd5f8352cd4b947741b418eef',
    ('qr_starter', (547, 2)): 'b8550c38585c5b5e283a15777d4163482759c998314f20f82697060ddb4469c8',
    ('qr_starter', (547, '2inv')): 'd8e4f92d9f318a54ab448d826a8d0e9b3ac70f37e5c3f532b322d6d19b6b6c74',
    ('qr_starter', (563, 2)): '0f6a933760ac64ce5dab08f913cd30f17ff2e94aed25f6cbe68f799c4a9ce28b',
    ('qr_starter', (563, '2inv')): 'ad98d57f6c74d55000ca0d241eda64c2c1d8652fa403a327b239d79fad099ea7',
    ('qr_starter', (571, 2)): '0ddb051da072c809322a774e2082a830df071cf6c2c609d197fa83b85cfd349a',
    ('qr_starter', (571, '2inv')): '8e861afa45722b299c25666e576e636bc335d8012c78133740faba30aa00bd55',
    ('qr_starter', (587, 2)): '17be5eeef7ac64a85d1cff55274b56fd0a98d2b2f00946421f1748512edd49bf',
    ('qr_starter', (587, '2inv')): '5efd894c6e8a5e2be9536dda12e0bbb46f1da63613da994e413345b0d1fc29d3',
    ('qr_starter', (619, 2)): '75b12d045d319225a285d4729367cb4c6bfc6ac50ab0ef72a490e52eed11fe8c',
    ('qr_starter', (619, '2inv')): '3d70b3e2e886888fb533e5016561ad6d8f3126f8d80ba8d8a7ff3b9ce30e2d80',
    ('qr_starter', (643, 2)): '1cb829e4c97a99b254847e2eefedb51685f37c010f1ba7e91c1142d1d61f58d0',
    ('qr_starter', (643, '2inv')): 'b755fd013fbd09244db514a3eb28356e3bcce8ed668ef7defc68bdc727b4f6ab',
    ('qr_starter', (659, 2)): '61f0ad357e0d83cec92aeca1247f92eed847caa091ca6c346d5d15081f880141',
    ('qr_starter', (659, '2inv')): '3ef7356ba545e9d59bb40218a4337fc3de791754a7094e2a21a54290b16a1ceb',
    ('qr_starter', (683, 2)): '208e5eaf7558bc2edb1b32910e1b9b666ca045d5def124dd9d98e39ff9aa52cb',
    ('qr_starter', (683, '2inv')): 'b167cb6ab7362d0830aa303f9677f42017c2dda290f39a5cff3ef6c764091842',
    ('qr_starter', (691, 2)): 'ee518a7fe87d4b5aab15c7f8fbe69d6e6793b27ffc696fff47f8ca2fb24a7a41',
    ('qr_starter', (691, '2inv')): 'ecdd41b0c61ea688f0162f0010a9f633aa7d310084b8008cd38c9ab2a97a447f',
    ('qr_starter', (739, 2)): '2d9bfacaee1bb060e0d82297fa763ef30161cd8d4e335dd28c07c78f156cbd21',
    ('qr_starter', (739, '2inv')): '005bd9d955569a1142f6f56fdb84d9221e48b1515b41d933ca494574166a9d01',
    ('qr_starter', (787, 2)): 'f11d7bd3e39ffd903ca4b1f0731202939721128b3ff4b7e864ac8f34f2027715',
    ('qr_starter', (787, '2inv')): '720f09048ae8b1564fde2f964075ada74b9e354dc66fb7e10b4363ef444822b3',
    ('qr_starter', (811, 2)): '1fdea1e0192f2882ce2448f4de8081b9bb8a90ef496a4266eea1e2fc7411d3d7',
    ('qr_starter', (811, '2inv')): '5fd13f828f3e5d8d6b214a2daf758d45c765dc5b974b2b63e2f6ad6c6fea2685',
    ('qr_starter', (827, 2)): '966dbc20481c2bb83440c35233c980c9b91cbfce4ac5307a6d6cb6bad0675207',
    ('qr_starter', (827, '2inv')): 'd3bc105d7db797a8b82e6172153dab75d37d890c1a15e883a7f169af1141cd6e',
    ('qr_starter', (859, 2)): 'c52463dbfc5e78fd4e7970c2c4b73705ce7eaf8987f3dbfa895027990ae92fb2',
    ('qr_starter', (859, '2inv')): 'ac9fe03c18dc7e8b7abb84128e6616f2b1062a9cb7b47166a3a3e735ab965b66',
    ('qr_starter', (883, 2)): 'd0339ae19808029b37db691ac784f5dae0483ff8d5836113a1a4eed7bdbcc969',
    ('qr_starter', (883, '2inv')): 'ca2cda3c0fa9663d3e0cd31230b0030ead35058392f1da116aec2f5e398f76e9',
    ('qr_starter', (907, 2)): '20230797f8bd4ac5db0044bfbbdad6a77cc973472753b73d225968b598007857',
    ('qr_starter', (907, '2inv')): 'a253276bf52a1c85444241110842cdcf16d1e95043b15624ae33257b8262e083',
    ('qr_starter', (947, 2)): '28868caffd490bf93be59a3bc7c9393bdf5e284d8fd61b5dd32ff4d84a481327',
    ('qr_starter', (947, '2inv')): 'e720443d01322946df41885963ac983b3672268b4cef1ad2bcf4f97105375946',
    ('qr_starter', (971, 2)): 'a2661ec6251fa68508eeb45faaccd8f3fe09eb61dcaa283a5006a4cc5e4a4b04',
    ('qr_starter', (971, '2inv')): '9d60408d00b19861829b001ba4c088a3e73d3d0d5c07108e1b16f8681e7dfdee',
    ('horton_starter', (7, 3)): '246b0c8bc2b98ce98d0c2a3972288f7252c6ccf25d744a89941c292a5459eac2',
    ('horton_starter', (11, 2)): 'abe7a62e176ea5b8e57e8f70df7a1bc8602ea7d5ae690a43fd587692c12590a7',
    ('horton_starter', (11, 7)): '596d29da7af804a49f06b3844a1ebc68b0324a85a65608538b94a145c1c93908',
    ('horton_starter', (19, 2)): '726b5d80d521ce2b4dc4a26a7223205eb7d069c92dfa615bcdf00ad9bae39ac8',
    ('cyclotomic_starter', (281, 3)): '0406be48a49d4356dd17bba5294530f175b96a4c02e2e92515cbfbde22165dbe',
    ('cyclotomic_starter', (281, 3, '2inv')): 'ec5de52148c605771c6070dfcff828b50f23abc8d832a701df3dc8a7d57fe81e',
    ('prime_power_starter', (11, 1, 2)): '98ff16d1e9f8893c35f3d5b91b6863129c8ac23dd56cf8dc6bca8c48cd6634e8',
    ('prime_power_starter', (11, 2, 2)): '3fa1ee3337ca6c9f2a47d762712809bd1d19c5e296feda6ce45ee8c2766548b4',
    ('prime_power_starter', (11, 2, '2inv')): '628b2c3adb2ef1aa8f68603dd7e58b1e7077067368e0c0b73e0ba5e035013c68',
    ('prime_power_starter', (11, 3, 2)): '320c399c6956492d0009e9dd32b9ca0b79d25791c2ac5214e903c2806b35a1b8',
    ('prime_power_cyclotomic_starter', (281, 3, 1, 2)): '7d6c1f9deeb73964ee6b9ee80d42e1ce8b22c63b15c1769ffaccd461bed01f24',
    ('prime_power_cyclotomic_starter', (281, 3, 2, 2)): '6baf4ccca42326e57b9f821ce87faa7dbc22ddb00e82a578e85d46c14251e7b2',
    ('prime_power_cyclotomic_starter', (281, 3, 2, '2inv')): 'c2122f78124ad6c002bedd7e8f88a0c4ad7e39d5ea5e4bb37cfe927e5cb038e5',
    ('pq_starter', (11, 19, 2)): '815cb94ffb5aa542bc19801325376f69f5dc9c25c057c40a6bc250f6f2661a5b',
    ('pq_starter', (11, 19, '2inv')): '5073f2551cdb8397d4af27b33b5127d3589ec9604d23e94abf410f2a92d0c797',
    ('pq_cyclotomic_starter', (281, 617, 3, 2)): 'f9f95240bdff260b35aa1c6d5ddf14b41d89fdff154165b8975029a96c2135a7',
    ('pq_cyclotomic_starter', (281, 617, 3, '2inv')): '6a26ce56df6a285c274890f481788de08c6c1df483ec73adef4fbcf3805bf4a2',
    ('pq_starter', (11, 43, 2)): '213093eb54af3365906e19d7e228455be5287189f19c959fb625a626766d6698',
    ('pq_starter', (11, 59, '2inv')): '007d9e7ad4317c298415fb7d0cb0ac05ef8b152aebf927094f056e6b94e066f4',
    ('cyclotomic_starter', (1553, 4)): '0364b11f69fa04be993de86f17dcb0ed332da67df74847a5a1ade71e1e27b75f',
    ('cyclotomic_starter', (2657, 5)): '506991f1a16187ca5e9e615f9ea2dfcc70fd6958749e14b92354eab0d3cec1e4',
    ('horton_starter', (19, '2inv')): 'dd1111ef82e7a5c040e21df865a94ad943e6739020b448539421e335a694c71f',
    ('prime_power_cyclotomic_starter', (281, 3, 1, '2inv')): '43e6f34a071e2656241af6662e705f096f695273910fa184a44d8aee8dcdd5b6',
    ('pq_starter', (43, 59, 2)): '2219d8c0cdf5c5142644f2b75a67269c67832ef47fdc8d097ea9d13b8035b895',
    ('pq_starter', (83, 107, 2)): '2c33cc05a2ce44aef8a29a3fa16b393f5049ec74e72e2b8062c3d8ee3cb63a7a',
    ('pq_starter', (19, 59, '2inv')): 'b427e1bfd685faff63bead87e832fc6f1e20e0f2047eabf10a1b8edb3cfef06e',
    ('prime_power_starter', (19, 2, '2inv')): 'bba3ea96f0ca2bd923edebd0b9004ff982986eecc2cea8491a34c5ab4c2fe9ba',
    ('prime_power_starter', (43, 2, 2)): 'dedc47b85ff1ad04ed93318816591a4910e6d6c077192f249b6fa4913830a484',
    ('prime_power_cyclotomic_starter', (617, 3, 1, '2inv')): 'b97c18a6e4462d241fca1894e11b83f11344d1e5daa35fd9eee2767cd97b9614',
}

# The sha256 over every call of _grid_calls() of the call, then its
# starter_to_json text or the name of the exception it raised.
GRID_DIGEST = "b8fa02f4569eab8e28db9debaa34e3ed6511656e7e7942ffb7e1bfecf656fc64"

# Starters without a recipe: bare, and with a classification attached
# (the Z_3 one carries a witness).
Z19 = Starter.from_pairs(19, Z19_PAIRS)
Z3 = Starter.from_pairs(3, [(1, 2)])
BARE = {
    "z19 bare": (Z19, "bdb51fc2d9e4fb3e49358d8a7ed774eeb4b99fb2ad71567a30ec696149152b08"),
    "z19 classified": (
        Z19.with_metadata(classification=classify(Z19)),
        "9046460644bbc78cda647552f47e16c398e45b66e5fd00f7071dfbcc761a3a77",
    ),
    "z3 classified": (
        Z3.with_metadata(classification=classify(Z3)),
        "e8f2287838a4a75e38c59945cc6835ae202dc5bf0d7b688cdfafab586da9d00b",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_tested_recipe_keeps_its_bytes():
    changed = {}
    for (recipe, args), digest in DIGESTS.items():
        s = getattr(skolem_starters, recipe)(*args)
        text = starter_to_json(s)
        if sha256(text) != digest:
            changed[recipe, args] = sha256(text)
        assert text == json.dumps(starter_to_dict(s), indent=2)
    assert not changed
    assert DIGESTS["pq_cyclotomic_starter", (281, 617, 3, 2)].startswith("f9f95240")


def _grid_calls():
    """(recipe, arguments) over small parameters, built and refused alike."""
    primes = [p for p in range(2, 3000) if trial_division_prime(p)]
    for p in primes:
        if p < 400:
            for beta in (2, "2inv", 3, 7):
                yield "qr_starter", (p, beta)
                yield "horton_starter", (p, beta)
        for k in range(2, 6):
            yield "cyclotomic_starter", (p, k)
    for p in (p for p in primes if p < 300):
        for n in range(4):
            if p**n < 10**4:
                yield "prime_power_starter", (p, n)
                for k in (3, 4):
                    yield "prime_power_cyclotomic_starter", (p, k, n)
    small = [p for p in primes if p < 130]
    for i, p in enumerate(small):
        for q in small[i + 1:]:
            for beta in (2, "2inv"):
                yield "pq_starter", (p, q, beta)
    for args in (
        (281, 313, 3), (617, 281, 3), (281, 617, 2), (281, 617, 4),
        (41, 281, 3), (281, 1033, 5), (281, 617, 3, 3),
    ):
        yield "pq_cyclotomic_starter", args


def test_recipe_grid_digest():
    digest = hashlib.sha256()
    for recipe, args in _grid_calls():
        try:
            text = starter_to_json(getattr(skolem_starters, recipe)(*args))
        except Exception as exc:
            text = type(exc).__name__
        digest.update(f"{recipe}{args!r}\n{text}\n".encode())
    assert digest.hexdigest() == GRID_DIGEST


@pytest.mark.parametrize("label", sorted(BARE))
def test_starters_without_recipe_keep_their_bytes(label):
    s, digest = BARE[label]
    assert sha256(starter_to_json(s)) == digest
    assert starter_to_json(s) == json.dumps(starter_to_dict(s), indent=2)


def test_empty_and_wrong_size_starters_match_json_dumps():
    for s in (Starter.from_pairs(3, []), Starter.from_pairs(9, [(1, 2)])):
        assert starter_to_json(s) == json.dumps(starter_to_dict(s), indent=2)


@pytest.mark.parametrize(
    "argv,recipe,args",
    [
        (["--method", "qr", "--p", "19"], "qr_starter", (19, 2)),
        (["--method", "pq", "--p", "11", "--q", "19", "--beta", "2inv"], "pq_starter", (11, 19, "2inv")),
        (["--method", "cyclotomic", "--p", "281", "--k", "3"], "cyclotomic_starter", (281, 3)),
    ],
)
def test_cli_writes_starter_to_json_plus_newline(capsys, tmp_path, argv, recipe, args):
    expected = starter_to_json(getattr(skolem_starters, recipe)(*args)) + "\n"
    assert sha256(expected[:-1]) == DIGESTS[recipe, args]
    out_file = tmp_path / "starter.json"

    assert main(["construct", *argv, "--json"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["construct", *argv, "--out", str(out_file)]) == 0
    assert out_file.read_text() == expected
    capsys.readouterr()
    assert main(["verify", "--in", str(out_file), "--json"]) == 0
    assert capsys.readouterr().out == expected
